import gc
import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import zip_longest

import pytest
from closed_forms import ECKARDT_COUNTS, cubic_h, fermat_h_closed, rams_h_closed

import linesurf.harbourne
from linesurf.catalog import (
    IncidenceProfile,
    ProfileError,
    cubic_profile,
    fermat_lines,
    fermat_profile,
    rams_profile,
    schur_profile,
)
from linesurf.harbourne import (
    InapplicableDegree,
    MiyaokaResult,
    UndefinedConstant,
    analyze_profile,
    bauer_search,
    extremal_profile_search,
    harbourne_linear,
    harbourne_lower_bound,
    miyaoka_check,
    strict_transform_sq,
    strict_transform_sq_lower,
)
from linesurf.incidence import incidence_count, scan_arrangement

BAUER = IncidenceProfile(n=4, d=16, t={4: 8})


def brute_force_search(n, d, k_max, limit=None):
    """Oracle for ``extremal_profile_search``: every t-vector, filtered and sorted.

    Builds each pair-feasible t-vector over multiplicities 2..min(k_max, d),
    keeps those passing Miyaoka's inequality and sorts them by H_L as a
    ``Fraction``, then by t, with the s = 0 profile last.
    """
    budget = d * (d - 1)
    ks = list(range(2, min(k_max, d) + 1))
    results = []

    def enumerate_vectors(idx, remaining, current):
        if idx == len(ks):
            profile = IncidenceProfile(n=n, d=d, t=dict(current))
            if miyaoka_check(profile).holds:
                value = harbourne_linear(profile) if profile.s > 0 else None
                results.append((profile, value))
            return
        k = ks[idx]
        weight = k * k - k
        for count in range(remaining // weight + 1):
            current[k] = count
            enumerate_vectors(idx + 1, remaining - weight * count, current)
        del current[k]

    enumerate_vectors(0, budget, {})
    results.sort(
        key=lambda item: (
            item[1] is None,
            item[1] if item[1] is not None else 0,
            sorted(item[0].t.items()),
        )
    )
    return results if limit is None else results[:limit]


def listed_row(row):
    """A row with the order of its ``t`` made visible to ``==``."""
    p, v = row
    return p.n, p.d, list(p.t.items()), v


def listed(rows):
    return list(map(listed_row, rows))


def first_difference(rows, expected):
    """The first index at which ``listed`` tells two row lists apart, or None.

    Row by row, keeping no listing: a listing of a whole large search kept
    alive makes every pass of the garbage collector walk it.
    """
    for i, (a, b) in enumerate(zip_longest(rows, expected)):
        if a is None or b is None or listed_row(a) != listed_row(b):
            return i
    return None


class TestStrictTransformSq:
    def test_bauer(self):
        # 16*(-2) + 16*6 - 16*8
        assert strict_transform_sq(BAUER) == -64

    def test_schur(self):
        # (-2)*64 + 1152 - (4*336 + 9*64 + 16*8)
        assert strict_transform_sq(schur_profile()) == -1024

    def test_disjoint_lines(self):
        assert strict_transform_sq(IncidenceProfile(n=4, d=2, t={})) == -4

    def test_two_forms_on_random_profiles(self):
        rng = random.Random(35711)
        produced = 0
        while produced < 300:
            n = rng.randint(3, 9)
            d = rng.randint(1, 40)
            t = {}
            budget = d * (d - 1)
            for k in range(2, min(6, d) + 1):
                cap = budget // (k * k - k)
                if cap:
                    t[k] = rng.randint(0, cap)
                    budget -= (k * k - k) * t[k]
            try:
                profile = IncidenceProfile(n=n, d=d, t=t)
            except ValueError:
                continue
            full = (2 - n) * d + incidence_count(profile) - sum(k * k * c for k, c in t.items())
            assert strict_transform_sq(profile) == full
            produced += 1


class TestHarbourneLinear:
    def test_fermat_cubic(self):
        assert harbourne_linear(cubic_profile(18)) == Fraction(-27, 11)

    def test_schur(self):
        assert harbourne_linear(schur_profile()) == Fraction(-128, 51)

    def test_bauer(self):
        assert harbourne_linear(BAUER) == -8

    def test_undefined_without_singular_points(self):
        with pytest.raises(UndefinedConstant):
            harbourne_linear(IncidenceProfile(n=4, d=2, t={}))


class TestMiyaoka:
    def test_schur(self):
        assert miyaoka_check(schur_profile()) == (-144, 72, True)

    def test_fermat_quartic(self):
        assert miyaoka_check(fermat_profile(4)) == (0, 72, True)

    def test_cubic_inapplicable(self):
        with pytest.raises(InapplicableDegree):
            miyaoka_check(fermat_profile(3))


class TestLowerBound:
    def test_bauer(self):
        assert harbourne_lower_bound(BAUER) == -9

    def test_schur(self):
        bound = harbourne_lower_bound(schur_profile())
        assert bound == Fraction(-155, 51)
        assert harbourne_linear(schur_profile()) >= bound

    def test_fermat_limit(self):
        # the bound tends to -11/3 from above as the degree grows
        prev = harbourne_lower_bound(fermat_profile(4))
        for n in range(5, 60, 5):
            cur = harbourne_lower_bound(fermat_profile(n))
            assert cur < prev
            prev = cur
        assert abs(harbourne_lower_bound(fermat_profile(400)) + Fraction(11, 3)) < Fraction(1, 100)

    def test_cubic_inapplicable(self):
        with pytest.raises(InapplicableDegree):
            harbourne_lower_bound(cubic_profile(18))

    def test_strict_form(self):
        assert strict_transform_sq_lower(4, 8) == -104
        assert strict_transform_sq(BAUER) > strict_transform_sq_lower(4, 8)


class TestClosedForms:
    def test_fermat_values(self):
        assert fermat_h_closed(3) == Fraction(-27, 11)
        assert fermat_h_closed(4) == Fraction(-8, 3)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_fermat_vs_brute_force(self, n, fermat_brute_profiles):
        # closed form against the full geometric pipeline, no formulas involved
        assert fermat_h_closed(n) == harbourne_linear(fermat_brute_profiles[n])

    def test_fermat_tends_to_minus_three(self):
        assert abs(fermat_h_closed(1000) + 3) < Fraction(1, 100_000)

    @pytest.mark.parametrize("n,value", [(6, Fraction(-54, 13)), (10, Fraction(-250, 41))])
    def test_rams_values(self, n, value):
        assert rams_h_closed(n) == value
        assert rams_h_closed(n) == harbourne_linear(rams_profile(n))

    def test_rams_strictly_decreasing(self):
        values = [rams_h_closed(n) for n in range(6, 31)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_cubic_values(self):
        assert cubic_h(18) == Fraction(-27, 11)
        assert cubic_h(0) == Fraction(-11, 5)

    def test_cubic_strictly_decreasing(self):
        assert all(cubic_h(t + 1) < cubic_h(t) for t in range(18))

    @pytest.mark.parametrize("t", range(19))
    def test_cubic_vs_profile(self, t):
        # the closed form covers 0..18; the library builds only the counts that exist
        if t in ECKARDT_COUNTS:
            assert cubic_h(t) == harbourne_linear(cubic_profile(t))
        else:
            with pytest.raises(ProfileError):
                cubic_profile(t)

    @pytest.mark.parametrize(
        "function,argument,message",
        [
            (fermat_h_closed, 2, "fermat_h_closed requires degree n >= 3"),
            (rams_h_closed, 5, "rams_h_closed requires degree n >= 6"),
            (cubic_h, -1, "the number of triple points on a cubic lies in 0..18"),
            (cubic_h, 19, "the number of triple points on a cubic lies in 0..18"),
        ],
    )
    def test_out_of_range(self, function, argument, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            function(argument)


class TestAnalyzeProfile:
    def test_schur_report(self):
        report = analyze_profile(schur_profile())
        assert report.h_linear == Fraction(-128, 51)
        assert strict_transform_sq(report.profile) == -1024
        assert report.miyaoka.holds and report.h_bound_holds and report.strict_bound_holds
        assert report.h_linear == Fraction(strict_transform_sq(report.profile), report.profile.s)

    def test_cubic_report_has_no_bounds(self):
        report = analyze_profile(cubic_profile(10))
        assert report.miyaoka is None
        assert report.h_lower_bound is None
        assert report.h_linear == cubic_h(10)

    def test_empty_profile_report(self):
        report = analyze_profile(IncidenceProfile(n=4, d=2, t={}))
        assert report.h_linear is None
        assert report.profile.s == 0

    @staticmethod
    def grid():
        """Profiles for n = 3..6: s = 0, and Miyaoka holding and failing."""
        yield IncidenceProfile(4, 19, {2: 4})  # Miyaoka's equality: H_L on its bound
        for n in range(3, 7):
            for d in (6, 3 * n * n):
                for t in ({}, {2: 1}, {3: 1, 2: 3}, {2: d * (d - 1) // 2}, {d: 1}):
                    yield IncidenceProfile(n, d, t)

    def test_grid_covers_every_gate(self):
        seen = {
            (p.n >= 4, p.s > 0, p.n >= 4 and miyaoka_check(p).holds) for p in self.grid()
        }
        assert seen == {(a, b, c) for a in (False, True) for b in (False, True) for c in (a, False)}

    def test_each_value_is_its_function_or_none_where_it_refuses(self):
        for profile in self.grid():
            report = analyze_profile(profile)
            assert report.profile is profile
            assert report.t is profile.t
            for value, function, args in (
                (report.h_linear, harbourne_linear, (profile,)),
                (report.miyaoka, miyaoka_check, (profile,)),
                (report.h_lower_bound, harbourne_lower_bound, (profile,)),
                (report.strict_sq_lower, strict_transform_sq_lower, (profile.n, profile.s)),
            ):
                try:
                    expected = function(*args)
                except (InapplicableDegree, UndefinedConstant):
                    assert value is None, (profile, function)
                else:
                    assert value == expected and value is not None, (profile, function)
            assert (report.h_linear is None) == (profile.s == 0)
            assert (report.miyaoka is None) == (profile.n < 4)
            assert (report.strict_sq_lower is None) == (profile.n < 4)
            assert (report.h_lower_bound is None) == (profile.n < 4 or profile.s == 0)
            if report.h_lower_bound is None:
                assert report.h_bound_holds is None
            else:
                assert report.h_bound_holds == (report.h_linear >= report.h_lower_bound)
                # H_L minus the bound is (rhs - lhs)/s: the bound holds with Miyaoka.
                assert report.h_bound_holds == report.miyaoka.holds
            if report.strict_sq_lower is None:
                assert report.strict_bound_holds is None
            else:
                sts = strict_transform_sq(profile)
                assert report.strict_bound_holds == (sts > report.strict_sq_lower)


class TestGates:
    MIYAOKA = "^Miyaoka's inequality requires surface degree n >= 4$"
    NO_POINTS = r"^H_L is undefined: the configuration has no singular points \(s = 0\)$"

    def test_every_degree_gated_function_refuses_with_one_message(self):
        cubic = cubic_profile(0)
        for call in (
            lambda: miyaoka_check(cubic),
            lambda: harbourne_lower_bound(cubic),
            lambda: strict_transform_sq_lower(3, cubic.s),
            lambda: extremal_profile_search(3, 5, 3),
        ):
            with pytest.raises(InapplicableDegree, match=self.MIYAOKA):
                call()

    def test_every_s_gated_function_refuses_with_one_message(self):
        empty = IncidenceProfile(n=4, d=2)
        for function in (harbourne_linear, harbourne_lower_bound):
            with pytest.raises(UndefinedConstant, match=self.NO_POINTS):
                function(empty)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_miyaoka_rhs(self, n):
        assert miyaoka_check(IncidenceProfile(n, 1)).rhs == 2 * n * (n - 1) ** 2
        assert strict_transform_sq_lower(n, 5) == -20 - 2 * n * (n - 1) ** 2


class TestExtremalSearch:
    def test_contains_bauer_profile(self):
        results = extremal_profile_search(4, 16, 4)
        values = {tuple(sorted(p.t.items())): v for p, v in results}
        assert values[((4, 8),)] == -8
        miy = miyaoka_check(IncidenceProfile(n=4, d=16, t={4: 8}))
        assert miy.lhs == 64 and miy.holds

    def test_single_line(self):
        results = extremal_profile_search(4, 1, 4)
        assert len(results) == 1
        profile, value = results[0]
        assert profile.s == 0 and value is None

    def test_toy_enumeration(self):
        results = extremal_profile_search(4, 3, 3)
        as_dict = {tuple(sorted(p.t.items())): v for p, v in results}
        assert as_dict[((3, 1),)] == -9
        assert as_dict[((2, 1),)] == -8
        assert as_dict[((2, 2),)] == -5
        assert as_dict[((2, 3),)] == -4
        assert as_dict[()] is None
        assert len(results) == 5
        # sorted ascending by H_L, no-value profiles last
        values = [v for _, v in results]
        assert values == [-9, -8, -5, -4, None]

    def test_everything_passes_miyaoka(self):
        for profile, _ in extremal_profile_search(4, 6, 4):
            assert miyaoka_check(profile).holds

    def test_degree_gate(self):
        with pytest.raises(InapplicableDegree):
            extremal_profile_search(3, 5, 3)

    def test_line_bound_gate(self):
        with pytest.raises(ValueError):
            extremal_profile_search(4, 65, 3)

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            extremal_profile_search(4, 6, 3, limit=-1)
        assert extremal_profile_search(4, 6, 3, limit=0) == []


# Searches whose rows tie on H_L across runs, with t_2 = 0 rows among the ties.
TIE_CASES = [(6, d, k) for d in range(11, 15) for k in (3, 4)]


class TestExtremalSearchOracle:
    """The t_2 runs give the brute-force rows, in the same order."""

    @pytest.mark.parametrize("k_max", (2, 3, 4, 6))
    @pytest.mark.parametrize("d", range(1, 11))
    @pytest.mark.parametrize("n", (4, 6))
    def test_small_grid(self, n, d, k_max):
        assert listed(extremal_profile_search(n, d, k_max)) == listed(
            brute_force_search(n, d, k_max)
        )

    @pytest.mark.parametrize("case", ((4, 19, 2), (4, 24, 2), (4, 20, 3)))
    def test_miyaoka_sets_the_lower_end(self, case):
        rows = extremal_profile_search(*case)
        assert listed(rows) == listed(brute_force_search(*case))
        # d > 2(n-1)^2: the empty profile fails Miyaoka, so lo > 0 on its run.
        assert all(p.s > 0 for p, _ in rows)

    @pytest.mark.parametrize("limit", (0, 1, 7))
    @pytest.mark.parametrize("case", ((4, 1, 4), (4, 6, 3), (6, 9, 4), (4, 19, 2)))
    def test_limit(self, case, limit):
        assert listed(extremal_profile_search(*case, limit=limit)) == listed(
            brute_force_search(*case, limit=limit)
        )

    @pytest.mark.parametrize("case", TIE_CASES)
    def test_ties_across_runs(self, case):
        rows = extremal_profile_search(*case)
        assert listed(rows) == listed(brute_force_search(*case))
        # The case must reach the tie-break on t: equal H_L from different
        # tails, with a t_2 = 0 row (nonempty tail) among the tied rows.
        tied = {}
        for p, value in rows:
            tied.setdefault(value, []).append(p)
        groups = [ps for value, ps in tied.items() if value is not None and len(ps) > 1]
        assert any(
            any(p.t2 == 0 for p in ps)
            and any(p.t2 > 0 for p in ps)
            and len({tuple((k, c) for k, c in p.t.items() if k > 2) for p in ps}) > 1
            for ps in groups
        )

    # The tie cases have t_2 = 0 rows tied with rows of other runs, where a
    # run cut short under the limit could drop a row that belongs in the prefix.
    @pytest.mark.parametrize(
        "case", ((4, 24, 4), (6, 12, 4), *(c for c in TIE_CASES if c != (6, 12, 4)))
    )
    def test_limit_is_a_prefix(self, case):
        rows = extremal_profile_search(*case)
        for limit in (0, 1, 7, len(rows) - 1, len(rows), len(rows) + 5):
            limited = extremal_profile_search(*case, limit=limit)
            assert first_difference(limited, rows[:limit]) is None

    def test_limit_at_thirty_lines(self):
        assert listed(extremal_profile_search(4, 30, 4, limit=3)) == [
            (4, 30, [(3, 48)], Fraction(-17, 4)),
            (4, 30, [(3, 48), (4, 1)], Fraction(-208, 49)),
            (4, 30, [(3, 48), (4, 2)], Fraction(-106, 25)),
        ]

    def test_closed_form_certification_can_fail(self, monkeypatch):
        exact = linesurf.harbourne.harbourne_linear
        monkeypatch.setattr(
            linesurf.harbourne, "harbourne_linear", lambda profile: exact(profile) + 1
        )
        with pytest.raises(AssertionError, match="closed-form H_L"):
            extremal_profile_search(4, 8, 3)

    @pytest.mark.parametrize(
        "case,calls",
        [
            # d <= 2(n-1)^2: lo = 0 on every run, one Miyaoka check and one
            # closed-form check per tail (the empty tail's at t_2 = 1).
            ((4, 12, 4), (144, 144)),
            # One tail, the empty one; d > 2(n-1)^2 puts lo > 0, so its run
            # is checked at lo and at lo - 1.
            ((4, 19, 2), (2, 1)),
            ((4, 6, 3), (6, 6)),
        ],
    )
    def test_certificate_counts(self, monkeypatch, case, calls):
        """(miyaoka_check, harbourne_linear) calls made by one search."""
        counts = {"miyaoka_check": 0, "harbourne_linear": 0}
        for name in counts:

            def counted(profile, name=name, exact=getattr(linesurf.harbourne, name)):
                counts[name] += 1
                return exact(profile)

            monkeypatch.setattr(linesurf.harbourne, name, counted)
        extremal_profile_search(*case)
        assert (counts["miyaoka_check"], counts["harbourne_linear"]) == calls

    @pytest.mark.parametrize(
        "case,builds",
        [
            # One upper end per tail, whose run's certificates and rows are
            # all lowered from it, and the empty row when it is listed.
            ((4, 12, 4), 144 + 1),
            ((4, 19, 2), 1),
            ((4, 6, 3), 6 + 1),
        ],
    )
    def test_profile_builds(self, monkeypatch, case, builds):
        """``IncidenceProfile.__init__`` runs once per tail, never per row."""
        count = 0
        exact = IncidenceProfile.__init__

        def counted(self, *args, **kwargs):
            nonlocal count
            count += 1
            exact(self, *args, **kwargs)

        monkeypatch.setattr(IncidenceProfile, "__init__", counted)
        rows = extremal_profile_search(*case)
        assert count == builds < len(rows)

    @pytest.mark.parametrize(
        "case,message", (((4, 12, 4), "closed-form H_L"), ((4, 19, 2), "Miyaoka run endpoint"))
    )
    def test_certificates_see_the_row_builder(self, monkeypatch, case, message):
        # The certificates run on profiles lowered by _with_t2, as the rows
        # are: a _with_t2 that lowers nothing must break them.
        monkeypatch.setattr(IncidenceProfile, "_with_t2", lambda self, t2: self)
        with pytest.raises(AssertionError, match=message):
            extremal_profile_search(*case)

    @pytest.mark.parametrize("holds", (False, True))
    def test_run_certification_can_fail(self, monkeypatch, holds):
        # Miyaoka reported as always failing breaks the lower end of a run;
        # reported as always holding, the check just below it (lo > 0 at d = 19).
        monkeypatch.setattr(
            linesurf.harbourne, "miyaoka_check", lambda profile: MiyaokaResult(0, 0, holds)
        )
        with pytest.raises(AssertionError, match="Miyaoka run endpoint"):
            extremal_profile_search(4, 19, 2)


def tie_order(rows):
    """Rows in the documented order, by a key written out entry by entry.

    H_L as a ``Fraction``, then t_2 with t_2 = 0 after every t_2 > 0, then
    the items of the tail t_3..t_k; the s = 0 row comes last.
    """

    def key(row):
        profile, value = row
        if value is None:
            return (True,)
        tail = tuple((k, c) for k, c in profile.t.items() if k > 2)
        return (False, value, profile.t2 == 0, profile.t2, tail)

    return sorted(rows, key=key)


class TestTieOrder:
    """The integer sort key gives the order of the key written out in full."""

    # Every floor is negative (H_L < 0 here), and the grid has equal H_L at
    # equal t_2 on several runs, where the run's rank decides (checked below).
    CASES = [(n, d, k) for n in (4, 6) for d in (9, 12, 14) for k in (3, 4)]

    @pytest.mark.parametrize("case", CASES)
    def test_order_and_every_limit(self, case):
        expected = listed(tie_order(brute_force_search(*case)))
        found = extremal_profile_search(*case)
        assert listed(found) == expected
        # The floor decoded from each key groups the rows of one value.
        values = [v for _, v in found if v is not None]
        assert len({id(v) for v in values}) == len(set(values))
        for limit in (0, 1, 3, len(expected), len(expected) + 5):
            assert listed(extremal_profile_search(*case, limit=limit)) == expected[:limit]

    def test_grid_reaches_the_rank(self):
        # Some group of equal H_L and equal t_2 spans several tails whose
        # items order differs from the order in which the tails are listed.
        reached = False
        for case in self.CASES:
            groups = {}
            for p, value in extremal_profile_search(*case):
                if value is not None:
                    tail = tuple(p.t.get(k, 0) for k in range(3, case[2] + 1))
                    groups.setdefault((value, p.t2), []).append(tail)
            reached = reached or any(
                len(tails) > 1 and tails != sorted(tails) for tails in groups.values()
            )
        assert reached


class TestExtremalRows:
    """The rows are pinned byte for byte, and rows of one value share one Fraction."""

    def test_rows_digest(self):
        # SHA-256 over the repr of each search's rows, pinned from the
        # search that built one Fraction per row.
        digest = hashlib.sha256()
        for n in (4, 5, 6):
            for d in range(1, 15):
                for k_max in (2, 3, 4, 5):
                    for limit in (None, 0, 3):
                        rows = extremal_profile_search(n, d, k_max, limit=limit)
                        digest.update(repr(listed(rows)).encode() + b"\n")
        assert digest.hexdigest() == (
            "ebd72e0def7add59cf16595103aff284804c7f87a4dae596e64242a45443978c"
        )

    def test_one_fraction_per_value(self):
        values = [v for _, v in extremal_profile_search(6, 14, 4) if v is not None]
        assert len(values) > len(set(values)) > 1
        assert len({id(v) for v in values}) == len(set(values))

    @pytest.mark.parametrize("case", ((6, 14, 4), (4, 19, 3), (5, 9, 5)))
    def test_values_are_harbourne_linear(self, case):
        for profile, value in extremal_profile_search(*case):
            if profile.s == 0:
                assert value is None
            else:
                assert value == harbourne_linear(profile)


class TestCollector:
    """The searches leave no cyclic garbage, and the collector's state is kept."""

    @pytest.mark.parametrize(
        "search",
        [
            pytest.param(lambda: extremal_profile_search(4, 12, 4), id="extremal"),
            pytest.param(lambda: extremal_profile_search(4, 6, 3, limit=2), id="extremal-limit"),
            # Ends with the empty row.
            pytest.param(lambda: extremal_profile_search(4, 6, 3), id="extremal-empty-row"),
            pytest.param(lambda: bauer_search(scan_arrangement(fermat_lines(4)), 16), id="bauer"),
        ],
    )
    def test_no_cyclic_garbage(self, search):
        gc.collect()
        gc.disable()
        try:
            search()  # the result is dropped at once
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("raises", (False, True))
    @pytest.mark.parametrize("enabled", (True, False))
    def test_state_restored(self, monkeypatch, enabled, raises):
        if raises:
            monkeypatch.setattr(
                linesurf.harbourne, "miyaoka_check", lambda profile: MiyaokaResult(0, 0, False)
            )
        (gc.enable if enabled else gc.disable)()
        try:
            if raises:
                with pytest.raises(AssertionError, match="Miyaoka run endpoint"):
                    extremal_profile_search(4, 19, 2)
            else:
                extremal_profile_search(4, 19, 2)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "args,error",
        [
            ((3, 5, 3), InapplicableDegree),
            ((4, 0, 3), ValueError),
            ((4, 65, 3), ValueError),
            ((4, 6, 1), ValueError),
            ((4, 6, 3, -1), ValueError),
            ((4, 64, 4), ValueError),  # the 10,000,000-vector guard
        ],
    )
    def test_guards_raise_before_the_pause(self, monkeypatch, args, error):
        pauses = []
        monkeypatch.setattr(gc, "disable", lambda: pauses.append(None))
        with pytest.raises(error):
            extremal_profile_search(*args)
        assert pauses == []
        extremal_profile_search(4, 6, 3)
        assert len(pauses) == 1


class TestLimitedBuilds:
    """A limited search builds only the rows keyed at or below its cut."""

    @pytest.mark.parametrize("limit", (1, 20, 1000))
    def test_builds_only_what_it_returns(self, monkeypatch, limit):
        full = extremal_profile_search(4, 24, 4)
        # The rows past the cut that tie with the last row kept: equal H_L
        # and equal t_2 give equal keys, whose order the tails decide.
        kept, value = full[limit - 1]
        tied = sum(1 for p, v in full[limit:] if v == value and p.t2 == kept.t2)
        counts = {"_lowered": 0, "_with_t2": 0}
        lowered, with_t2 = IncidenceProfile._lowered, IncidenceProfile._with_t2

        def counted_lowered(self, t2s):
            profiles = lowered(self, t2s)
            counts["_lowered"] += len(profiles)
            return profiles

        def counted_with_t2(self, t2):
            counts["_with_t2"] += 1
            return with_t2(self, t2)

        monkeypatch.setattr(IncidenceProfile, "_lowered", counted_lowered)
        monkeypatch.setattr(IncidenceProfile, "_with_t2", counted_with_t2)
        rows = extremal_profile_search(4, 24, 4, limit=limit)
        assert first_difference(rows, full[:limit]) is None
        # Each certificate's profile is one of the builder's, through _with_t2.
        built = counts["_lowered"] - counts["_with_t2"]
        assert limit <= built <= limit + tied


class TestRowMemory:
    def test_peak_beside_the_rows(self):
        """The keys sit beside the rows only while they are sorted.

        Measured with tracemalloc over the 206,518 rows of (5, 24, 4): the
        search's peak is about 1.37 times the bytes its rows hold, where a
        build of each row after the sort peaked at 1.01.
        """
        extremal_profile_search(5, 24, 4)  # fill the caches that outlive a search
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = extremal_profile_search(5, 24, 4)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 206_518
        assert peak - before <= 1.5 * (held - before)

    def test_bytes_held_per_row(self):
        """A row holds its profile and one small t-vector; its run's tail is shared.

        Measured with tracemalloc over the 18,291 rows of (4, 16, 4): about
        184 bytes a row, against about 355 when each row copied its run's dict.
        """
        extremal_profile_search(4, 16, 4)  # fill the caches that outlive a search
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = extremal_profile_search(4, 16, 4)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rows) == 18_291
        assert held / len(rows) <= 250


class TestBoundSoundness:
    def test_family_sweep(self):
        profiles = [fermat_profile(n) for n in range(4, 30)]
        profiles += [rams_profile(n) for n in range(6, 30)]
        profiles += [schur_profile(), BAUER]
        for p in profiles:
            assert miyaoka_check(p).holds
            h = harbourne_linear(p)
            assert h >= harbourne_lower_bound(p)
            assert strict_transform_sq(p) > strict_transform_sq_lower(p.n, p.s)
