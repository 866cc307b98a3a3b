import copy
import dataclasses
import json
import pickle
from types import MappingProxyType

import pytest
from closed_forms import ECKARDT_COUNTS
from hypothesis import given
from hypothesis import strategies as st

from linesurf.catalog import (
    NAMED,
    Arrangement,
    IncidenceProfile,
    ProfileError,
    check_line_count,
    cubic_profile,
    fermat_lines,
    fermat_profile,
    max_lines_bound,
    on_surface,
    rams_profile,
    schur_profile,
)
from linesurf.exactnum import ConductorMismatch
from linesurf.harbourne import extremal_profile_search
from linesurf.incidence import incidence_count, profile_from_arrangement
from linesurf.serialize import SchemaError, load_custom_profile, profile_json, t_vector_str

# The constructor called positionally and by keyword: every check must fire both ways.
BUILDS = (
    lambda n, d, t: IncidenceProfile(n, d, t),
    lambda n, d, t: IncidenceProfile(n=n, d=d, t=t),
)


class TestIncidenceProfile:
    def test_zero_counts_dropped(self):
        p = IncidenceProfile(n=4, d=10, t={2: 5, 3: 0})
        assert p.t == {2: 5}
        assert p.s == 5

    @pytest.mark.parametrize(
        "d,t,outcome",
        [
            pytest.param(10, {1: 3}, r"multiplicity 1 outside the valid range 2\.\.10$", id="below"),
            pytest.param(10, {11: 1}, r"multiplicity 11 outside the valid range 2\.\.10$", id="above"),
            # The sign is checked before the range.
            pytest.param(10, {1: -1}, r"count t_1 must be nonnegative", id="negative"),
            pytest.param(10, {"2": 1}, "multiplicities and counts must be integers", id="str-key"),
            # Keys of mixed types are rejected, not left to fail in the sort.
            pytest.param(
                5, {"2": 1, 3: 1}, "multiplicities and counts must be integers", id="mixed-keys"
            ),
            # 2 lines admit at most one double point.
            pytest.param(
                2, {2: 2}, r"sum \(k\^2-k\) t_k = 4 exceeds d\(d-1\) = 2$", id="pairs"
            ),
            pytest.param(2, {2: 1}, {2: 1}, id="pairs-at-bound"),
            # A zero count is dropped before its key's range is checked.
            pytest.param(10, {1: 0, 11: 0, 2: 5}, {2: 5}, id="zero-out-of-range"),
        ],
    )
    def test_validation(self, d, t, outcome):
        """``outcome`` is the ProfileError message, or the cleaned t when accepted."""
        for build in BUILDS:
            if isinstance(outcome, dict):
                assert build(4, d, t).t == outcome
            else:
                with pytest.raises(ProfileError, match=outcome):
                    build(4, d, t)

    def test_degree_floor(self):
        for build in BUILDS:
            with pytest.raises(ProfileError, match="surface degree n"):
                build(2, 5, {})

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "profile.json"
        for p in (schur_profile(), IncidenceProfile(4, 5)):
            path.write_text(json.dumps(profile_json(p)))
            assert load_custom_profile(str(path)) == p

    @pytest.mark.parametrize(
        "d,t,message",
        [
            (True, {}, "line count d"),
            (False, {}, "line count d"),
            (5, {2: True}, "multiplicities and counts"),
            (5, {2: False}, "multiplicities and counts"),
        ],
    )
    def test_booleans_rejected(self, d, t, message):
        for build in BUILDS:
            with pytest.raises(ProfileError, match=message):
                build(4, d, t)

    def test_mapping_t_is_copied(self):
        source = {4: 8, 2: 0, 3: 2}
        for build in BUILDS:
            p = build(4, 16, MappingProxyType(source))
            assert list(p.t.items()) == [(3, 2), (4, 8)] and p.t == {3: 2, 4: 8}
            source[2] = 5  # the profile keeps the counts it validated
            assert list(p.t.items()) == [(3, 2), (4, 8)] and p.s == 10
            source[2] = 0
        with pytest.raises(ProfileError, match=r"multiplicity 17 outside"):
            IncidenceProfile(4, 16, MappingProxyType({17: 1}))

    def test_omitted_t(self):
        a, b = IncidenceProfile(4, 5), IncidenceProfile(n=4, d=5)
        assert a.t == b.t == {} and len(a.t) == 0 and list(a.t.items()) == []
        with pytest.raises(TypeError):
            a.t[2] = 1  # the shared empty default cannot be changed
        assert b.t == {} and a.s == b.s == 0

    @pytest.mark.parametrize(
        "p",
        [IncidenceProfile(4, 16, {4: 8}), schur_profile()._with_t2(7)],
        ids=["built", "lowered"],
    )
    def test_t_is_read_only(self, p):
        """A profile in a set keeps its hash and ``s``: its t cannot be changed."""
        items, s, h = list(p.t.items()), p.s, hash(p)
        members = {p}
        for k in (99, 2):
            with pytest.raises(TypeError):
                p.t[k] = 1
        with pytest.raises(TypeError):
            del p.t[4]
        for name in ("pop", "popitem", "update", "setdefault", "clear"):
            assert not hasattr(p.t, name)
        assert p in members and list(p.t.items()) == items
        assert (p.s, hash(p)) == (s, h)

    def test_t_reads_like_a_dict(self):
        d = {2: 3, 3: 2, 4: 8}
        t = IncidenceProfile(4, 16, {4: 8, 3: 2, 2: 3}).t
        assert list(t) == sorted(t) == [2, 3, 4] and len(t) == 3
        assert list(t.items()) == list(d.items()) and list(t.values()) == [3, 2, 8]
        assert t == d and d == t and t != {2: 3, 3: 2} and t != [(2, 3)]
        assert t.items() == d.items() and {**t} == d
        assert (t[2], t[4], t.get(2, 0), t.get(5, 0), 5 in t, 3 in t) == (3, 8, 3, 0, False, True)
        with pytest.raises(KeyError):
            t[5]
        assert repr(t) == repr(d) == "{2: 3, 3: 2, 4: 8}"
        assert repr(IncidenceProfile(4, 16, d)) == "IncidenceProfile(n=4, d=16, t={2: 3, 3: 2, 4: 8})"
        assert IncidenceProfile(4, 16, {4: 8}).t.get(2, 0) == 0
        for u in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t, 0))):
            assert list(u.items()) == list(d.items())

    def test_slotted_and_frozen(self):
        p = IncidenceProfile(n=4, d=16, t={4: 8, 2: 0, 3: 2})
        assert not hasattr(p, "__dict__")
        # Every assignment and deletion is refused, field or not.
        for name in ("d", "t", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, 17)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(p, name)
        assert (p.n, p.d) == (4, 16)
        assert list(p.t.items()) == [(3, 2), (4, 8)]
        assert p == IncidenceProfile(n=4, d=16, t={3: 2, 4: 8})
        assert p != IncidenceProfile(n=5, d=16, t={3: 2, 4: 8})
        # Hashable, in agreement with ==.
        same = IncidenceProfile(4, 16, {4: 8, 3: 2})
        other = IncidenceProfile(4, 16, {3: 2})
        assert hash(p) == hash(same)
        assert {p, same, other} == {p, other} and len({p, same, other}) == 2
        assert {p: 1, other: 2}[same] == 1

    def test_copies_rebuild(self):
        p = schur_profile()
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and list(q.t.items()) == list(p.t.items())
        assert dataclasses.replace(p, d=65) == IncidenceProfile(4, 65, p.t)


@st.composite
def profiles_from_descending_dicts(draw):
    """A profile built from a dict whose keys come in decreasing k, and that dict."""
    counts = draw(st.dictionaries(st.integers(2, 7), st.integers(0, 40), max_size=6))
    counts = dict(sorted(counts.items(), reverse=True))
    weight = sum((k * k - k) * c for k, c in counts.items())
    d = max(counts, default=0)
    while d * (d - 1) < weight:
        d += 1
    d += draw(st.integers(0, 3))
    return IncidenceProfile(draw(st.integers(3, 6)), d, counts), counts


class TestOneSource:
    """s, the values view and the t-vector text all read the profile's own t."""

    @given(profiles_from_descending_dicts(), st.data())
    def test_s_and_values_read_t(self, built, data):
        p, counts = built
        nonzero = sorted((k, c) for k, c in counts.items() if c)
        rows = [p, p._with_t2(0), p._with_t2(data.draw(st.integers(0, p.t2)))]
        if p.t2:
            rows.append(p._with_t2(p.t2))
        for q in rows:
            items = list(q.t.items())
            assert q.s == sum(c for _, c in items)
            assert list(q.t.values()) == [c for _, c in items]
            assert t_vector_str(q.t) == ";".join(f"{k}:{c}" for k, c in sorted(items))
        assert p.s == sum(c for _, c in nonzero)
        assert t_vector_str(p.t) == ";".join(f"{k}:{c}" for k, c in nonzero)


class TestWithT2:
    """A profile with t_2 lowered, built without ``__init__`` but range-checked."""

    @pytest.mark.parametrize(
        "p",
        [schur_profile(), IncidenceProfile(4, 10, {2: 5, 3: 2})],
        ids=["schur", "d10"],
    )
    def test_equals_a_validated_build(self, p):
        before = list(p.t.items())
        for t2 in range(p.t2 + 1):
            q = p._with_t2(t2)
            built = IncidenceProfile(p.n, p.d, {**p.t, 2: t2})
            assert q == built and hash(q) == hash(built)
            assert list(q.t.items()) == list(built.t.items())
            assert list(q.t) == sorted(q.t) and (2 in q.t) == (t2 > 0)
            assert q.t == dict(built.t.items()) and repr(q) == repr(built)
            assert q.t._tail is p.t._tail  # the run's tail is shared, not copied
        assert list(p.t.items()) == before

    def test_frozen_and_copies(self):
        q = schur_profile()._with_t2(7)
        assert not hasattr(q, "__dict__")
        for name in ("t", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(q, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(q, name)
        for r in (copy.copy(q), pickle.loads(pickle.dumps(q))):
            assert r == q == IncidenceProfile(4, 64, {2: 7, 3: 64, 4: 8})

    @pytest.mark.parametrize("p", [schur_profile(), IncidenceProfile(4, 16, {4: 8})])
    def test_bad_t2_raises(self, p):
        for bad in (p.t2 + 1, -1, True, 1.0):
            with pytest.raises(ProfileError, match="t_2"):
                p._with_t2(bad)
        assert p._with_t2(0) == IncidenceProfile(p.n, p.d, {**p.t, 2: 0})

    def test_slots_read_back(self):
        p = IncidenceProfile(5, 20, {2: 9, 3: 4, 5: 1})
        q = p._with_t2(3)
        assert type(q) is IncidenceProfile
        for name in ("n", "d", "t"):
            slot = getattr(IncidenceProfile, name)
            assert getattr(q, name) == slot.__get__(q, IncidenceProfile)
        assert (q.n, q.d, q.t) == (5, 20, {2: 3, 3: 4, 5: 1})

    def test_error_names_the_range_without_key_2(self):
        with pytest.raises(ProfileError, match=r"^t_2 = 1 is not an integer in 0\.\.0$"):
            IncidenceProfile(4, 16, {4: 8})._with_t2(1)


class TestFermatLines:
    @pytest.mark.parametrize("n,count", [(3, 27), (4, 48)])
    def test_counts(self, n, count, fermat_arrs):
        assert fermat_arrs[n].d == count == 3 * n * n

    def test_n5_all_on_surface(self, fermat_arrs):
        arr = fermat_arrs[5]
        assert arr.d == 75
        assert all(on_surface(line, 5) for line in arr.lines)

    def test_distinctness(self, fermat_arrs):
        for n, arr in fermat_arrs.items():
            assert len(set(arr.lines)) == 3 * n * n

    def test_deterministic_construction(self):
        a = fermat_lines(3)
        b = fermat_lines(3)
        assert a.lines == b.lines

    def test_degree_floor(self):
        with pytest.raises(ValueError):
            fermat_lines(2)


class TestOnSurface:
    def test_fermat_family_line(self, fermat_arrs):
        assert on_surface(fermat_arrs[3].lines[0], 3)

    def test_coordinate_axis_not_on_cubic(self):
        from linesurf.projgeom import ProjLine, ProjPoint

        axis = ProjLine(
            ProjPoint.from_values(6, (1, 0, 0, 0)),
            ProjPoint.from_values(6, (0, 1, 0, 0)),
        )
        assert not on_surface(axis, 3)

    def test_all_quartic_lines(self, fermat_arrs):
        assert all(on_surface(line, 4) for line in fermat_arrs[4].lines)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_secant_through_two_surface_points(self, n):
        # p and q lie on the surface, but F(p + q) = (1 + zeta)^n is not zero,
        # so a test that sampled only the base points would accept this line
        from linesurf.exactnum import CycloNum, zeta
        from linesurf.projgeom import ProjLine, ProjPoint

        z, one, zero = zeta(2 * n), CycloNum.one(2 * n), CycloNum.zero(2 * n)
        p, q = ProjPoint((z, one, zero, zero)), ProjPoint((zero, z, one, zero))
        for point in (p, q):
            assert sum((c**n for c in point.coords), zero).is_zero()
        assert not on_surface(ProjLine(p, q), n)


class TestProfiles:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (3, {2: 81, 3: 18}),
            (4, {2: 192, 4: 24}),
            (5, {2: 375, 5: 30}),
        ],
    )
    def test_fermat_profile(self, n, expected):
        p = fermat_profile(n)
        assert p.d == 3 * n * n
        assert p.t == expected

    @pytest.mark.parametrize("n,d,t2", [(6, 28, 52), (7, 39, 74)])
    def test_rams_profile(self, n, d, t2):
        p = rams_profile(n)
        assert (p.d, p.t) == (d, {2: t2})

    @pytest.mark.parametrize("n", range(6, 20))
    def test_rams_grid_self_check(self, n):
        # two horizontals crossing each of the n(n-2)+2 verticals
        assert rams_profile(n).t[2] == 2 * (n * (n - 2) + 2)

    def test_rams_degree_floor(self):
        with pytest.raises(ValueError):
            rams_profile(5)

    def test_schur_profile(self):
        p = schur_profile()
        assert (p.n, p.d, p.t) == (4, 64, {2: 336, 3: 64, 4: 8})
        assert p.s == 408
        assert incidence_count(p) == 1152 == 64 * 18

    def test_schur_bad_variant_breaks_valency(self):
        from linesurf.incidence import valency_consistent

        bad = IncidenceProfile(n=4, d=64, t={2: 192, 3: 64, 4: 8})
        assert not valency_consistent(bad, 18)

    @pytest.mark.parametrize("t3,t2", [(18, 81), (0, 135), (10, 105)])
    def test_cubic_profile(self, t3, t2):
        p = cubic_profile(t3)
        assert p.t.get(2, 0) == t2
        assert p.t.get(3, 0) == t3

    def test_cubic_identity_everywhere(self):
        for t3 in ECKARDT_COUNTS:
            p = cubic_profile(t3)
            assert p.t.get(2, 0) + 3 * p.t.get(3, 0) == 135

    def test_cubic_t18_matches_fermat(self):
        assert cubic_profile(18) == fermat_profile(3)

    def test_cubic_range(self):
        with pytest.raises(ValueError):
            cubic_profile(19)
        with pytest.raises(ValueError):
            cubic_profile(-1)

    def test_cubic_accepts_only_counts_that_exist(self):
        accepted = []
        for t3 in range(-1, 20):
            try:
                cubic_profile(t3)
            except ProfileError:
                continue
            accepted.append(t3)
        assert tuple(accepted) == ECKARDT_COUNTS


class TestNamed:
    @pytest.mark.parametrize("name", [name for name, e in NAMED.items() if e.lines])
    @pytest.mark.parametrize("n", range(3, 6))
    def test_lines_scan_to_the_profile(self, name, n):
        entry = NAMED[name]
        assert profile_from_arrangement(entry.lines(n)) == entry.profile(n)


class TestMaxLinesBound:
    @pytest.mark.parametrize("n,bound", [(3, 27), (4, 64), (6, 180)])
    def test_values(self, n, bound):
        assert max_lines_bound(n) == bound

    def test_cataloged_profiles_respect_bound(self):
        profiles = [fermat_profile(n) for n in range(3, 12)]
        profiles += [rams_profile(n) for n in range(6, 12)]
        profiles += [schur_profile()] + [cubic_profile(t) for t in ECKARDT_COUNTS]
        for p in profiles:
            assert p.d <= max_lines_bound(p.n)
            pair_weight = sum((k * k - k) * c for k, c in p.t.items())
            assert pair_weight <= p.d * (p.d - 1)

    @pytest.mark.parametrize("n", (4, 5))
    def test_loader_and_search_share_one_rule(self, n, tmp_path):
        bound = n * (7 * n - 12)
        message = f"d = {bound + 1} exceeds the line-count bound n(7n-12) = {bound} for degree {n}"
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"n": n, "d": bound + 1, "t": {}}))
        with pytest.raises(SchemaError) as loaded:
            load_custom_profile(str(path))
        assert str(loaded.value) == f"{path}: {message}"
        with pytest.raises(ProfileError) as searched:
            extremal_profile_search(n, bound + 1, 2, limit=1)
        assert str(searched.value) == message
        with pytest.raises(ProfileError) as checked:
            check_line_count(n, bound + 1)
        assert str(checked.value) == message

        assert check_line_count(n, bound) == bound
        path.write_text(json.dumps({"n": n, "d": bound, "t": {}}))
        assert load_custom_profile(str(path)) == IncidenceProfile(n, bound)
        [(row, _)] = extremal_profile_search(n, bound, 2, limit=1)
        assert row.d == bound


class TestArrangement:
    def test_duplicate_lines_rejected(self, fermat_arrs):
        lines = fermat_arrs[3].lines
        with pytest.raises(ProfileError):
            Arrangement(3, lines[:5] + (lines[0],))


class TestRefusals:
    @pytest.mark.parametrize(
        "build,error,message",
        [
            pytest.param(
                lambda: Arrangement(2, ()),
                ProfileError,
                "surface degree n must be an integer >= 3",
                id="arrangement-degree",
            ),
            pytest.param(
                lambda: Arrangement(4, (fermat_lines(4).lines[0], fermat_lines(3).lines[0])),
                ConductorMismatch,
                r"cannot combine Q\(zeta_8\) with Q\(zeta_6\)",
                id="arrangement-conductors",
            ),
            pytest.param(
                lambda: max_lines_bound(2),
                ProfileError,
                "surface degree n must be an integer >= 3",
                id="line-count-degree",
            ),
            pytest.param(
                lambda: fermat_profile(2),
                ProfileError,
                "surface degree n must be an integer >= 3",
                id="fermat-profile-degree",
            ),
            pytest.param(
                lambda: rams_profile(5),
                ProfileError,
                "the Rams grid configuration requires degree n >= 6",
                id="rams-profile-degree",
            ),
            pytest.param(
                lambda: cubic_profile(5),
                ProfileError,
                "the number of Eckardt points must be one of 0, 1, 2, 3, 4, 6, 9, 10, 18",
                id="cubic-profile-eckardt",
            ),
        ],
    )
    def test_refused(self, build, error, message):
        with pytest.raises(error, match=f"^{message}$") as refused:
            build()
        assert refused.type is error
