import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from conftest import MOVE, moved
from hypothesis import given
from hypothesis import strategies as st

from linesurf import exactnum, incidence, projgeom, serialize
from linesurf.catalog import (
    Arrangement,
    IncidenceProfile,
    fermat_lines,
    fermat_profile,
    schur_profile,
)
from linesurf.exactnum import CycloNum, cyclotomic_polynomial, residue_field
from linesurf.incidence import (
    ScanStats,
    incidence_count,
    profile_from_arrangement,
    scan_arrangement,
    valency_consistent,
)
from linesurf.projgeom import ProjLine, ProjPoint, line_intersection, point_on_line
from linesurf.serialize import arrangement_json, load_custom_lines, scan_json


def simple_arrangement(point_pairs, n=4, m=8):
    lines = [
        ProjLine(ProjPoint.from_values(m, a), ProjPoint.from_values(m, b))
        for a, b in point_pairs
    ]
    return Arrangement(n, tuple(lines))


class TestSingularPoints:
    def test_two_skew_lines(self):
        arr = simple_arrangement(
            [((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 0, 0, 1))]
        )
        assert scan_arrangement(arr).points == ()

    def test_fermat_cubic_counts(self, fermat_scans):
        points = fermat_scans[3].points
        assert len(points) == 99
        by_mult = {}
        for sp in points:
            by_mult[sp.multiplicity] = by_mult.get(sp.multiplicity, 0) + 1
        assert by_mult == {2: 81, 3: 18}

    def test_fermat_quartic_counts(self, fermat_scans):
        points = fermat_scans[4].points
        assert len(points) == 216
        by_mult = {}
        for sp in points:
            by_mult[sp.multiplicity] = by_mult.get(sp.multiplicity, 0) + 1
        assert by_mult == {2: 192, 4: 24}

    def test_fermat_quartic_pair_count(self, fermat_scans):
        meeting = fermat_scans[4].meeting_pairs
        assert meeting == 192 * 1 + 24 * 6 == 336

    def test_every_fermat_line_meets_the_same_number(self, fermat_scans):
        assert fermat_scans[3].valencies(27) == [10] * 27  # the 27 lines of a cubic
        assert fermat_scans[4].valencies(48) == [14] * 48  # 2 * 336 incidences over 48

    def test_every_listed_line_passes_through(
        self, fermat_arrs, fermat_scans, moved_quartic, shear_quartic
    ):
        # Brute-force recount: a point's lines are exactly the lines through it.
        cases = [(fermat_arrs[n], fermat_scans[n]) for n in (3, 4)]
        for arr, scan in cases + [moved_quartic, shear_quartic]:
            assert scan.points
            for sp in scan.points:
                assert sp.multiplicity == len(sp.lines) >= 2
                through = [k for k, line in enumerate(arr.lines) if point_on_line(sp.location, line)]
                assert through == list(sp.lines)

    @pytest.mark.parametrize("wrong", ("skew", "elsewhere"))
    def test_missed_or_misplaced_meeting_fails_the_pair_count(
        self, monkeypatch, fermat_arrs, fermat_scans, wrong
    ):
        # One pair (b, c) of a triple point {a, b, c}: reported skew, its
        # point has one pair too few; reported elsewhere, a double point
        # splits off.  Either way the pair count disagrees.
        arr = fermat_arrs[3]
        triple = next(sp for sp in fermat_scans[3].points if sp.multiplicity == 3)
        a, b, c = (arr.lines[k] for k in triple.lines)
        if wrong == "skew":
            answer = None
        else:
            answer = ProjPoint.from_values(6, (1, 2, 3, 5))
            assert all(not point_on_line(answer, line) for line in (a, b, c))
        meet = incidence.line_intersection
        monkeypatch.setattr(
            incidence,
            "line_intersection",
            lambda x, y: answer if {x, y} == {b, c} else meet(x, y),
        )
        with pytest.raises(AssertionError, match="pair scan and per-point multiplicities disagree"):
            scan_arrangement(arr)

    def test_deterministic_and_thread_independent(self, fermat_arrs):
        arr = fermat_arrs[3]
        base = scan_arrangement(arr)
        again = scan_arrangement(arr)
        assert base == again

    @pytest.mark.parametrize(
        "n,digest",
        [
            (3, "bbf817e5c1097f4e335debf5279a03c5ca060ad0606f56415ce9e84782176511"),
            (4, "860efd4f7ffbc99136d4c6c5c72e915154b0b6bd859a76f684cf3691dbde3c54"),
            (5, "034835c04bea6cdcbab8848ddd62afa3573eec0d21506145b648e5c41cff6130"),
            (6, "85df08a3cdc0bdcce00c922285b831a1cd07e3dac624e995b70ccf05abe88c52"),
            (7, "ef3c87519f9cb57d7b2d16742bd630b5694041b3e02b7678862e569b64128064"),
            (8, "66d9e9a1ae4543b13c730c07b7abd3fb5d702c47383394c14791a6aceb08a166"),
            # Fixtures with non-integral coordinates: scan_json, then arrangement_json.
            pytest.param(
                "moved_quartic",
                (
                    "b27d6329d0fb5f102dd882ae2c189120d231f717303e607cdf190d931a9aa7e3",
                    "cce166638fcec13b45a09b1877a6cc470bcf12ce932654f574c907a6d3201765",
                ),
                id="moved_quartic",
            ),
            pytest.param(
                "shear_quartic",
                (
                    "f875471ffc91463a09979640fdfb9916b6970205c47e03858073fbcd4eed0129",
                    "e2d6174d7d42ae10ec5403799f71f78c36bcff4956dfd53a50fd2554b7e77a45",
                ),
                id="shear_quartic",
            ),
        ],
    )
    def test_scan_json_bytes_pinned(self, request, fermat_scans, n, digest):
        if isinstance(n, int):
            docs, digests = [scan_json(fermat_scans[n])], [digest]
        else:
            arr, scan = request.getfixturevalue(n)
            docs, digests = [scan_json(scan), arrangement_json(arr)], list(digest)
        texts = [json.dumps(doc, sort_keys=True) for doc in docs]
        assert [hashlib.sha256(text.encode()).hexdigest() for text in texts] == digests


class TestProfileFromArrangement:
    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_matches_closed_formulas(self, n, fermat_arrs):
        # the central brute-force oracle against the catalog formulas
        assert profile_from_arrangement(fermat_arrs[n]) == fermat_profile(n)

    def test_skew_pair_profile(self):
        arr = simple_arrangement(
            [((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 0, 0, 1))]
        )
        p = profile_from_arrangement(arr)
        assert (p.d, p.t) == (2, {})


class TestIncidenceCount:
    def test_schur(self):
        assert incidence_count(schur_profile()) == 1152

    def test_single_double_point(self):
        assert incidence_count(IncidenceProfile(n=4, d=2, t={2: 1})) == 2

    @pytest.mark.parametrize("n", range(3, 9))
    def test_fermat_closed_form(self, n):
        assert incidence_count(fermat_profile(n)) == 12 * n**3 - 6 * n**2


class TestValency:
    def test_schur_valency_18(self):
        assert valency_consistent(schur_profile(), 18)

    def test_bad_double_count_fails(self):
        bad = IncidenceProfile(n=4, d=64, t={2: 192, 3: 64, 4: 8})
        assert not valency_consistent(bad, 18)

    def test_two_concurrent_lines(self):
        assert valency_consistent(IncidenceProfile(n=4, d=2, t={2: 1}), 1)


def incidences(scan):
    """The line sets of the singular points: invariant under a projective motion."""
    return sorted(sp.lines for sp in scan.points)


UNFORCED = object()


def scan_with_residue(monkeypatch, arr, value=UNFORCED):
    """Rebuild and scan ``arr`` with every residue forced to ``value``.

    A line reduces its Plucker coordinates at construction, so the lines
    are rebuilt inside the patch.  0 or None both defeat every residue
    decision.  Returns the scan and the line pairs that took an exact
    Plucker pairing.
    """
    pairings = []
    pairing = projgeom.plucker_pairing
    with monkeypatch.context() as patch:
        patch.setattr(projgeom, "plucker_pairing", lambda a, b: pairings.append((a, b)) or pairing(a, b))
        if value is not UNFORCED:
            patch.setattr(CycloNum, "residue", lambda self: value)
        rebuilt = Arrangement(arr.n, tuple(ProjLine(*line.base) for line in arr.lines))
        return scan_arrangement(rebuilt), pairings


class TestModularFilter:
    """The filters only skip exact work whose answer a residue has proved."""

    @pytest.mark.parametrize(
        "n,forced",
        [(n, UNFORCED) for n in (3, 4, 5, 6)]
        + [(n, 0) for n in (3, 4, 5, 6)]
        + [(n, None) for n in (3, 4)],
    )
    def test_fermat_scan_unchanged_without_filter(
        self, monkeypatch, fermat_arrs, fermat_scans, n, forced
    ):
        arr = fermat_arrs[n]
        exact, pairings = scan_with_residue(monkeypatch, arr, forced)
        assert exact == fermat_scans[n]
        assert exact.tally() == fermat_profile(n).t
        stats = exact.stats
        assert stats == fermat_scans[n].stats
        if forced is UNFORCED:
            assert pairings == []
        else:
            assert len(pairings) == stats.pairs - stats.meeting

    @pytest.mark.parametrize("forced", (0, None))
    def test_moved_quartic_unchanged_without_filter(
        self, monkeypatch, moved_quartic, fermat_scans, forced
    ):
        arr, filtered = moved_quartic
        coeffs = [c for line in arr.lines for pt in line.base for x in pt.coords for c in x.coeffs]
        assert any(type(c) is Fraction for c in coeffs)
        exact, pairings = scan_with_residue(monkeypatch, arr, forced)
        assert exact == filtered
        stats = exact.stats
        assert stats == filtered.stats == fermat_scans[4].stats
        assert len(pairings) == stats.pairs - stats.meeting
        assert incidences(filtered) == incidences(fermat_scans[4])

    def test_prime_in_a_denominator_takes_the_exact_path(self, fermat_scans, shear_quartic):
        arr, scan = shear_quartic
        assert any(line.residues is None for line in arr.lines)
        assert any(c.residue() is None for sp in scan.points for c in sp.location.coords)
        assert incidences(scan) == incidences(fermat_scans[4])
        assert scan.tally() == fermat_profile(4).t

    def test_small_prime_zero_residues_fall_back_to_exact(
        self, monkeypatch, moved_quartic, fermat_arrs, fermat_scans
    ):
        # In F_17, 2 has order 8, so zeta_8 -> 2 is a residue map.  No skew
        # pairing of the quartic, moved by MOVE or not, is zero mod 17.  A
        # motion of determinant 17 multiplies every pairing by 17, so each
        # skew pair has a zero residue and must take the exact pairing.
        arr17 = moved(fermat_lines(4), MOVE[:3] + ((1, 0, 0, 18),))
        scan17 = scan_arrangement(arr17)
        assert incidences(scan17) == incidences(fermat_scans[4])
        cases = (
            (fermat_arrs[4], fermat_scans[4], 0),
            (*moved_quartic, 0),
            (arr17, scan17, scan17.stats.pairs - scan17.stats.meeting),
        )
        field = exactnum.residue_field
        monkeypatch.setattr(exactnum, "residue_field", lambda m: (17, 2) if m == 8 else field(m))
        exactnum._residue_powers.cache_clear()
        try:
            for arr, default, fallbacks in cases:
                scan, pairings = scan_with_residue(monkeypatch, arr)
                assert scan == default
                certified = [(a, b) for a, b in pairings if None not in (a.residues, b.residues)]
                assert len(certified) == fallbacks
                assert all(line_intersection(a, b) is None for a, b in certified)
        finally:
            monkeypatch.undo()
            exactnum._residue_powers.cache_clear()
        assert exactnum._residue_powers(8)[0] == residue_field(8)[0] > 2**61


class TestScanStats:
    def test_fermat_octic_counts(self, fermat_scans):
        # pairs, meeting, points
        assert fermat_scans[8].stats == (18336, 2880, 1584)

    def test_counters_repeat(self, fermat_arrs, fermat_scans):
        again = scan_arrangement(fermat_arrs[5])
        assert again.stats == fermat_scans[5].stats

    def test_outside_equality_and_json(self, fermat_scans):
        scan = fermat_scans[3]
        other = replace(scan, stats=ScanStats(0, 0, 0))
        assert other == scan
        assert scan_json(other) == scan_json(scan)
        assert set(scan_json(scan)) == {"meeting_pairs", "points"}


def rational_key(pt):
    """The order of the coordinates read as rationals, coefficient by coefficient."""
    return tuple(tuple(Fraction(x, c.den) for x in c.nums) for c in pt.coords)


@st.composite
def canonical_points(draw):
    """Points of one conductor with first nonzero coordinate 1, some repeated."""
    m = draw(st.sampled_from((4, 6, 8, 12)))
    dens = draw(st.sampled_from(((1,), (6,), (1, 2, 3, 4, 5, 7, 9, 11))))
    coeff = st.builds(Fraction, st.integers(-40, 40), st.sampled_from(dens))
    size = len(cyclotomic_polynomial(m)) - 1
    vector = st.lists(coeff, min_size=size, max_size=size)

    def point():
        zeros = draw(st.integers(0, 3))
        rest = [CycloNum(m, draw(vector)) for _ in range(3 - zeros)]
        return ProjPoint([CycloNum.zero(m)] * zeros + [CycloNum.one(m)] + rest)

    points = [point() for _ in range(draw(st.integers(0, 10)))]
    return points + points[: draw(st.integers(0, len(points)))]


class TestPointOrder:
    @given(canonical_points())
    def test_integer_key_orders_as_rationals(self, points):
        assert incidence._sorted_points(points) == sorted(points, key=rational_key)

    def test_scan_points_in_rational_order(self, fermat_scans, moved_quartic, shear_quartic):
        for scan in (fermat_scans[5], moved_quartic[1], shear_quartic[1]):
            locations = [sp.location for sp in scan.points]
            assert locations == sorted(locations, key=rational_key)

    def test_integer_lines_load_scan_and_serialize_without_fraction(
        self, monkeypatch, tmp_path, moved_quartic
    ):
        arr, scan = moved_quartic
        expected = json.dumps(scan_json(scan))
        # Each base point scaled to integer coefficients, written as strings.
        points = []
        for line in arr.lines:
            pair = []
            for pt in line.base:
                scale = lcm(*(c.den for c in pt.coords))
                pair.append(
                    [
                        {"m": c.m, "coeffs": [str(x * (scale // c.den)) for x in c.nums]}
                        for c in pt.coords
                    ]
                )
            points.append(pair)
        path = tmp_path / "moved.json"
        path.write_text(json.dumps({"n": arr.n, "lines": points}))

        class NoFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                raise AssertionError("a Fraction was built")

        for module in (exactnum, serialize):
            monkeypatch.setattr(module, "Fraction", NoFraction)
        loaded = load_custom_lines(str(path))
        again = scan_arrangement(loaded)
        assert json.dumps(scan_json(again)) == expected
        monkeypatch.undo()
        assert loaded == arr and again == scan
