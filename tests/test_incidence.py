from dataclasses import replace
from fractions import Fraction

import pytest

from linesurf.catalog import (
    Arrangement,
    IncidenceProfile,
    fermat_lines,
    fermat_profile,
    schur_profile,
)
from linesurf.exactnum import CycloNum, residue_field
from linesurf.incidence import (
    ScanStats,
    incidence_count,
    profile_from_arrangement,
    scan_arrangement,
    singular_points,
    valency_consistent,
    verify_identities,
)
from linesurf.projgeom import ProjPoint, line_through, point_on_line
from linesurf.serialize import scan_json


def simple_arrangement(point_pairs, n=4, m=8):
    lines = [
        line_through(ProjPoint.from_values(m, a), ProjPoint.from_values(m, b))
        for a, b in point_pairs
    ]
    return Arrangement(n, tuple(lines))


class TestSingularPoints:
    def test_two_skew_lines(self):
        arr = simple_arrangement(
            [((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 0, 0, 1))]
        )
        assert singular_points(arr) == ()

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

    def test_every_listed_line_passes_through(self, fermat_arrs, fermat_scans):
        arr = fermat_arrs[3]
        for sp in fermat_scans[3].points:
            assert sp.multiplicity == len(sp.lines) >= 2
            for idx in sp.lines:
                assert point_on_line(sp.location, arr.lines[idx])

    def test_deterministic_and_thread_independent(self, fermat_arrs):
        arr = fermat_arrs[3]
        base = scan_arrangement(arr)
        again = scan_arrangement(arr)
        assert base == again


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


class TestVerifyIdentities:
    def test_fermat_cubic(self, fermat_scans):
        report = verify_identities(fermat_scans[3])
        assert report.ok
        mult_sum = next(c for c in report.checks if c.name == "multiplicity_sum")
        assert mult_sum.lhs == 2 * 81 + 3 * 18 == 216

    def test_two_concurrent_lines(self):
        arr = simple_arrangement(
            [((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 0, 1, 0))]
        )
        report = verify_identities(scan_arrangement(arr))
        assert report.ok
        points = next(c for c in report.checks if c.name == "point_count")
        pairs = next(c for c in report.checks if c.name == "meeting_pairs")
        assert points.lhs == 1
        assert pairs.lhs == 1

    def test_fermat_quartic_pair_count(self, fermat_scans):
        meeting = fermat_scans[4].meeting_pairs
        assert meeting == 192 * 1 + 24 * 6 == 336


def moved(arr, matrix):
    """The arrangement with both base points of every line multiplied by ``matrix``."""
    m = arr.conductor

    def move(pt):
        return ProjPoint(
            [sum((x * c for c, x in zip(row, pt.coords)), CycloNum.zero(m)) for row in matrix]
        )

    return Arrangement(arr.n, tuple(line_through(*map(move, line.base)) for line in arr.lines))


# Determinant 1, so the moved quartic is projectively equivalent to Fermat's.
MOVE = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 2))


def incidences(scan):
    """The line sets of the singular points: invariant under a projective motion."""
    return sorted(sp.lines for sp in scan.points)


def scan_with_residue(monkeypatch, arr, value):
    """Scan with every residue forced to ``value``: 0 or None both defeat the filter."""
    with monkeypatch.context() as patch:
        patch.setattr(CycloNum, "residue", lambda self: value)
        return scan_arrangement(arr)


@pytest.fixture(scope="module")
def moved_quartic():
    arr = moved(fermat_lines(4), MOVE)
    return arr, scan_arrangement(arr)


class TestModularFilter:
    """The filter only skips exact tests whose answer a residue has proved."""

    @pytest.mark.parametrize(
        "n,forced", [(n, 0) for n in (3, 4, 5, 6)] + [(n, None) for n in (3, 4)]
    )
    def test_fermat_scan_unchanged_without_filter(
        self, monkeypatch, fermat_arrs, fermat_scans, n, forced
    ):
        arr = fermat_arrs[n]
        exact = scan_with_residue(monkeypatch, arr, forced)
        assert exact == fermat_scans[n]
        assert exact.tally() == fermat_profile(n).t
        assert exact.stats.on_line_tests == exact.stats.points * arr.d

    @pytest.mark.parametrize("forced", (0, None))
    def test_moved_quartic_unchanged_without_filter(
        self, monkeypatch, moved_quartic, fermat_scans, forced
    ):
        arr, filtered = moved_quartic
        coeffs = [c for line in arr.lines for pt in line.base for x in pt.coords for c in x.coeffs]
        assert any(type(c) is Fraction for c in coeffs)
        # The residues rule out every line but the incident ones.
        assert filtered.stats.on_line_tests == sum(sp.multiplicity for sp in filtered.points)
        assert scan_with_residue(monkeypatch, arr, forced) == filtered
        assert incidences(filtered) == incidences(fermat_scans[4])

    def test_prime_in_a_denominator_takes_the_exact_path(self, fermat_scans):
        p, _ = residue_field(8)
        shear = ((1, 0, 0, 0), (0, 1, 0, 0), (Fraction(1, p), 0, 1, 0), (0, Fraction(1, p), 0, 1))
        arr = moved(fermat_lines(4), shear)
        assert any(c.residue() is None for line in arr.lines for c in line.plucker)
        scan = scan_arrangement(arr)
        assert any(c.residue() is None for sp in scan.points for c in sp.location.coords)
        assert incidences(scan) == incidences(fermat_scans[4])
        assert scan.tally() == fermat_profile(4).t


class TestScanStats:
    def test_fermat_octic_counts(self, fermat_scans):
        # pairs, meeting, on_line_tests, points
        assert fermat_scans[8].stats == (18336, 2880, 3456, 1584)

    def test_counters_repeat(self, fermat_arrs, fermat_scans):
        again = scan_arrangement(fermat_arrs[5])
        assert again.stats == fermat_scans[5].stats

    def test_outside_equality_and_json(self, fermat_scans):
        scan = fermat_scans[3]
        other = replace(scan, stats=ScanStats(0, 0, 0, 0))
        assert other == scan
        assert scan_json(other) == scan_json(scan)
        assert set(scan_json(scan)) == {"meeting_pairs", "points"}
