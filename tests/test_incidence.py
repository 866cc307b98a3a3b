import pytest

from linesurf.catalog import Arrangement, IncidenceProfile, fermat_profile, schur_profile
from linesurf.incidence import (
    incidence_count,
    profile_from_arrangement,
    scan_arrangement,
    singular_points,
    valency_consistent,
    verify_identities,
)
from linesurf.projgeom import ProjPoint, line_through, point_on_line


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
