import pytest
from conftest import MOVE, moved

from linesurf.catalog import Arrangement, fermat_lines
from linesurf.harbourne import bauer_search, harbourne_linear
from linesurf.incidence import profile_from_arrangement, scan_arrangement


class TestBauerSearch:
    def test_fermat_quartic_witness(self, fermat_arrs):
        arr = fermat_arrs[4]
        solutions = bauer_search(scan_arrangement(arr), 16)
        assert solutions
        chosen = solutions[0]
        assert len(chosen) == 16 and len(set(chosen)) == 16
        # re-analyze the witness from scratch through the incidence pipeline
        sub = Arrangement(arr.n, [arr.lines[i] for i in chosen])
        profile = profile_from_arrangement(sub)
        assert profile.t == {4: 8}
        assert harbourne_linear(profile) == -8
        for sp in scan_arrangement(sub).points:
            assert sp.multiplicity == 4

    def test_all_solutions_deterministic(self, fermat_arrs):
        arr = fermat_arrs[4]
        first = bauer_search(scan_arrangement(arr), 16, max_solutions=None)
        second = bauer_search(scan_arrangement(arr), 16, max_solutions=None)
        assert first == second
        assert len(first) >= 1
        for chosen in first:
            profile = profile_from_arrangement(Arrangement(arr.n, [arr.lines[i] for i in chosen]))
            assert set(profile.t) == {4}

    def test_fermat_cubic_has_no_quadruple_points(self, fermat_scans):
        assert bauer_search(fermat_scans[3], 16) == []

    def test_size_two_impossible(self, fermat_scans):
        assert bauer_search(fermat_scans[4], 2) == []

    def test_size_floor(self, fermat_scans):
        with pytest.raises(ValueError):
            bauer_search(fermat_scans[4], 1)

    @pytest.mark.parametrize("max_solutions", (0, -3))
    def test_max_solutions_floor(self, fermat_scans, max_solutions):
        with pytest.raises(ValueError, match="max_solutions"):
            bauer_search(fermat_scans[4], 16, max_solutions=max_solutions)


class TestBauerSearchPinned:
    """Exact witness lists, so a rewrite of the search must reproduce them."""

    @pytest.mark.parametrize("size,count", ((4, 24), (8, 0), (12, 0), (16, 3), (20, 0), (24, 0)))
    def test_fermat_quartic_witness_counts(self, fermat_scans, size, count):
        assert len(bauer_search(fermat_scans[4], size, max_solutions=None)) == count

    def test_fermat_quartic_blocks(self, fermat_scans):
        blocks = [tuple(range(16 * b, 16 * b + 16)) for b in range(3)]
        assert bauer_search(fermat_scans[4], 16, max_solutions=None) == blocks
        # The first two witnesses in search order, then sorted.
        assert bauer_search(fermat_scans[4], 16, max_solutions=2) == [blocks[0], blocks[2]]
        assert bauer_search(fermat_scans[4], 16) == [blocks[0]]

    def test_moved_quartic_has_the_same_witnesses(self, fermat_scans):
        arr = moved(fermat_lines(4), MOVE)
        found = bauer_search(scan_arrangement(arr), 16, max_solutions=None)
        assert len(found) == 3
        assert found == bauer_search(fermat_scans[4], 16, max_solutions=None)
