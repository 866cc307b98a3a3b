import pytest

from linesurf.harbourne import bauer_search, harbourne_linear
from linesurf.incidence import profile_from_arrangement, singular_points


class TestBauerSearch:
    def test_fermat_quartic_witness(self, fermat_arrs):
        solutions = bauer_search(fermat_arrs[4], 16)
        assert solutions
        chosen = solutions[0]
        assert len(chosen) == 16 and len(set(chosen)) == 16
        # re-analyze the witness from scratch through the incidence pipeline
        sub = fermat_arrs[4].subset(chosen)
        profile = profile_from_arrangement(sub)
        assert profile.t == {4: 8}
        assert harbourne_linear(profile) == -8
        for sp in singular_points(sub):
            assert sp.multiplicity == 4

    def test_all_solutions_deterministic(self, fermat_arrs):
        first = bauer_search(fermat_arrs[4], 16, max_solutions=None)
        second = bauer_search(fermat_arrs[4], 16, max_solutions=None)
        assert first == second
        assert len(first) >= 1
        for chosen in first:
            profile = profile_from_arrangement(fermat_arrs[4].subset(chosen))
            assert set(profile.t) == {4}

    def test_fermat_cubic_has_no_quadruple_points(self, fermat_arrs):
        assert bauer_search(fermat_arrs[3], 16) == []

    def test_size_two_impossible(self, fermat_arrs):
        assert bauer_search(fermat_arrs[4], 2) == []

    def test_size_floor(self, fermat_arrs):
        with pytest.raises(ValueError):
            bauer_search(fermat_arrs[4], 1)
