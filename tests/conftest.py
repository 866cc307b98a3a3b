from fractions import Fraction

import pytest

from linesurf.catalog import Arrangement, IncidenceProfile, fermat_lines
from linesurf.exactnum import CycloNum, residue_field
from linesurf.incidence import scan_arrangement
from linesurf.projgeom import ProjPoint, line_through


@pytest.fixture(scope="session")
def fermat_arrs():
    """Explicit Fermat arrangements for the degrees the suite exercises."""
    return {n: fermat_lines(n) for n in (3, 4, 5, 6, 7, 8)}


@pytest.fixture(scope="session")
def fermat_scans(fermat_arrs):
    return {n: scan_arrangement(arr) for n, arr in fermat_arrs.items()}


@pytest.fixture(scope="session")
def fermat_brute_profiles(fermat_arrs, fermat_scans):
    """Profiles derived from the geometric scan, not from closed formulas."""
    return {
        n: IncidenceProfile(n=n, d=fermat_arrs[n].d, t=fermat_scans[n].tally())
        for n in fermat_arrs
    }


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


@pytest.fixture(scope="session")
def moved_quartic():
    arr = moved(fermat_lines(4), MOVE)
    return arr, scan_arrangement(arr)


@pytest.fixture(scope="session")
def shear_quartic():
    """The quartic sheared by 1/p, with p the residue prime: some residues are None."""
    p, _ = residue_field(8)
    shear = ((1, 0, 0, 0), (0, 1, 0, 0), (Fraction(1, p), 0, 1, 0), (0, Fraction(1, p), 0, 1))
    arr = moved(fermat_lines(4), shear)
    return arr, scan_arrangement(arr)
