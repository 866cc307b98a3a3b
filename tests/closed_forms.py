"""Closed-form H_L of the cataloged families, written out by hand.

Independent oracles for the tests: each is a formula in its parameter,
derived from the family's incidences, and never calls the library.
"""

from fractions import Fraction


def fermat_h_closed(n: int) -> Fraction:
    """H_L of the Fermat configuration in closed form, -3n^2/(n^2+2); limit -3."""
    if n < 3:
        raise ValueError("fermat_h_closed requires degree n >= 3")
    return Fraction(-3 * n * n, n * n + 2)


def rams_h_closed(n: int) -> Fraction:
    """H_L of the Rams grid in closed form, -n^3/(2n^2-4n+4); unbounded below."""
    if n < 6:
        raise ValueError("rams_h_closed requires degree n >= 6")
    return Fraction(-(n**3), 2 * n * n - 4 * n + 4)


#: The Eckardt counts that smooth cubic surfaces have (Segre; Dolgachev,
#: Classical Algebraic Geometry): 18 on the Fermat cubic, 10 on Clebsch's.
ECKARDT_COUNTS = (0, 1, 2, 3, 4, 6, 9, 10, 18)


def cubic_h(t: int) -> Fraction:
    """H_L of the 27-line cubic configuration with t triple points: (-297+3t)/(135-2t).

    The formula is written for every t in 0..18; only the ECKARDT_COUNTS occur.
    """
    if not 0 <= t <= 18:
        raise ValueError("the number of triple points on a cubic lies in 0..18")
    return Fraction(-297 + 3 * t, 135 - 2 * t)
