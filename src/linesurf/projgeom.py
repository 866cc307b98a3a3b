"""Exact projective geometry in P^3 over a cyclotomic field.

Points carry homogeneous coordinates normalized so the first nonzero
coordinate is 1; lines carry a base point pair, canonically scaled
Plucker coordinates, and the two linear forms cutting the line out.  All
predicates (canonical equality, point-on-line, meet-or-skew) are decided
by exact field arithmetic, never by tolerances.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .exactnum import ConductorMismatch, CycloNum, Scalar

#: Index order of the six Plucker coordinates.
PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _same_conductor(values: Sequence[CycloNum]) -> int:
    m = values[0].m
    for v in values[1:]:
        if v.m != m:
            raise ConductorMismatch("coordinates must share one conductor")
    return m


class ProjPoint:
    """A point of P^3 with canonical homogeneous cyclotomic coordinates.

    The constructor scales the input by the inverse of its first nonzero
    coordinate, so equal points always have equal coordinate vectors.
    """

    __slots__ = ("coords",)

    coords: tuple[CycloNum, CycloNum, CycloNum, CycloNum]

    def __init__(self, coords: Iterable[CycloNum]):
        coords = tuple(coords)
        if len(coords) != 4:
            raise ValueError("a point of P^3 needs exactly 4 coordinates")
        _same_conductor(coords)
        lead = next((c for c in coords if not c.is_zero()), None)
        if lead is None:
            raise ValueError("homogeneous coordinates cannot all be zero")
        if lead == 1:
            self.coords = coords
        else:
            inv = lead.inverse()
            self.coords = tuple(c * inv for c in coords)

    @classmethod
    def from_values(cls, m: int, values: Iterable[Scalar | CycloNum]) -> "ProjPoint":
        """Build a point from ints / Fractions / CycloNums over conductor m."""
        coords = [
            v if isinstance(v, CycloNum) else CycloNum.rational(m, v) for v in values
        ]
        return cls(coords)

    @property
    def conductor(self) -> int:
        return self.coords[0].m

    def sort_key(self):
        """Deterministic total order on canonical coordinates."""
        return (self.conductor,) + tuple(c.coeffs for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __str__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"

    def __repr__(self) -> str:
        return f"ProjPoint{self!s}"

    def to_json(self) -> list:
        return [c.to_json() for c in self.coords]

    @classmethod
    def from_json(cls, obj: list) -> "ProjPoint":
        return cls([CycloNum.from_json(c) for c in obj])


# ---------------------------------------------------------------------------
# Exact linear algebra over the field (small dense systems only).


def _rref(rows: list[list[CycloNum]]) -> tuple[list[list[CycloNum]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [c * inv for c in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _nullspace(rows: list[Sequence[CycloNum]], m: int) -> list[tuple[CycloNum, ...]]:
    """Canonical basis of the solution space of rows * x = 0 in K^4."""
    reduced, pivots = _rref([list(r) for r in rows])
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    one = CycloNum.one(m)
    zero = CycloNum.zero(m)
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(tuple(vec))
    return basis


class ProjLine:
    """A line of P^3: two distinct base points plus derived exact data.

    ``plucker`` holds the six coordinates (p01, p02, p03, p12, p13, p23),
    scaled so the first nonzero one is 1; equal lines always have equal
    Plucker vectors no matter which point pair produced them.  ``forms``
    holds the canonical basis of the two linear forms vanishing on the
    line (the reduced row echelon nullspace of the base-point matrix),
    which makes membership tests and intersections plain linear algebra.
    """

    __slots__ = ("base", "plucker", "forms")

    def __init__(self, p: ProjPoint, q: ProjPoint):
        if p.conductor != q.conductor:
            raise ConductorMismatch("base points must share one conductor")
        if p == q:
            raise ValueError("a line needs two distinct points")
        m = p.conductor
        a, b = p.coords, q.coords
        raw = [a[i] * b[j] - a[j] * b[i] for i, j in PLUCKER_PAIRS]
        lead = next(c for c in raw if not c.is_zero())
        if lead != 1:
            inv = lead.inverse()
            raw = [c * inv for c in raw]
        plucker = tuple(raw)
        rel = plucker[0] * plucker[5] - plucker[1] * plucker[4] + plucker[2] * plucker[3]
        if not rel.is_zero():
            raise AssertionError("Plucker relation violated; construction bug")
        self.base = (p, q)
        self.plucker = plucker
        self.forms = tuple(_nullspace([a, b], m))

    @property
    def conductor(self) -> int:
        return self.base[0].conductor

    def sort_key(self):
        return (self.conductor,) + tuple(c.coeffs for c in self.plucker)

    def __eq__(self, other):
        if not isinstance(other, ProjLine):
            return NotImplemented
        return self.plucker == other.plucker

    def __hash__(self):
        return hash(self.plucker)

    def __str__(self) -> str:
        return f"line {self.base[0]!s} .. {self.base[1]!s}"

    def __repr__(self) -> str:
        return f"ProjLine({self.base[0]!r}, {self.base[1]!r})"

    def to_json(self) -> dict:
        return {
            "points": [pt.to_json() for pt in self.base],
            "plucker": [c.to_json() for c in self.plucker],
        }


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """The unique line through two distinct points."""
    return ProjLine(p, q)


def _dot(u: Sequence[CycloNum], v: Sequence[CycloNum]) -> Optional[CycloNum]:
    acc = None
    for a, b in zip(u, v):
        if a.is_zero() or b.is_zero():
            continue
        term = a * b
        acc = term if acc is None else acc + term
    return acc


def point_on_line(pt: ProjPoint, line: ProjLine) -> bool:
    """Exact membership test: both defining forms vanish at the point."""
    if pt.conductor != line.conductor:
        raise ConductorMismatch("point and line must share one conductor")
    for form in line.forms:
        acc = _dot(form, pt.coords)
        if acc is not None and not acc.is_zero():
            return False
    return True


def plucker_pairing(a: ProjLine, b: ProjLine) -> CycloNum:
    """The bilinear pairing that vanishes exactly when two lines meet."""
    pa, pb = a.plucker, b.plucker
    return (
        pa[0] * pb[5]
        - pa[1] * pb[4]
        + pa[2] * pb[3]
        + pa[5] * pb[0]
        - pa[4] * pb[1]
        + pa[3] * pb[2]
    )


def line_intersection(a: ProjLine, b: ProjLine) -> Optional[ProjPoint]:
    """The common point of two distinct lines, or None if they are skew.

    Coplanarity is decided by the Plucker pairing; for coplanar distinct
    lines the stacked 4x4 system of both lines' defining forms has a
    one-dimensional solution space, which is the intersection point.
    """
    if a == b:
        raise ValueError("line_intersection requires two distinct lines")
    if not plucker_pairing(a, b).is_zero():
        return None
    m = a.conductor
    solutions = _nullspace([*a.forms, *b.forms], m)
    if len(solutions) != 1:
        raise AssertionError("distinct coplanar lines must meet in exactly one point")
    return ProjPoint(solutions[0])
