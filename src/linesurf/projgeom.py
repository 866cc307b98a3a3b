"""Exact projective geometry in P^3 over a cyclotomic field.

Points carry homogeneous coordinates normalized so the first nonzero
coordinate is 1; lines carry a base point pair, their conductor,
canonically scaled Plucker coordinates, and two linear forms cutting the
line out, read off the dual Plucker matrix.  Meeting lines intersect in
a closed form built from one base point pair and one such form, so no
linear system is ever solved.  Canonical equality and point-on-line are
decided by exact field arithmetic, never by tolerances.  Meet-or-skew is
decided in two ways, both certified: a pair is proved skew by a nonzero
residue of its Plucker pairing in F_p (``exactnum.residue_field``),
before any exact comparison of the two lines, and proved to meet by one
form value.  For a = span(p, q) and b cut out by f and g, the point
X = f(q) p - f(p) q lies on a and f vanishes there identically, so the
lines meet exactly when g(X) = 0.  X is written down in canonical form by
``_span_point`` with one scalar inverse, or is p or q itself, and is
never built as a vector and normalised; a meeting pair costs the values
f(p), f(q) and g(X).

Every sum of products here is one ``exactnum.dot`` call, which takes one
gcd per sum, not per product and partial sum: each Plucker coordinate
and the Plucker relation, a form's value at a point and the pairing.
For phi(m) <= 8 it adds up products from a straight-line kernel written
for the conductor; above that it convolves every term and reduces modulo
Phi_m once.  The coordinates a + t b of ``_span_point`` stay a product
and a sum: a fused form measured slower on the moved quartic lines and
no faster on the Fermat lines.

Mixed conductors raise ``exactnum.mismatch``; a line's base points and a
point tested on a line are checked by the first ``dot`` they meet.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from . import exactnum  # residue_field read where CycloNum.residue reads it
from .exactnum import CycloNum, Scalar, dot, mismatch

#: Index order of the six Plucker coordinates.
PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


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
        m = coords[0].m
        for c in coords[1:]:
            if c.m != m:
                raise mismatch(m, c.m)
        _, self.coords = _scaled_to_lead(coords)

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

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        a, b, c, d = self.coords  # equal points have equal fields; no CycloNum.__hash__
        return hash((a.nums, a.den, b.nums, b.den, c.nums, c.den, d.nums, d.den))

    def __str__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"

    def __repr__(self) -> str:
        return f"ProjPoint{self!s}"


class ProjLine:
    """A line of P^3: two distinct base points plus derived exact data.

    ``conductor`` is the base points' conductor m, stored once so a pair
    test reads one attribute.  ``plucker`` holds the six coordinates
    (p01, p02, p03, p12, p13, p23), scaled so the first nonzero one is 1;
    equal lines always have equal Plucker vectors no matter which point
    pair produced them.  ``forms`` holds two linear forms vanishing on the
    line: the rows i, j of the dual Plucker matrix, where {i, j} is the
    complement of the pair {k, l} of the leading Plucker coordinate.  Row i is the plane through the
    line and the coordinate point e_i; the two rows are independent
    because their minor in columns i, j is p_kl^2 = 1.  ``residues`` holds
    the images of the Plucker coordinates in F_p (``CycloNum.residue``),
    or None if any coordinate lies outside the p-integral ring.
    """

    __slots__ = ("base", "conductor", "plucker", "forms", "residues")

    def __init__(self, p: ProjPoint, q: ProjPoint):
        if p == q:
            raise ValueError("a line needs two distinct points")
        m = p.conductor
        a, b = p.coords, q.coords
        nb = [c if c.is_zero() else -c for c in b]
        raw = [dot(m, (a[i], a[j]), (b[j], nb[i])) for i, j in PLUCKER_PAIRS]
        lead_index, plucker = _scaled_to_lead(raw)
        if not dot(m, plucker[:3], (plucker[5], -plucker[4], plucker[3])).is_zero():
            raise AssertionError("Plucker relation violated; construction bug")
        self.base = (p, q)
        self.conductor = m
        self.plucker = plucker
        lead_pair = PLUCKER_PAIRS[lead_index]
        self.forms = tuple(_dual_row(plucker, i) for i in range(4) if i not in lead_pair)
        residues = tuple(c.residue() for c in plucker)
        self.residues = None if None in residues else residues

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


def _lead(coords: Sequence[CycloNum]) -> Optional[int]:
    """The index of the first nonzero entry, or None if every entry is zero."""
    for i, c in enumerate(coords):
        if any(c.nums):
            return i
    return None


def _scaled_to_lead(coords: Sequence[CycloNum]) -> tuple[int, tuple[CycloNum, ...]]:
    """The index i of the first nonzero entry, and ``coords`` divided by it: the
    entry at i set to one, zeros kept, one product per other nonzero entry."""
    lead = _lead(coords)
    if lead is None:
        raise ValueError("homogeneous coordinates cannot all be zero")
    c = coords[lead]
    if c == 1:
        return lead, tuple(coords)
    inv = c.inverse()
    rest = (x if x.is_zero() else x * inv for x in coords[lead + 1:])
    return lead, (*coords[:lead], CycloNum.one(c.m), *rest)


def _dual_row(plucker: Sequence[CycloNum], i: int) -> tuple[CycloNum, ...]:
    """Row i of the dual Plucker matrix: the form x -> det(p, q, e_i, x)."""
    p01, p02, p03, p12, p13, p23 = plucker
    zero = CycloNum.zero(p01.m)
    if i == 0:
        return (zero, p23, -p13, p12)
    if i == 1:
        return (-p23, zero, p03, -p02)
    if i == 2:
        return (p13, -p03, zero, p01)
    return (-p12, p02, -p01, zero)


def point_on_line(pt: ProjPoint, line: ProjLine) -> bool:
    """Exact membership test: both defining forms vanish at the point."""
    m = pt.conductor
    return all(dot(m, form, pt.coords).is_zero() for form in line.forms)


def plucker_pairing(a: ProjLine, b: ProjLine) -> CycloNum:
    """The bilinear pairing that vanishes exactly when two lines meet."""
    pb = b.plucker
    return dot(a.conductor, a.plucker, (pb[5], -pb[4], pb[3], pb[2], -pb[1], pb[0]))


def _span_point(p: ProjPoint, q: ProjPoint, x: CycloNum, y: CycloNum) -> ProjPoint:
    """The canonical point x p + y q of the line through p and q, (x, y) != (0, 0).

    The vector is never built and normalised.  With i and j the lead
    indices of p and q, its first nonzero coordinate is x at i if i < j,
    y at j if j < i, and x + y at i if i = j and x + y != 0; dividing by
    it leaves p + (y/x) q, q + (x/y) p or p + (y/(x+y)) (q - p), one
    scalar inverse each.  Zero coordinates of the second vector cost
    nothing, and y = 0 or x = 0 returns p or q itself.  When i = j and
    x + y = 0, the lead cancels: the point is that of p - q, normalised
    by ``ProjPoint``.  The canonical point is unique, so every branch
    gives the coordinates that normalising x p + y q would.
    """
    if y.is_zero():
        return p
    if x.is_zero():
        return q
    u, v = p.coords, q.coords
    i, j = _lead(u), _lead(v)
    if j < i:
        u, v, x, y = v, u, y, x
    elif i == j:
        lead = x + y
        if lead.is_zero():
            return ProjPoint([a - b for a, b in zip(u, v)])
        v = [b - a for a, b in zip(u, v)]
        x = lead
    t = y * x.inverse()
    pt = ProjPoint.__new__(ProjPoint)
    pt.coords = tuple(
        a if b.is_zero() else (t * b if a.is_zero() else a + t * b) for a, b in zip(u, v)
    )
    return pt


def line_intersection(a: ProjLine, b: ProjLine) -> Optional[ProjPoint]:
    """The common point of two distinct lines, or None if they are skew.

    The Plucker pairing vanishes exactly when the lines meet.  An exact
    zero has residue zero, so a nonzero residue of the pairing proves the
    pair skew with no exact arithmetic.  It proves the lines distinct as
    well, since a line pairs to zero with itself, so equal lines are
    refused only after that test.  Every other pair, a line with a
    residue of None included, is decided from a's base points: write
    a = span(p, q) and let f, g be b's forms.  If f vanishes at p and q,
    a lies in the plane f = 0, which holds b too, so the lines meet, at
    g(q) p - g(p) q.  Otherwise X = f(q) p - f(p) q, built in canonical
    form by ``_span_point``, is the one point of a on the plane f = 0:
    it lies on a, and f vanishes there identically.  So the lines meet
    exactly when g(X) = 0, and then X is the meeting point.  A meeting
    pair costs three ``exactnum.dot`` calls, f(p), f(q) and g(X), or four
    when f vanishes on a.  A nonzero g(X) leaves the exact pairing to
    decide: nonzero means a skew pair, and zero means the closed form
    failed, which raises.
    """
    m = a.conductor
    if b.conductor != m:
        raise mismatch(m, b.conductor)
    ra, rb = a.residues, b.residues
    if ra is not None and rb is not None and (
        ra[0] * rb[5] - ra[1] * rb[4] + ra[2] * rb[3] + ra[5] * rb[0] - ra[4] * rb[1] + ra[3] * rb[2]
    ) % exactnum.residue_field(m)[0]:
        return None
    if a == b:
        raise ValueError("line_intersection requires two distinct lines")
    p, q = a.base
    f, g = b.forms
    fp, fq = dot(m, f, p.coords), dot(m, f, q.coords)
    if fp.is_zero() and fq.is_zero():
        return _span_point(p, q, dot(m, g, q.coords), -dot(m, g, p.coords))
    x = _span_point(p, q, fq, -fp)
    if dot(m, g, x.coords).is_zero():
        return x
    if not plucker_pairing(a, b).is_zero():
        return None
    raise AssertionError("lines reported as meeting do not share a point")
