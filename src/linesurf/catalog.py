"""Named line configurations on smooth hypersurfaces of P^3.

Explicit lines are constructed only for Fermat hypersurfaces
x^n + y^n + z^n + w^n = 0, whose classical 3n^2 lines come in three
families indexed by pairs of n-th roots of -1.  The Rams grid, the Schur
quartic and the cubic-surface configurations enter as abstract incidence
profiles (n, d, {t_k}): every derived quantity downstream depends only on
that data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Mapping

from .exactnum import CycloNum, nth_roots_of_minus_one
from .projgeom import ProjLine, ProjPoint, line_through


class ProfileError(ValueError):
    """An incidence profile or arrangement violates a structural invariant."""


@dataclass(frozen=True)
class IncidenceProfile:
    """The combinatorial record (n, d, {t_k}) of a line configuration.

    ``t[k]`` counts the points where exactly k of the d lines meet;
    entries with count 0 are dropped.  Feasibility of the pair count
    (sum of (k^2 - k) t_k cannot exceed d(d-1)) is enforced on
    construction.
    """

    n: int
    d: int
    t: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 3:
            raise ProfileError("surface degree n must be an integer >= 3")
        if not isinstance(self.d, int) or self.d < 0:
            raise ProfileError("line count d must be a nonnegative integer")
        cleaned: dict[int, int] = {}
        for k in sorted(self.t):
            count = self.t[k]
            if not isinstance(k, int) or not isinstance(count, int):
                raise ProfileError("multiplicities and counts must be integers")
            if count < 0:
                raise ProfileError(f"count t_{k} must be nonnegative")
            if count == 0:
                continue
            if k < 2 or k > self.d:
                raise ProfileError(
                    f"multiplicity {k} outside the valid range 2..{self.d}"
                )
            cleaned[k] = count
        pair_weight = sum((k * k - k) * c for k, c in cleaned.items())
        if pair_weight > self.d * (self.d - 1):
            raise ProfileError(
                "pair-count feasibility violated: "
                f"sum (k^2-k) t_k = {pair_weight} exceeds d(d-1) = {self.d * (self.d - 1)}"
            )
        object.__setattr__(self, "t", cleaned)

    @property
    def s(self) -> int:
        """Number of singular points."""
        return sum(self.t.values())

    @property
    def t2(self) -> int:
        return self.t.get(2, 0)

    def to_json(self) -> dict:
        return {"n": self.n, "d": self.d, "t": {str(k): c for k, c in self.t.items()}}

    @classmethod
    def from_json(cls, obj: dict) -> "IncidenceProfile":
        try:
            n = obj["n"]
            d = obj["d"]
            t_raw = obj.get("t", {})
        except (TypeError, KeyError) as exc:
            raise ProfileError(f"profile object must carry n, d, t: {exc}") from exc
        if not isinstance(t_raw, dict):
            raise ProfileError("profile field 't' must map multiplicity to count")
        for k, c in t_raw.items():
            if isinstance(c, bool) or not isinstance(c, int):
                raise ProfileError(f"count t_{k} must be a JSON integer, got {c!r}")
        try:
            t = {int(k): c for k, c in t_raw.items()}
        except (TypeError, ValueError) as exc:
            raise ProfileError(f"profile t-vector entries must be integers: {exc}") from exc
        if not isinstance(n, int) or not isinstance(d, int):
            raise ProfileError("profile fields n and d must be integers")
        return cls(n=n, d=d, t=t)


@dataclass(frozen=True)
class Arrangement:
    """A finite set of distinct lines on a degree-n hypersurface."""

    n: int
    lines: tuple[ProjLine, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 3:
            raise ProfileError("surface degree n must be an integer >= 3")
        object.__setattr__(self, "lines", tuple(self.lines))
        seen: dict[ProjLine, int] = {}
        for i, line in enumerate(self.lines):
            if line.conductor != self.conductor:
                raise ProfileError("all lines must share one conductor")
            if line in seen:
                raise ProfileError(
                    f"lines must be pairwise distinct: lines {seen[line]} and {i} coincide"
                )
            seen[line] = i

    @property
    def d(self) -> int:
        return len(self.lines)

    @property
    def conductor(self) -> int:
        return self.lines[0].conductor if self.lines else 2 * self.n

    def subset(self, indices) -> "Arrangement":
        """The sub-arrangement on the given line indices."""
        return Arrangement(self.n, tuple(self.lines[i] for i in indices))


def max_lines_bound(n: int) -> int:
    """Upper bound n(7n - 12) for the number of lines on a smooth degree-n surface."""
    if n < 3:
        raise ValueError("the line-count bound applies to degree n >= 3")
    return n * (7 * n - 12)


def fermat_lines(n: int) -> Arrangement:
    """The classical 3n^2 lines on the Fermat hypersurface of degree n.

    With zeta, xi running over all n-th roots of -1 the families are

        A: x = zeta*y, z = xi*w     through (zeta,1,0,0) and (0,0,xi,1)
        B: x = zeta*z, y = xi*w     through (zeta,0,1,0) and (0,xi,0,1)
        C: x = zeta*w, y = xi*z     through (zeta,0,0,1) and (0,xi,1,0)

    Lines are ordered deterministically by (family, zeta index, xi index).
    """
    if n < 3:
        raise ValueError("fermat_lines requires degree n >= 3")
    m = 2 * n
    roots = nth_roots_of_minus_one(n)
    zero = CycloNum.zero(m)
    one = CycloNum.one(m)

    def pt(a, b, c, d):
        return ProjPoint((a, b, c, d))

    lines: list[ProjLine] = []
    for z in roots:
        for x in roots:
            lines.append(line_through(pt(z, one, zero, zero), pt(zero, zero, x, one)))
    for z in roots:
        for x in roots:
            lines.append(line_through(pt(z, zero, one, zero), pt(zero, x, zero, one)))
    for z in roots:
        for x in roots:
            lines.append(line_through(pt(z, zero, zero, one), pt(zero, x, one, zero)))
    return Arrangement(n, tuple(lines))


def on_surface(line: ProjLine, n: int) -> bool:
    """Whether a line lies on x^n + y^n + z^n + w^n = 0 identically.

    The point s*p + t*q is substituted symbolically: expanding each
    coordinate power binomially, the surface equation becomes a
    polynomial in s, t whose coefficient at s^(n-j) t^j is
    sum_i C(n,j) p_i^(n-j) q_i^j.  The line lies on the surface exactly
    when all n+1 coefficients vanish.
    """
    p, q = line.base
    m = line.conductor
    p_pows = [_power_table(c, n) for c in p.coords]
    q_pows = [_power_table(c, n) for c in q.coords]
    for j in range(n + 1):
        acc = CycloNum.zero(m)
        for i in range(4):
            acc = acc + comb(n, j) * (p_pows[i][n - j] * q_pows[i][j])
        if not acc.is_zero():
            return False
    return True


def _power_table(value: CycloNum, n: int) -> list[CycloNum]:
    table = [CycloNum.one(value.m)]
    for _ in range(n):
        table.append(table[-1] * value)
    return table


def fermat_profile(n: int) -> IncidenceProfile:
    """Incidence profile of the Fermat configuration: d = 3n^2, t_2 = 3n^3, t_n = 6n."""
    if n < 3:
        raise ValueError("fermat_profile requires degree n >= 3")
    return IncidenceProfile(n=n, d=3 * n * n, t={2: 3 * n**3, n: 6 * n})


def rams_profile(n: int) -> IncidenceProfile:
    """Incidence profile of the grid configuration on the degree-n Rams hypersurface.

    A grid of n(n-2)+2 pairwise disjoint lines crossed by 2 disjoint
    lines: d = n(n-2)+4 lines with 2n^2-4n+4 double points and nothing
    else.
    """
    if n < 6:
        raise ValueError("rams_profile requires degree n >= 6")
    return IncidenceProfile(n=n, d=n * (n - 2) + 4, t={2: 2 * n * n - 4 * n + 4})


def schur_profile() -> IncidenceProfile:
    """The 64 lines on the Schur quartic: 336 double, 64 triple, 8 quadruple points."""
    return IncidenceProfile(n=4, d=64, t={2: 336, 3: 64, 4: 8})


def cubic_profile(t3: int) -> IncidenceProfile:
    """Profile of the 27 lines on a smooth cubic with t3 triple (Eckardt) points.

    The count identity t_2 + 3 t_3 = 135 fixes the double points; at most
    18 Eckardt points exist, attained by the Fermat cubic.
    """
    if not 0 <= t3 <= 18:
        raise ValueError("the number of Eckardt points must lie in 0..18")
    return IncidenceProfile(n=3, d=27, t={2: 135 - 3 * t3, 3: t3})
