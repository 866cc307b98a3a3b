"""Singular locus and incidence statistics of explicit line arrangements.

The scan decides every line pair with ``line_intersection`` and groups the
meeting pairs by the canonical coordinates of their meet.  Each group is a
singular point, and its members are its lines.

``line_intersection`` certifies every answer: a nonzero residue of the
Plucker pairing in F_p, or a nonzero exact pairing, proves a pair skew,
and a closed-form meet is checked exactly on both lines.  The residue
test comes before any exact work, the comparison of the two lines
included.  The meet check is one form value: the closed-form point lies
on the first line and in the plane of the second line's first form by
construction, and the second line's other form is evaluated there.  A
line through a singular point therefore meets every other line there,
and its pairs have already put it in the group, so ``ScanResult.tally``
counts it in sub-configurations.  The scan checks that the
multiplicities account for every meeting pair, which holds only if every
group is a clique: a missed meeting or a point split in two fails it.

The points are listed in the order of their coordinates read as
rationals, by an exact integer key (``_sorted_points``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import Iterable, NamedTuple, Optional

from .catalog import Arrangement, IncidenceProfile
from .projgeom import ProjPoint, line_intersection


@dataclass(frozen=True)
class SingularPoint:
    """A point where at least two arrangement lines meet."""

    location: ProjPoint
    lines: tuple[int, ...]  # sorted indices into the arrangement

    @property
    def multiplicity(self) -> int:
        return len(self.lines)


class ScanStats(NamedTuple):
    """What one scan did, in counts that repeat exactly from run to run."""

    pairs: int  # line pairs, d(d-1)/2, each decided by line_intersection
    meeting: int  # pairs that meet, counted pair by pair
    points: int  # distinct singular points


@dataclass(frozen=True)
class ScanResult:
    """The singular points an arrangement scan found.

    ``stats`` counts the work done and takes no part in equality.
    """

    points: tuple[SingularPoint, ...]  # sorted by location, see _sorted_points
    stats: ScanStats = field(compare=False)

    @property
    def meeting_pairs(self) -> int:
        """Pairs of lines that meet, C(k, 2) summed over the points."""
        return sum(sp.multiplicity * (sp.multiplicity - 1) // 2 for sp in self.points)

    def valencies(self, d: int) -> list[int]:
        """How many others each of the d lines meets: k - 1 at each of its points."""
        out = [0] * d
        for sp in self.points:
            for i in sp.lines:
                out[i] += sp.multiplicity - 1
        return out

    def tally(self, lines: Optional[Iterable[int]] = None) -> dict[int, int]:
        """Count distinct points by multiplicity: the t-vector of the scan.

        Given line indices ``lines``, the t-vector of their sub-configuration:
        each point counts the given lines through it, and is kept at two or more.
        """
        chosen = None if lines is None else set(lines)
        out: dict[int, int] = {}
        for sp in self.points:
            k = sp.multiplicity if chosen is None else len(chosen.intersection(sp.lines))
            if k >= 2:
                out[k] = out.get(k, 0) + 1
        return out


def scan_arrangement(arr: Arrangement) -> ScanResult:
    """All distinct singular points of an arrangement, with multiplicities.

    Every pair is decided by ``line_intersection``; a point's lines are
    the lines of the meeting pairs grouped at its canonical coordinates.
    """
    lines = arr.lines
    d = len(lines)
    groups: dict[ProjPoint, set[int]] = {}
    meeting = 0
    for i in range(d):
        for j in range(i + 1, d):
            pt = line_intersection(lines[i], lines[j])
            if pt is None:
                continue
            meeting += 1
            members = groups.get(pt)
            if members is None:
                groups[pt] = {i, j}
            else:
                members.add(i)
                members.add(j)

    points = tuple(SingularPoint(pt, tuple(sorted(groups[pt]))) for pt in _sorted_points(groups))
    scan = ScanResult(points, ScanStats(d * (d - 1) // 2, meeting, len(points)))
    if scan.meeting_pairs != meeting:
        raise AssertionError("pair scan and per-point multiplicities disagree")
    return scan


def _sorted_points(points: Iterable[ProjPoint]) -> list[ProjPoint]:
    """Points of one conductor in the order of their coordinates read as rationals.

    Coordinates compare coefficient by coefficient, the first coordinate
    first.  Scaling every coefficient to the lcm of all the denominators,
    a positive integer, keeps the order and its ties, and every ``nums``
    has length phi(m); so the key is integer tuples and builds no ``Fraction``.
    """
    points = list(points)
    scale = lcm(*{c.den for pt in points for c in pt.coords})

    def key(pt: ProjPoint) -> list:
        return [
            c.nums if c.den == scale else tuple([x * (scale // c.den) for x in c.nums])
            for c in pt.coords
        ]

    return sorted(points, key=key)


def profile_from_arrangement(arr: Arrangement) -> IncidenceProfile:
    """Tally the scanned singular points into an incidence profile."""
    scan = scan_arrangement(arr)
    return IncidenceProfile(n=arr.n, d=arr.d, t=scan.tally())


def incidence_count(profile: IncidenceProfile) -> int:
    """I_d = sum over k of (k^2 - k) t_k, twice the number of meeting pairs."""
    return sum((k * k - k) * c for k, c in profile.t.items())
