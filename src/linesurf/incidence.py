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
and its pairs have already put it in the group.  The scan checks that
the multiplicities account for every meeting pair, which holds only if
every group is a clique: a missed meeting or a point split in two fails
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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

    points: tuple[SingularPoint, ...]  # sorted by canonical point key
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

    def tally(self) -> dict[int, int]:
        """Count distinct points by multiplicity: the t-vector of the scan."""
        out: dict[int, int] = {}
        for sp in self.points:
            out[sp.multiplicity] = out.get(sp.multiplicity, 0) + 1
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

    points = [SingularPoint(pt, tuple(sorted(members))) for pt, members in groups.items()]
    points.sort(key=lambda sp: sp.location.sort_key())

    scan = ScanResult(tuple(points), ScanStats(d * (d - 1) // 2, meeting, len(points)))
    if scan.meeting_pairs != meeting:
        raise AssertionError("pair scan and per-point multiplicities disagree")
    return scan


def profile_from_arrangement(arr: Arrangement) -> IncidenceProfile:
    """Tally the scanned singular points into an incidence profile."""
    scan = scan_arrangement(arr)
    return IncidenceProfile(n=arr.n, d=arr.d, t=scan.tally())


def incidence_count(profile: IncidenceProfile) -> int:
    """I_d = sum over k of (k^2 - k) t_k, twice the number of meeting pairs."""
    return sum((k * k - k) * c for k, c in profile.t.items())


def valency_consistent(profile: IncidenceProfile, valency: int) -> bool:
    """Whether each of the d lines meeting exactly ``valency`` others fits I_d.

    Counting line meetings through point multiplicities, d lines each
    meeting ``valency`` others give I_d = d * valency.
    """
    if valency < 0:
        raise ValueError("valency must be nonnegative")
    return incidence_count(profile) == profile.d * valency
