"""Singular locus and incidence statistics of explicit line arrangements.

The scan intersects every line pair exactly, groups coincident
intersection points by their canonical coordinates, and recounts each
distinct point's multiplicity with a point-on-line test against the
arrangement lines.  The combinatorial identities tying multiplicities,
point counts and meeting pairs together are checked on top.

A certified modular filter spares the recount the tests whose answer is
already known.  Every line's forms, and every grouped point, are reduced
once into F_p under ``zeta_m -> r`` (``exactnum.residue_field``).  That
map is a ring homomorphism on the p-integral elements, so an exact zero
has residue zero: a line with a form whose residue at a point is nonzero
does not pass through the point, and its exact test is skipped.  Every
true incidence, every line the residues cannot rule out, and every
object with a coordinate outside the p-integral ring takes the exact
test.  The filter only skips tests whose answer it has proved, so the
result does not depend on p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import NamedTuple, Optional

from .catalog import Arrangement, IncidenceProfile
from .exactnum import residue_field
from .projgeom import ProjPoint, line_intersection, point_on_line


@dataclass(frozen=True)
class SingularPoint:
    """A point where at least two arrangement lines meet."""

    location: ProjPoint
    multiplicity: int
    lines: tuple[int, ...]  # sorted indices into the arrangement


class ScanStats(NamedTuple):
    """What one scan did, in counts that repeat exactly from run to run."""

    pairs: int  # line pairs, d(d-1)/2, each intersected exactly
    meeting: int  # pairs that meet
    on_line_tests: int  # exact point_on_line calls in the recount
    points: int  # distinct singular points


@dataclass(frozen=True)
class ScanResult:
    """The singular points an arrangement scan found.

    ``stats`` counts the work done and takes no part in equality.
    """

    points: tuple[SingularPoint, ...]  # sorted by canonical point key
    meeting_pairs: int
    stats: ScanStats = field(compare=False)

    def tally(self) -> dict[int, int]:
        """Count distinct points by multiplicity: the t-vector of the scan."""
        out: dict[int, int] = {}
        for sp in self.points:
            out[sp.multiplicity] = out.get(sp.multiplicity, 0) + 1
        return out


def _residues(values) -> Optional[tuple[int, ...]]:
    """The residues of exact values, or None if any lies outside the map."""
    out = tuple(v.residue() for v in values)
    return None if None in out else out


def scan_arrangement(arr: Arrangement) -> ScanResult:
    """All distinct singular points of an arrangement, with multiplicities.

    Pair intersections are grouped by canonical point coordinates.  Each
    grouped point's multiplicity is recounted from scratch via
    point_on_line over every line the modular filter cannot rule out,
    which also validates the grouping.
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

    p = residue_field(arr.conductor)[0]
    form_pairs = [tuple(_residues(form) for form in line.forms) for line in lines]
    forms = [None if None in pair else pair for pair in form_pairs]
    points = []
    tests = 0
    for pt, members in groups.items():
        x = _residues(pt.coords)
        incident = []
        for k, line in enumerate(lines):
            pair = forms[k]
            if x is not None and pair is not None and (
                sum(map(mul, pair[0], x)) % p or sum(map(mul, pair[1], x)) % p
            ):
                continue
            tests += 1
            if point_on_line(pt, line):
                incident.append(k)
        if not set(incident) >= members:
            raise AssertionError("intersection grouping lost an incident line")
        points.append(SingularPoint(pt, len(incident), tuple(incident)))
    points.sort(key=lambda sp: sp.location.sort_key())

    total_pairs = sum(sp.multiplicity * (sp.multiplicity - 1) // 2 for sp in points)
    if total_pairs != meeting:
        raise AssertionError("pair scan and per-point multiplicities disagree")
    stats = ScanStats(d * (d - 1) // 2, meeting, tests, len(points))
    return ScanResult(tuple(points), meeting, stats)


def singular_points(arr: Arrangement) -> tuple[SingularPoint, ...]:
    """The distinct points where at least two lines meet, in canonical order."""
    return scan_arrangement(arr).points


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


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_identities(scan: ScanResult) -> IdentityReport:
    """Check the combinatorial identities tying a scan to its own tally.

    On the computed singular points: the multiplicity sum equals
    sum k*t_k, the number of distinct points equals sum t_k, and the
    binomial sum of multiplicities equals the number of meeting line
    pairs seen by the pair scan.
    """
    tally = scan.tally()

    mult_sum = sum(sp.multiplicity for sp in scan.points)
    checks = (
        IdentityCheck(
            "multiplicity_sum", mult_sum, sum(k * c for k, c in tally.items())
        ),
        IdentityCheck(
            "point_count", len(scan.points), sum(tally.values())
        ),
        IdentityCheck(
            "meeting_pairs",
            sum(sp.multiplicity * (sp.multiplicity - 1) // 2 for sp in scan.points),
            scan.meeting_pairs,
        ),
    )
    return IdentityReport(checks)
