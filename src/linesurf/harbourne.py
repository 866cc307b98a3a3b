"""Linear Harbourne constants and negativity bounds for line configurations.

All quantities are exact rationals derived from an incidence profile
(n, d, {t_k}).  Blowing up the s singular points, the strict transform of
the configuration has self-intersection

    (2-n)*d + I_d - sum k^2 t_k  =  (2-n)*d - sum k t_k,

using the self-intersection 2-n of a line on a smooth degree-n surface
(adjunction) and the combinatorial identity I_d = sum (k^2-k) t_k.  Both
forms are evaluated and compared on every call.  The linear Harbourne
constant is that number divided by s.

For degree n >= 4, Miyaoka's inequality

    n*d - t_2 + sum_{k>=3} (k-4) t_k  <=  2n(n-1)^2

yields the lower bound  H_L >= -4 + (2d + t_2 - 2n(n-1)^2)/s,  and in the
coarser strict form  Ltilde^2 > -4s - 2n(n-1)^2.  Both are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .catalog import Arrangement, IncidenceProfile, max_lines_bound
from .incidence import incidence_count, scan_arrangement


class InapplicableDegree(ValueError):
    """A bound was requested outside the surface degrees it is proved for."""


class UndefinedConstant(ArithmeticError):
    """H_L is undefined: the configuration has no singular points (s = 0)."""


def line_self_intersection(n: int) -> int:
    """Self-intersection 2 - n of a line on a smooth degree-n hypersurface."""
    if n < 3:
        raise InapplicableDegree("line self-intersection formula used for n >= 3 only")
    return 2 - n


def strict_transform_sq(profile: IncidenceProfile) -> int:
    """Self-intersection of the strict transform after blowing up all singular points.

    Computes (2-n)d + I_d - sum k^2 t_k and independently (2-n)d - sum k t_k;
    the two must agree identically, and any mismatch is a hard error.
    """
    n, d, t = profile.n, profile.d, profile.t
    full = (2 - n) * d + incidence_count(profile) - sum(k * k * c for k, c in t.items())
    simplified = (2 - n) * d - sum(k * c for k, c in t.items())
    if full != simplified:
        raise AssertionError(
            f"strict transform forms disagree: {full} vs {simplified}"
        )
    return full


def harbourne_linear(profile: IncidenceProfile) -> Fraction:
    """The linear Harbourne constant H_L = Ltilde^2 / s of the configuration."""
    s = profile.s
    if s == 0:
        raise UndefinedConstant(
            "H_L is undefined for a configuration with no singular points"
        )
    return Fraction(strict_transform_sq(profile), s)


class MiyaokaResult(NamedTuple):
    lhs: int
    rhs: int
    holds: bool


def miyaoka_check(profile: IncidenceProfile) -> MiyaokaResult:
    """Evaluate Miyaoka's inequality n*d - t_2 + sum_{k>=3}(k-4) t_k <= 2n(n-1)^2."""
    n = profile.n
    if n < 4:
        raise InapplicableDegree("Miyaoka's inequality requires surface degree n >= 4")
    lhs = n * profile.d - profile.t2
    lhs += sum((k - 4) * c for k, c in profile.t.items() if k >= 3)
    rhs = 2 * n * (n - 1) ** 2
    return MiyaokaResult(lhs, rhs, lhs <= rhs)


def harbourne_lower_bound(profile: IncidenceProfile) -> Fraction:
    """The bound H_L >= -4 + (2d + t_2 - 2n(n-1)^2)/s for degree n >= 4."""
    n, s = profile.n, profile.s
    if n < 4:
        raise InapplicableDegree("the Harbourne lower bound requires degree n >= 4")
    if s == 0:
        raise UndefinedConstant("the bound is undefined when s = 0")
    return -4 + Fraction(2 * profile.d + profile.t2 - 2 * n * (n - 1) ** 2, s)


def strict_transform_sq_lower(n: int, s: int) -> int:
    """The coarse strict lower bound: Ltilde^2 > -4s - 2n(n-1)^2 for n >= 4."""
    if n < 4:
        raise InapplicableDegree("the strict-transform bound requires degree n >= 4")
    return -4 * s - 2 * n * (n - 1) ** 2


# ---------------------------------------------------------------------------
# Closed forms for the cataloged families.


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


def cubic_h(t: int) -> Fraction:
    """H_L of the 27-line cubic configuration with t triple points: (-297+3t)/(135-2t)."""
    if not 0 <= t <= 18:
        raise ValueError("the number of triple points on a cubic lies in 0..18")
    return Fraction(-297 + 3 * t, 135 - 2 * t)


# ---------------------------------------------------------------------------
# Full report.


@dataclass(frozen=True)
class HarbourneReport:
    """All derived quantities for one incidence profile, exact.

    Bound fields are None when the degree makes them inapplicable (n = 3)
    and h_linear is None when undefined (s = 0).
    """

    n: int
    d: int
    s: int
    t: dict
    incidences: int
    strict_transform_sq: int
    h_linear: Optional[Fraction]
    miyaoka_lhs: Optional[int]
    miyaoka_rhs: Optional[int]
    miyaoka_holds: Optional[bool]
    h_lower_bound: Optional[Fraction]
    h_bound_holds: Optional[bool]
    strict_sq_lower: Optional[int]
    strict_bound_holds: Optional[bool]


def analyze_profile(profile: IncidenceProfile) -> HarbourneReport:
    """Assemble the full exact report for a profile.

    Inapplicable quantities are carried as None rather than raised, so a
    cubic configuration still yields its H_L while the degree-gated
    bounds stay empty.
    """
    n, d, s = profile.n, profile.d, profile.s
    sts = strict_transform_sq(profile)
    h = Fraction(sts, s) if s > 0 else None

    miy_lhs = miy_rhs = miy_holds = None
    h_bound = h_bound_holds = None
    strict_lower = strict_holds = None
    if n >= 4:
        miy = miyaoka_check(profile)
        miy_lhs, miy_rhs, miy_holds = miy.lhs, miy.rhs, miy.holds
        strict_lower = strict_transform_sq_lower(n, s)
        strict_holds = sts > strict_lower
        if s > 0:
            h_bound = harbourne_lower_bound(profile)
            h_bound_holds = h >= h_bound
    return HarbourneReport(
        n=n,
        d=d,
        s=s,
        t=dict(profile.t),
        incidences=incidence_count(profile),
        strict_transform_sq=sts,
        h_linear=h,
        miyaoka_lhs=miy_lhs,
        miyaoka_rhs=miy_rhs,
        miyaoka_holds=miy_holds,
        h_lower_bound=h_bound,
        h_bound_holds=h_bound_holds,
        strict_sq_lower=strict_lower,
        strict_bound_holds=strict_holds,
    )


# ---------------------------------------------------------------------------
# Combinatorial searches.


def bauer_search(
    arr: Arrangement,
    size: int,
    max_solutions: Optional[int] = 1,
) -> list[tuple[int, ...]]:
    """Sub-arrangements of ``size`` lines whose singular points are all quadruple.

    Exact backtracking over the quadruple points of the ambient
    arrangement: activating a point commits all four of its lines, and
    any two committed lines meeting elsewhere force that meeting point to
    become quadruple as well (or prune the branch when it cannot).  Every
    line of a found subconfiguration therefore passes through at least
    one of its quadruple points; all-skew subsets do not count.  Points
    where more than four ambient lines meet are never subsampled.

    Returns sorted tuples of line indices, at most ``max_solutions`` of
    them (None means all), in deterministic order.
    """
    if size < 2:
        raise ValueError("a subconfiguration needs at least 2 lines")
    scan = scan_arrangement(arr)
    quad_ids = [idx for idx, sp in enumerate(scan.points) if sp.multiplicity == 4]
    if not quad_ids:
        return []

    # Where each pair of lines meets: point index in scan order, or absent.
    pair_point: dict[tuple[int, int], int] = {}
    for idx, sp in enumerate(scan.points):
        for a in range(sp.multiplicity):
            for b in range(a + 1, sp.multiplicity):
                pair_point[(sp.lines[a], sp.lines[b])] = idx
    quad_id_set = set(quad_ids)
    lines_of_point = [sp.lines for sp in scan.points]

    solutions: list[tuple[int, ...]] = []

    def meeting(a: int, b: int) -> Optional[int]:
        return pair_point.get((a, b) if a < b else (b, a))

    def close(chosen_points: set[int], lines: set[int], excluded: set[int]):
        """Propagate forced activations; None on contradiction."""
        frontier = list(lines)
        while frontier:
            new_frontier = []
            existing = list(lines)
            for a in frontier:
                for b in existing:
                    if a == b:
                        continue
                    pid = meeting(a, b)
                    if pid is None or pid in chosen_points:
                        continue
                    if pid not in quad_id_set or pid in excluded:
                        return None
                    chosen_points.add(pid)
                    for line in lines_of_point[pid]:
                        if line not in lines:
                            lines.add(line)
                            new_frontier.append(line)
                            existing.append(line)
                    if len(lines) > size:
                        return None
            frontier = new_frontier
        return chosen_points, lines

    def record(lines: set[int]) -> bool:
        """Append a verified solution; True when the cap is reached."""
        chosen = tuple(sorted(lines))
        # Full independent validation of the witness.
        counts: dict[int, int] = {}
        for i in range(len(chosen)):
            for j in range(i + 1, len(chosen)):
                pid = meeting(chosen[i], chosen[j])
                if pid is not None:
                    counts[pid] = counts.get(pid, 0) + 1
        for pairs in counts.values():
            if pairs != 6:  # C(4,2): exactly four chosen lines through the point
                raise AssertionError("search produced an invalid subconfiguration")
        if chosen not in solutions:
            solutions.append(chosen)
        return max_solutions is not None and len(solutions) >= max_solutions

    def backtrack(next_quad: int, chosen_points: set[int], lines: set[int], excluded: set[int]) -> bool:
        if len(lines) == size and chosen_points:
            return record(lines)
        if next_quad >= len(quad_ids):
            return False
        pid = quad_ids[next_quad]
        if pid not in chosen_points and pid not in excluded:
            new_points = set(chosen_points)
            new_lines = set(lines)
            new_points.add(pid)
            new_lines.update(lines_of_point[pid])
            if len(new_lines) <= size:
                closed = close(new_points, new_lines, excluded)
                if closed is not None:
                    if backtrack(next_quad + 1, closed[0], closed[1], excluded):
                        return True
            excluded = excluded | {pid}
        return backtrack(next_quad + 1, chosen_points, lines, excluded)

    backtrack(0, set(), set(), set())
    solutions.sort()
    return solutions


def extremal_profile_search(
    n: int,
    d: int,
    k_max: int,
    limit: Optional[int] = None,
) -> list[tuple[IncidenceProfile, Optional[Fraction]]]:
    """Enumerate abstract t-vectors compatible with Miyaoka, most negative H_L first.

    Every t-vector over multiplicities 2..min(k_max, d) satisfying the
    pair-count feasibility sum (k^2-k) t_k <= d(d-1) is generated; those
    passing Miyaoka's inequality are kept and sorted by H_L ascending
    (profiles with s = 0 carry no value and sort last).  The profiles are
    purely combinatorial candidates: nothing here certifies that a
    configuration of actual lines realizes them.
    """
    if n < 4:
        raise InapplicableDegree("the extremal search is gated on degree n >= 4")
    if d < 1:
        raise ValueError("the search needs at least one line")
    bound = max_lines_bound(n)
    if d > bound:
        raise ValueError(f"d = {d} exceeds the line-count bound {bound} for degree {n}")
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")

    budget = d * (d - 1)
    ks = [k for k in range(2, min(k_max, d) + 1)]
    space = 1
    for k in ks:
        space *= budget // (k * k - k) + 1
    if space > 10_000_000:
        raise ValueError(
            f"infeasible search space: about {space} candidate t-vectors; "
            "reduce d or k_max"
        )

    results: list[tuple[IncidenceProfile, Optional[Fraction]]] = []

    def enumerate_vectors(idx: int, remaining: int, current: dict[int, int]):
        if idx == len(ks):
            profile = IncidenceProfile(n=n, d=d, t=dict(current))
            if not miyaoka_check(profile).holds:
                return
            value = harbourne_linear(profile) if profile.s > 0 else None
            results.append((profile, value))
            return
        k = ks[idx]
        weight = k * k - k
        for count in range(remaining // weight + 1):
            if count:
                current[k] = count
            elif k in current:
                del current[k]
            enumerate_vectors(idx + 1, remaining - weight * count, current)
        if k in current:
            del current[k]

    enumerate_vectors(0, budget, {})
    results.sort(
        key=lambda item: (
            item[1] is None,
            item[1] if item[1] is not None else 0,
            sorted(item[0].t.items()),
        )
    )
    if limit is not None:
        return results[:limit]
    return results
