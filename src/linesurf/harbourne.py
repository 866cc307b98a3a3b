"""Linear Harbourne constants and negativity bounds for line configurations.

All quantities are exact rationals derived from an incidence profile
(n, d, {t_k}).  Blowing up the s singular points, the strict transform of
the configuration has self-intersection

    (2-n)*d + I_d - sum k^2 t_k  =  (2-n)*d - sum k t_k,

using the self-intersection 2-n of a line on a smooth degree-n surface
(adjunction) and the definition I_d = sum (k^2-k) t_k, so the right-hand
form is the one evaluated.  The linear Harbourne constant is that number
divided by s.

For degree n >= 4, Miyaoka's inequality

    n*d - t_2 + sum_{k>=3} (k-4) t_k  <=  2n(n-1)^2

yields the lower bound  H_L >= -4 + (2d + t_2 - 2n(n-1)^2)/s,  and in the
coarser strict form  Ltilde^2 > -4s - 2n(n-1)^2.  Both are reported.

Each hypothesis is decided in one place, and every caller relies on that
function refusing instead of deciding again: ``_miyaoka_rhs`` raises
``InapplicableDegree`` below degree 4 and is the only source of
2n(n-1)^2, and ``_singular_count`` raises ``UndefinedConstant`` at s = 0.
``analyze_profile`` turns a refusal into None.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from heapq import nsmallest
from itertools import chain, combinations
from typing import NamedTuple, Optional

from .catalog import IncidenceProfile, check_line_count
from .incidence import scan_arrangement  # noqa: F401 (perfbench's tracer test reads it here)


class InapplicableDegree(ValueError):
    """A bound was requested outside the surface degrees it is proved for."""


class UndefinedConstant(ArithmeticError):
    """H_L is undefined: the configuration has no singular points (s = 0)."""


def _miyaoka_rhs(n: int) -> int:
    """The right side 2n(n-1)^2 of Miyaoka's inequality; the degree gate n >= 4."""
    if n < 4:
        raise InapplicableDegree("Miyaoka's inequality requires surface degree n >= 4")
    return 2 * n * (n - 1) ** 2


def _singular_count(profile: IncidenceProfile) -> int:
    """The number s of singular points, which H_L divides by; the gate s > 0."""
    s = profile.s
    if s == 0:
        raise UndefinedConstant(
            "H_L is undefined: the configuration has no singular points (s = 0)"
        )
    return s


def strict_transform_sq(profile: IncidenceProfile) -> int:
    """Self-intersection of the strict transform after blowing up all singular points.

    (2-n)d - sum k t_k, which is (2-n)d + I_d - sum k^2 t_k with I_d expanded.
    """
    return (2 - profile.n) * profile.d - sum(k * c for k, c in profile.t.items())


def harbourne_linear(profile: IncidenceProfile) -> Fraction:
    """The linear Harbourne constant H_L = Ltilde^2 / s of the configuration."""
    return Fraction(strict_transform_sq(profile), _singular_count(profile))


class MiyaokaResult(NamedTuple):
    lhs: int
    rhs: int
    holds: bool


def miyaoka_check(profile: IncidenceProfile) -> MiyaokaResult:
    """Evaluate Miyaoka's inequality n*d - t_2 + sum_{k>=3}(k-4) t_k <= 2n(n-1)^2."""
    rhs = _miyaoka_rhs(profile.n)
    lhs = profile.n * profile.d - profile.t2
    lhs += sum((k - 4) * c for k, c in profile.t.items() if k >= 3)
    return MiyaokaResult(lhs, rhs, lhs <= rhs)


def harbourne_lower_bound(profile: IncidenceProfile) -> Fraction:
    """The bound H_L >= -4 + (2d + t_2 - 2n(n-1)^2)/s for degree n >= 4."""
    rhs = _miyaoka_rhs(profile.n)
    return -4 + Fraction(2 * profile.d + profile.t2 - rhs, _singular_count(profile))


def strict_transform_sq_lower(n: int, s: int) -> int:
    """The coarse strict lower bound: Ltilde^2 > -4s - 2n(n-1)^2 for n >= 4."""
    return -4 * s - _miyaoka_rhs(n)


# ---------------------------------------------------------------------------
# Full report.


@dataclass(frozen=True)
class HarbourneReport:
    """What the four functions of the paper's bounds return for one profile.

    Each field holds its function's value, or None where that function
    refuses: ``h_linear`` at s = 0, the Miyaoka terms below degree 4 and
    ``h_lower_bound`` in either case.  The report decides no hypothesis
    itself; n, d, s and t are read from ``profile``.
    """

    profile: IncidenceProfile
    h_linear: Optional[Fraction]
    miyaoka: Optional[MiyaokaResult]
    h_lower_bound: Optional[Fraction]
    strict_sq_lower: Optional[int]

    @property
    def t(self):  # read by perfbench's scan oracle
        return self.profile.t

    @property
    def h_bound_holds(self) -> Optional[bool]:
        return None if self.h_lower_bound is None else self.h_linear >= self.h_lower_bound

    @property
    def strict_bound_holds(self) -> Optional[bool]:
        lower = self.strict_sq_lower
        return None if lower is None else strict_transform_sq(self.profile) > lower


def _unless_refused(function, *args):
    """``function(*args)``, or None where a hypothesis gate refuses it."""
    try:
        return function(*args)
    except (InapplicableDegree, UndefinedConstant):
        return None


def analyze_profile(profile: IncidenceProfile) -> HarbourneReport:
    """Assemble the full exact report for a profile.

    Inapplicable quantities are carried as None rather than raised, so a
    cubic configuration still yields its H_L while the degree-gated
    bounds stay empty.
    """
    return HarbourneReport(
        profile=profile,
        h_linear=_unless_refused(harbourne_linear, profile),
        miyaoka=_unless_refused(miyaoka_check, profile),
        h_lower_bound=_unless_refused(harbourne_lower_bound, profile),
        strict_sq_lower=_unless_refused(strict_transform_sq_lower, profile.n, profile.s),
    )


# ---------------------------------------------------------------------------
# Combinatorial searches.


def check_subconfiguration_size(size: int) -> None:
    """The one check that a subconfiguration has at least 2 lines, made before any scan."""
    if size < 2:
        raise ValueError("a subconfiguration needs at least 2 lines")


def bauer_search(
    scan,
    size: int,
    max_solutions: Optional[int] = 1,
) -> list[tuple[int, ...]]:
    """Sub-arrangements of ``size`` lines whose singular points are all quadruple.

    Exact backtracking over the quadruple points of ``scan``, the ambient
    arrangement's ``incidence.ScanResult``, in scan order, trying each
    point in before leaving it out.  Activating a point commits all four of
    its lines, and the committed points are then closed to a least fixed
    point: every point where two committed lines meet is forced in, until
    nothing new is forced.  A branch is pruned when a forced point is not
    quadruple, was left out earlier, or the lines outgrow ``size``.  Every
    line of a found subconfiguration therefore passes through at least one
    of its quadruple points; all-skew subsets do not count.  Points where
    more than four ambient lines meet are never subsampled.  Each witness's
    ``scan.tally`` is checked to be all quadruple before it is returned.

    Returns sorted tuples of line indices, at most ``max_solutions`` of
    them (None means all, otherwise at least 1), in deterministic order.
    """
    check_subconfiguration_size(size)
    if max_solutions is not None and max_solutions < 1:
        raise ValueError("max_solutions must be None (all) or at least 1")
    points = scan.points
    # Where each pair of lines meets: point index in scan order, or absent.
    meet = {pair: pid for pid, sp in enumerate(points) for pair in combinations(sp.lines, 2)}
    quads = [pid for pid, sp in enumerate(points) if sp.multiplicity == 4]
    solutions: list[tuple[int, ...]] = []

    def close(chosen: frozenset, lines: frozenset, excluded: frozenset):
        """The least closed point set containing ``chosen``; None on contradiction."""
        while len(lines) <= size:
            forced = {meet[p] for p in combinations(sorted(lines), 2) if p in meet} - chosen
            if not forced:
                return chosen, lines
            if any(points[pid].multiplicity != 4 or pid in excluded for pid in forced):
                return None
            chosen |= forced
            lines = lines.union(*(points[pid].lines for pid in forced))
        return None

    # Depth-first on an explicit stack, the branch with the point in popped
    # before the one without it.  A recursive closure would hold itself in
    # its own cell, a cycle that keeps ``points`` and ``meet`` alive past
    # the return until a cyclic collection.
    stack = [(0, frozenset(), frozenset(), frozenset())]
    while stack:
        i, chosen, lines, excluded = stack.pop()
        if len(lines) == size and chosen:
            solutions.append(tuple(sorted(lines)))
            if max_solutions is not None and len(solutions) >= max_solutions:
                break
            continue
        if i == len(quads):
            continue
        pid = quads[i]
        if pid in chosen or pid in excluded:
            stack.append((i + 1, chosen, lines, excluded))
            continue
        stack.append((i + 1, chosen, lines, excluded | {pid}))
        closed = close(chosen | {pid}, lines.union(points[pid].lines), excluded)
        if closed:
            stack.append((i + 1, *closed, excluded))
    if any(set(scan.tally(chosen)) != {4} for chosen in solutions):
        raise AssertionError("search produced an invalid subconfiguration")
    return sorted(solutions)


def extremal_profile_search(
    n: int,
    d: int,
    k_max: int,
    limit: Optional[int] = None,
) -> list[tuple[IncidenceProfile, Optional[Fraction]]]:
    """Enumerate abstract t-vectors compatible with Miyaoka, most negative H_L first.

    Lists every t-vector over multiplicities 2..min(k_max, d) that meets
    the pair-count feasibility sum (k^2-k) t_k <= d(d-1) and passes
    Miyaoka's inequality, sorted by H_L ascending and then by t; the
    profile with s = 0 carries no value and comes last.

    The tails t_3..t_k are listed one by one.  For a fixed tail the
    admissible t_2 form one run lo..hi: Miyaoka's left side falls by one
    per unit of t_2, so it gives the lower end
    lo = max(0, n*d + sum_{k>=3} (k-4) t_k - 2n(n-1)^2), and pair
    feasibility gives the upper end hi = (d(d-1) - sum_{k>=3} (k^2-k) t_k) // 2.

    Each tail builds one profile through ``IncidenceProfile.__init__``,
    its run's upper end with t_2 = hi, whose validation certifies the pair
    budget for the whole run.  Every other profile of the run is lowered
    from it by ``IncidenceProfile._lowered``, the one builder of lowered
    profiles, behind one range check (a lower t_2 only lowers the pair
    weight): the certificates' profiles one at a time through
    ``_with_t2``, and each run's rows in one call, so the certificates see
    what the rows are built by.  ``miyaoka_check`` must hold at lo and,
    when lo > 0, fail at lo - 1 (an empty run must fail at hi).  On a run,
    with a = (2-n)d - sum_{k>=3} k t_k and s_tail = sum_{k>=3} t_k
    computed once, H_L = (a - 2 t_2)/(s_tail + t_2) in closed form, and
    ``harbourne_linear`` of the run's first profile with s > 0 must equal
    it.  Every run is certified, under a ``limit`` too; a failed
    certificate raises ``AssertionError``.  The rows of one run share its
    upper end's read-only tail, so a row costs a profile and a small
    t-vector.

    The sort key is one exact integer per row.  Every s is at most
    S = d(d-1)/2, since each point uses at least one pair of lines, so two
    distinct values p/s and p'/s' of H_L differ by at least
    1/(s s') >= 1/S^2, and floor(S^2 * H_L) = (a - 2 t_2) S^2 // (s_tail + t_2)
    orders them exactly: their scaled values differ by at least 1, so
    their floors differ.  Conversely equal values get equal floors.  Ties
    go by t: t_2, with t_2 = 0 after every t_2 > 0 (its t starts at a
    larger multiplicity), then the tail's items.  With top = S + 1
    standing for t_2 = 0, a row's key is

        floor(S^2 * H_L) * (top + 1) + (t_2 or top),

    and since 1 <= (t_2 or top) <= top the keys sort as the pairs
    (floor, t_2 or top) do.  The runs are sorted once by their tail items
    and their rows are built in that order, so one stable sort of all the
    rows by their keys leaves equal keys in the order of their tails: the
    key holds no run, and no key is decoded.  Each row is valued by the
    closed form as its run is keyed, through a dict keyed by floor, so the
    rows of one value share one ``Fraction``.  The keys sit beside the
    rows only until the sort has read them.

    H_L rises strictly along a run, since dH_L/dt_2 has the sign of
    (n-2)d + sum_{k>=3} (k-2) t_k > 0, and so does the key.  Under
    ``limit`` each run is keyed only for its first ``limit`` rows, and
    only the rows keyed at or below the ``limit``-th smallest of those keys
    are built: a prefix of each run, ``limit`` rows in all plus any that
    tie at that key, which the sort puts last and the cut drops.

    The search makes no reference cycle, so the returned rows are freed
    by refcount as soon as the caller drops them.  Everything made while
    the search lists its tails, keys, builds and sorts its rows is acyclic
    (ints, tuples, ranges, lists, dicts of ints or Fractions, slotted
    profiles and t-vectors, Fractions, ``keyed`` and the sort's key
    function), so a cyclic collection could find nothing in it; the collector is
    paused over that part, so that its passes over the young rows are not
    paid for, and put back in its previous state on return or raise.

    The degree gate is ``_miyaoka_rhs``, which refuses n < 4 and gives
    the right side 2n(n-1)^2; ``catalog.check_line_count`` refuses a d
    above the line-count bound.  The profiles are purely combinatorial
    candidates: nothing here certifies that a configuration of actual
    lines realizes them.
    """
    rhs = _miyaoka_rhs(n)
    if d < 1:
        raise ValueError("the search needs at least one line")
    check_line_count(n, d)
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

    pairs = budget // 2
    scale = pairs * pairs
    top = pairs + 1  # above every t_2: stands for t_2 = 0 in a key
    radix = top + 1
    # Each nonempty run as (tail items, a, s_tail, t_2 = lo..hi, upper end).
    runs: list[tuple[tuple, int, int, range, IncidenceProfile]] = []
    has_empty = False

    # Acyclic from here on (see above): no cyclic collection can free anything.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Every tail t_3..t_k, as its (k, t_k) items in increasing k, with the
        # pair budget it leaves.
        tails: list[tuple[tuple, int]] = [((), budget)]
        for k in ks[1:]:
            weight = k * k - k
            tails = [
                (tail + ((k, count),) if count else tail, left - weight * count)
                for tail, left in tails
                for count in range(left // weight + 1)
            ]
        # Each tail's run t_2 = lo..hi, certified on profiles lowered from
        # its upper end, the one profile validated by __init__ per tail.
        for tail, left in tails:
            lo = max(0, n * d + sum((k - 4) * c for k, c in tail) - rhs)
            hi = left // 2
            end = IncidenceProfile(n, d, dict(((2, hi), *tail)))
            # Miyaoka holds at lo and fails just below it, when lo > 0; an
            # empty run fails at hi.
            for t2, holds in ((hi, False),) if lo > hi else ((lo, True), (lo - 1, False)):
                if t2 >= 0 and miyaoka_check(end._with_t2(t2)).holds != holds:
                    raise AssertionError(
                        f"Miyaoka run endpoint t_2 = {t2} misplaced for tail {tail}"
                    )
            if not tail and not lo:  # s = 0: the empty profile, listed last with no value
                has_empty = True
                lo = 1
            if lo > hi:
                continue
            a = (2 - n) * d - sum(k * c for k, c in tail)
            s_tail = sum(c for _, c in tail)
            # Equal as rationals, by cross-multiplying: no second Fraction to reduce.
            h = harbourne_linear(end._with_t2(lo))
            if h.numerator * (s_tail + lo) != (a - 2 * lo) * h.denominator:
                raise AssertionError(f"closed-form H_L disagrees at t_2 = {lo} for tail {tail}")
            runs.append((tail, a, s_tail, range(lo, hi + 1), end))
        # Rows are built in the order of tail items, which the stable sort
        # below keeps among equal keys.  Tails are distinct, so this sort
        # compares nothing after them.
        runs.sort()

        def keyed(a, s_tail, t2s):
            """floor(S^2 H_L) and the key of each row t_2 in ``t2s`` of a run."""
            floors = [(a - 2 * t2) * scale // (s_tail + t2) for t2 in t2s]
            return floors, [f * radix + (t2 or top) for f, t2 in zip(floors, t2s)]

        # Keys rise along a run: under `limit` only its first `limit` rows
        # are keyed, and only those keyed at or below the cut are built.
        keyed_runs = (keyed(a, s_tail, t2s[:limit]) for _, a, s_tail, t2s, _ in runs)
        if limit is not None:
            keyed_runs = list(keyed_runs)
            cut = max(nsmallest(limit, chain.from_iterable(k for _, k in keyed_runs)), default=None)
        keys: list[int] = []
        rows: list = []
        values: dict[int, Fraction] = {}  # by floor: one Fraction per value of H_L
        for (_, a, s_tail, t2s, end), (floors, run_keys) in zip(runs, keyed_runs):
            if limit is not None:
                kept = bisect_right(run_keys, cut)
                if not kept:
                    continue
                t2s, run_keys = t2s[:kept], run_keys[:kept]
            keys += run_keys
            rows += zip(end._lowered(t2s), [
                values[f] if f in values else values.setdefault(f, Fraction(a - 2 * t2, s_tail + t2))
                for f, t2 in zip(floors, t2s)
            ])
        # list.sort computes each row's key once, in list order, before it
        # compares any: the keys are read in the order they were made.  Each
        # row reaches ``next`` only as its unused default.
        rows.sort(key=partial(next, iter(keys)))
        del keys
        if limit is not None:
            del rows[limit:]
        if has_empty and (limit is None or len(rows) < limit):
            rows.append((IncidenceProfile(n=n, d=d), None))
    finally:
        if was_enabled:
            gc.enable()
    return rows
