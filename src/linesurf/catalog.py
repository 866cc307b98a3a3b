"""Named line configurations on smooth hypersurfaces of P^3.

Explicit lines are constructed only for Fermat hypersurfaces
x^n + y^n + z^n + w^n = 0, whose classical 3n^2 lines come in three
families indexed by pairs of n-th roots of -1.  The Rams grid, the Schur
quartic and the cubic-surface configurations enter as abstract incidence
profiles (n, d, {t_k}): every derived quantity downstream depends only on
that data.

``NAMED`` is the one home of the named configurations: each entry gives
its parameter, its profile builder and its line builder, and the CLI
derives its --surface choices and flags from it.
"""

from __future__ import annotations

from collections.abc import Callable, ItemsView, Mapping, Sequence
from dataclasses import FrozenInstanceError, dataclass
from typing import NamedTuple, Optional

from .exactnum import CycloNum, mismatch, nth_roots_of_minus_one
from .projgeom import ProjLine, ProjPoint


class ProfileError(ValueError):
    """An incidence profile or arrangement violates a structural invariant."""


def check_degree(n: int) -> int:
    """``n``; the one check that a surface degree is an integer n >= 3 (``ProfileError``)."""
    if type(n) is not int or n < 3:  # bool is an int subclass
        raise ProfileError("surface degree n must be an integer >= 3")
    return n


class TVector(Mapping):
    """A read-only t-vector {k: t_k}: t_2, and a tail of (k, t_k) pairs for k >= 3.

    Only ``IncidenceProfile`` builds one, from counts it has validated: t_2
    is 0 when there are no double points, the tail is a tuple in increasing
    k with every count positive.  Iteration gives 2 first, when t_2 > 0,
    then the tail's keys, so every view is in increasing k; ``items()``
    reads the two slots directly, ``values()`` is ``Mapping``'s own view.
    There is no item assignment, deletion, ``pop`` or ``update``, so a
    profile's hash cannot drift; since nothing can change the tail, the
    profiles of one run share a single tail tuple.  A t-vector equals any
    mapping with the same items, a dict included.
    """

    __slots__ = ("_t2", "_tail")

    def __init__(self, t2: int, tail: tuple[tuple[int, int], ...]):
        self._t2 = t2
        self._tail = tail

    def __getitem__(self, k):
        if k == 2 and self._t2:
            return self._t2
        for key, count in self._tail:
            if key == k:
                return count
        raise KeyError(k)

    def __iter__(self):
        if self._t2:
            yield 2
        for k, _ in self._tail:
            yield k

    def __len__(self):
        return len(self._tail) + (self._t2 > 0)

    def items(self):
        return _TItems(self)

    def __eq__(self, other):
        if type(other) is TVector:
            return self._t2 == other._t2 and self._tail == other._tail
        return super().__eq__(other)

    __hash__ = None  # equal to dicts, which are unhashable

    def __reduce__(self):  # copy and pickle under every protocol
        return TVector, (self._t2, self._tail)

    def __repr__(self):
        return repr(dict(self.items()))


class _TItems(ItemsView):
    """``TVector.items()``: the pairs read straight from t_2 and the tail."""

    __slots__ = ()

    def __iter__(self):
        t = self._mapping
        if t._t2:
            yield 2, t._t2
        yield from t._tail


# The default t: the empty t-vector, read-only like every other.
_NO_POINTS = TVector(0, ())


@dataclass(slots=True, init=False)
class IncidenceProfile:
    """The combinatorial record (n, d, {t_k}) of a line configuration.

    ``t[k]`` counts the points where exactly k of the d lines meet;
    entries with count 0 are dropped.  Construction is where every caller,
    the profile-file loader included, has n (``check_degree``), d and each
    count checked for type, and the pair count (sum of (k^2 - k) t_k
    cannot exceed d(d-1)) checked for feasibility.

    A profile is frozen: every assignment and ``del`` raises
    ``FrozenInstanceError``, for field and non-field names alike.  ``t``
    is a read-only ``TVector`` in increasing k, built once from the
    validated counts; ``p.t[k] = c``, ``del p.t[k]`` and ``p.t.pop``
    raise.  ``s``, ``t2`` and the hash read t's two slots, t_2 and the
    tail.  A profile hashes over (n, d, t_2, tail), so it can be a set
    member or dict key.  The profiles ``_with_t2`` lowers from one profile
    share its tail: an extremal search's rows of one run hold one tail.
    """

    n: int
    d: int
    t: Mapping[int, int]

    def __init__(self, n: int, d: int, t: Mapping[int, int] = _NO_POINTS):
        check_degree(n)
        if type(d) is not int or d < 0:  # bool is an int subclass
            raise ProfileError(f"line count d must be a nonnegative integer: d = {d!r}")
        for k, count in t.items():  # first, so that sorted(t) below sees int keys only
            if type(k) is not int or type(count) is not int:
                raise ProfileError(
                    f"multiplicities and counts must be integers: t_{k!r} = {count!r}"
                )
        cleaned: dict[int, int] = {}
        pair_weight = 0
        for k in sorted(t):
            count = t[k]
            if count < 0:
                raise ProfileError(f"count t_{k} must be nonnegative")
            if count == 0:
                continue
            if k < 2 or k > d:
                raise ProfileError(
                    f"multiplicity {k} outside the valid range 2..{d}"
                )
            cleaned[k] = count
            pair_weight += (k * k - k) * count
        if pair_weight > d * (d - 1):
            raise ProfileError(
                "pair-count feasibility violated: "
                f"sum (k^2-k) t_k = {pair_weight} exceeds d(d-1) = {d * (d - 1)}"
            )
        _set_n(self, n)
        _set_d(self, d)
        _set_t(self, TVector(cleaned.pop(2, 0), tuple(cleaned.items())))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self):
        t = self.t
        return hash((self.n, self.d, t._t2, t._tail))

    def __reduce__(self):  # copy and pickle rebuild through __init__, from a dict
        return type(self), (self.n, self.d, dict(self.t.items()))

    def _with_t2(self, t2: int) -> "IncidenceProfile":
        """This profile with t_2 lowered to ``t2``, without running ``__init__``.

        Lowering t_2 lowers only the pair weight sum (k^2-k) t_k and leaves
        every other entry as it is, so a valid profile stays valid: the
        range 0 <= t2 <= t_2 is the one check left.  The new profile's t
        is one small ``TVector`` that shares this profile's tail: no key 2
        when ``t2`` is 0.  It is built by ``_lowered``, as a run of them is.
        """
        if type(t2) is not int or not 0 <= t2 <= self.t._t2:
            raise ProfileError(f"t_2 = {t2!r} is not an integer in 0..{self.t._t2}")
        return self._lowered((t2,))[0]

    def _lowered(self, t2s: Sequence[int]) -> list["IncidenceProfile"]:
        """This profile with t_2 lowered to each value of ``t2s``, which increase.

        The one builder of lowered profiles, behind one check for all of
        them: the ends of ``t2s`` lie in 0..t_2, in order.  Each profile is
        the one ``_with_t2`` gives, and they all share this profile's tail.
        """
        t = self.t
        if t2s and not 0 <= t2s[0] <= t2s[-1] <= t._t2:
            raise ProfileError(f"t_2 = {t2s!r} does not increase within 0..{t._t2}")
        n, d, tail = self.n, self.d, t._tail
        # The loop runs once per row of a search, so what it calls is bound
        # to locals, and both objects are filled slot by slot, past
        # __init__: a t-vector's two slots cost less to write than its
        # __init__ call.
        new, set_n, set_d, set_t = object.__new__, _set_n, _set_d, _set_t
        profiles = []
        append = profiles.append
        for t2 in t2s:
            lowered = new(TVector)
            lowered._t2 = t2
            lowered._tail = tail
            profile = new(IncidenceProfile)
            set_n(profile, n)
            set_d(profile, d)
            set_t(profile, lowered)
            append(profile)
        return profiles

    @property
    def s(self) -> int:
        """Number of singular points: t_2 plus the tail's counts."""
        t = self.t
        return t._t2 + sum(count for _, count in t._tail)

    @property
    def t2(self) -> int:
        return self.t._t2


# The slots' own setters, which write past the frozen __setattr__: __init__
# and _lowered fill every profile's three slots through these.
_set_n = IncidenceProfile.n.__set__
_set_d = IncidenceProfile.d.__set__
_set_t = IncidenceProfile.t.__set__


@dataclass(frozen=True)
class Arrangement:
    """A finite set of distinct lines on a degree-n hypersurface."""

    n: int
    lines: tuple[ProjLine, ...]

    def __post_init__(self):
        check_degree(self.n)
        object.__setattr__(self, "lines", tuple(self.lines))
        seen: dict[ProjLine, int] = {}
        for i, line in enumerate(self.lines):
            if line.conductor != self.conductor:
                raise mismatch(self.conductor, line.conductor)
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


def max_lines_bound(n: int) -> int:
    """The line count n(7n - 12) that degree-n profiles and searches are held to.

    It is a count, not a proved bound for every n.  The split surfaces
    reach it at n = 4 (Schur, 64), n = 6 (180) and n = 12 (864).  Beyond
    the 27 lines of a smooth cubic it is proved only for smooth quartics
    (n = 4: Rams and Schütt, "64 lines on smooth quartic surfaces",
    arXiv:1212.3511).  The general bound is 11n^2 - 32n + 24 (Bauer and
    Rams, "Counting lines on projective surfaces", arXiv:1902.05133): equal
    at n = 3, larger by 4(n - 2)(n - 3) above.  Both citations are from
    memory and unchecked.
    """
    check_degree(n)
    return n * (7 * n - 12)


def check_line_count(n: int, d: int) -> int:
    """``max_lines_bound(n)``; the one check that refuses a d above it (``ProfileError``)."""
    bound = max_lines_bound(n)
    if d > bound:
        raise ProfileError(
            f"d = {d} exceeds the line-count bound n(7n-12) = {bound} for degree {n}"
        )
    return bound


def fermat_lines(n: int) -> Arrangement:
    """The classical 3n^2 lines on the Fermat hypersurface of degree n.

    With zeta, xi running over all n-th roots of -1 the families are

        A: x = zeta*y, z = xi*w     through (zeta,1,0,0) and (0,0,xi,1)
        B: x = zeta*z, y = xi*w     through (zeta,0,1,0) and (0,xi,0,1)
        C: x = zeta*w, y = xi*z     through (zeta,0,0,1) and (0,xi,1,0)

    Lines are ordered deterministically by (family, zeta index, xi index).
    """
    m = 2 * check_degree(n)
    roots = nth_roots_of_minus_one(n)
    zero = CycloNum.zero(m)
    one = CycloNum.one(m)

    lines: list[ProjLine] = []
    # Family A, B, C puts the first point's 1 in slot a = 1, 2, 3; the
    # second point takes xi and 1 in the other two slots b < c.
    for a in (1, 2, 3):
        b, c = (slot for slot in (1, 2, 3) if slot != a)
        for z in roots:
            for x in roots:
                p, q = [zero] * 4, [zero] * 4
                p[0], p[a], q[b], q[c] = z, one, x, one
                lines.append(ProjLine(ProjPoint(p), ProjPoint(q)))
    return Arrangement(n, tuple(lines))


def on_surface(line: ProjLine, n: int) -> bool:
    """Whether a line lies on x^n + y^n + z^n + w^n = 0 identically.

    On the line through p and q the surface equation restricts to a
    binary form of degree n in (s, t).  It is tested at the n+1 distinct
    points p + j*q, j = 0..n: a binary form of degree n that vanishes at
    n+1 distinct points is zero.
    """
    p, q = line.base
    for j in range(n + 1):
        total = CycloNum.zero(line.conductor)
        for a, b in zip(p.coords, q.coords):
            total = total + (a + j * b) ** n
        if not total.is_zero():
            return False
    return True


def fermat_profile(n: int) -> IncidenceProfile:
    """Incidence profile of the Fermat configuration: d = 3n^2, t_2 = 3n^3, t_n = 6n."""
    return IncidenceProfile(n=n, d=3 * n * n, t={2: 3 * n**3, n: 6 * n})


def rams_profile(n: int) -> IncidenceProfile:
    """Incidence profile of the grid configuration on the degree-n Rams hypersurface.

    A grid of n(n-2)+2 pairwise disjoint lines crossed by 2 disjoint
    lines: d = n(n-2)+4 lines with 2n^2-4n+4 double points and nothing
    else.
    """
    if n < 6:
        raise ProfileError("the Rams grid configuration requires degree n >= 6")
    return IncidenceProfile(n=n, d=n * (n - 2) + 4, t={2: 2 * n * n - 4 * n + 4})


def schur_profile() -> IncidenceProfile:
    """The 64 lines on the Schur quartic: 336 double, 64 triple, 8 quadruple points."""
    return IncidenceProfile(n=4, d=64, t={2: 336, 3: 64, 4: 8})


#: The Eckardt counts of smooth cubic surfaces (Segre; see Dolgachev,
#: *Classical Algebraic Geometry*): 18 is the Fermat cubic, 10 Clebsch's.
ECKARDT_COUNTS = (0, 1, 2, 3, 4, 6, 9, 10, 18)


def cubic_profile(t3: int) -> IncidenceProfile:
    """Profile of the 27 lines on a smooth cubic with t3 triple (Eckardt) points.

    The count identity t_2 + 3 t_3 = 135 fixes the double points.  Only
    the counts in ``ECKARDT_COUNTS`` occur on a smooth cubic.
    """
    if t3 not in ECKARDT_COUNTS:
        raise ProfileError(
            "the number of Eckardt points must be one of " + ", ".join(map(str, ECKARDT_COUNTS))
        )
    return IncidenceProfile(n=3, d=27, t={2: 135 - 3 * t3, 3: t3})


class NamedConfiguration(NamedTuple):
    """One named configuration: its one parameter, its profile and its lines.

    ``param`` names the integer the builders take ("degree" or "eckardt"),
    or is None for a builder that takes none.  ``lines`` is None where only
    a profile exists.  ``values`` lists the parameter values that exist,
    or is None where the builder's own check decides.
    """

    param: Optional[str]
    profile: Callable[..., IncidenceProfile]
    lines: Optional[Callable[..., Arrangement]]
    values: Optional[tuple[int, ...]] = None


# The named configurations, in the order the CLI lists them.
NAMED = {
    "fermat": NamedConfiguration("degree", fermat_profile, fermat_lines),
    "rams": NamedConfiguration("degree", rams_profile, None),
    "schur": NamedConfiguration(None, schur_profile, None),
    "cubic": NamedConfiguration("eckardt", cubic_profile, None, ECKARDT_COUNTS),
}
