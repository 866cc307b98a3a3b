"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A :class:`CycloNum` is an element of Q(zeta_m).  Its value is the
canonical representative, the unique polynomial in zeta_m of degree below
phi(m) obtained by reducing modulo the m-th cyclotomic polynomial, and it
is stored as integers: a tuple ``nums`` of phi(m) integer numerators over
one positive integer denominator ``den``, in lowest terms
(gcd(den, *nums) == 1).  The cyclotomic polynomial is the minimal
polynomial of zeta_m over Q, so two elements with the same conductor are
equal exactly when their ``nums`` and ``den`` are equal.  Equality and
zero-testing are therefore decidable with no tolerance, which is what
every exact geometric predicate downstream relies on.

Every operation computes on integers and passes its result through one
reduce-and-sign step (:func:`_reduced`), which divides out the common
gcd and makes the denominator positive; with denominator 1, as most
Fermat coordinates have, the step does nothing.  A sum of products,
:func:`dot`, is summed over one common denominator and takes that step
once, not once per product and partial sum.  A negation and the zero of
an empty :func:`dot` (the shared ``CycloNum.zero(m)``) are reduced already.

Products, Galois conjugates and the sums of products of :func:`dot` take
one of two paths, chosen once per conductor by :func:`_kernels`.  For
phi(m) <= 8 (the fields of the Fermat lines up to degree 8, and
Q(zeta_8) of the quartic's lines) the product and conjugates are
straight-line Python, with the reduction modulo Phi_m folded in as
integer literals, and a sum adds up each term's reduced product.  Above
that nothing is generated: one loop that skips zero coefficients
convolves every term of a sum and folds the high powers by
:func:`_shift_rows` once, a product is its one-term case, and conjugates
combine :func:`_conjugate_rows`.  Past phi(m) = 8 a kernel's fixed
phi(m)^2 products cost more than the loop's on the monomials that most
Fermat coordinates are.
``fractions.Fraction`` appears only where rationals cross the boundary:
a ``Fraction`` given as a coefficient or scalar, the
:attr:`CycloNum.coeffs` view that ``str`` and ``repr`` print, and
comparing or hashing against a rational.  Past this module the scan's
point order, the JSON text and the lines loader's integer strings read
``nums`` and ``den`` as integers; only "p/q" input is parsed by
``Fraction``.

No floating point is used anywhere in this module.  Values are immutable
and all operations are pure.

Polynomials are represented as dense coefficient sequences, constant term
first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction]


class ConductorMismatch(ValueError):
    """Combining cyclotomic numbers that live in different fields."""


def mismatch(a: int, b: int) -> ConductorMismatch:
    """The one error for mixed fields; hot paths compare inline and call this to raise."""
    return ConductorMismatch(f"cannot combine Q(zeta_{a}) with Q(zeta_{b})")


# ---------------------------------------------------------------------------
# Integer polynomial helpers (constant term first).


def _int_poly_div_exact(num: Sequence[int], den: Sequence[int]) -> tuple[int, ...]:
    """Exact division of integer polynomials; ``den`` must be monic."""
    work = list(num)
    dn = len(work) - 1
    dd = len(den) - 1
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = work[k + dd]
        quot[k] = c
        if c:
            for i, b in enumerate(den):
                work[k + i] -= c * b
    if any(work):
        raise ArithmeticError("polynomial division is not exact")
    return tuple(quot)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """The m-th cyclotomic polynomial as integer coefficients, constant first.

    Computed recursively: x^m - 1 divided by the product of Phi_d over the
    proper divisors d of m.  Monic of degree phi(m), so ``len(...) - 1``
    is the library's one source of phi(m).  The one conductor check:
    ``CycloNum`` and ``zeta`` call this before using m.
    """
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    poly: tuple[int, ...] = (-1,) + (0,) * (m - 1) + (1,)
    for d in range(1, m):
        if m % d == 0:
            poly = _int_poly_div_exact(poly, cyclotomic_polynomial(d))
    return poly


@lru_cache(maxsize=None)
def _shift_rows(m: int) -> tuple:
    """Pairs (k, the nonzero (index, value) entries of x^k mod Phi_m), k = f..2f-2, f = phi(m)."""
    f = len(cyclotomic_polynomial(m)) - 1
    base = tuple(-c for c in cyclotomic_polynomial(m)[:f])
    rows = []
    vec = base  # x^f mod Phi_m; each next row is this one times x, reduced
    for k in range(f, 2 * f - 1):
        rows.append((k, tuple((i, c) for i, c in enumerate(vec) if c)))
        vec = tuple(o + vec[-1] * b for o, b in zip((0,) + vec[:-1], base))
    return tuple(rows)


#: The largest phi(m) with straight-line kernels; above it the loops skip zeros faster.
_KERNEL_DEGREE = 8


def _lincomb(terms: Iterable[tuple[int, str]]) -> str:
    """Python source of the sum of c * name over (c, name), c a nonzero integer; "0" if empty."""
    parts = []
    for c, name in terms:
        body = name if abs(c) == 1 else f"{abs(c)}*{name}"
        parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts).removeprefix("+ ") or "0"


@lru_cache(maxsize=None)
def _kernels(m: int) -> tuple:
    """The operations of Q(zeta_m) on numerator vectors, ``(mul, conjugates, dot)``.

    ``mul(a, b)`` is the product reduced modulo Phi_m; ``conjugates(a)``
    lists the images of a under zeta -> zeta^k for the units k != 1 mod m,
    in the order of ``_conjugate_rows(m)``; ``dot(terms, den)`` is the sum
    of (den // d) * a * b over the triples (a, b, d), reduced modulo Phi_m.
    For phi(m) <= _KERNEL_DEGREE, mul and conjugates are generated
    straight-line source holding only integer literals and generated names:
    each low convolution sum plus the high sums h_k, bound once, times the
    entries of ``_shift_rows(m)``; dot adds up each term's product.  Above
    it dot is the one convolution loop, which skips zero coefficients and
    folds once at the end, and mul is its one-term case.
    """
    f = len(cyclotomic_polynomial(m)) - 1
    if f > _KERNEL_DEGREE:
        shifts = _shift_rows(m)

        def dot(terms, den):
            acc = [0] * (2 * f - 1)
            for a, b, d in terms:
                scale = den // d
                for i, ai in enumerate(a):
                    if ai:
                        if scale != 1:
                            ai *= scale
                        for j, bj in enumerate(b):
                            if bj:
                                acc[i + j] += ai * bj
            for k, row in shifts:
                c = acc[k]
                if c:
                    for i, r in row:
                        acc[i] += c * r
            return acc[:f]

        def mul(a, b):
            return dot(((a, b, 1),), 1)

        def conjugates(a):
            return (_combine(a, rows) for rows in _conjugate_rows(m))

        return mul, conjugates, dot
    a_names, b_names = (", ".join(f"{v}{i}" for i in range(f)) + "," for v in "ab")
    conv: list[list[tuple[int, str]]] = [[] for _ in range(2 * f - 1)]
    for i in range(f):
        for j in range(f):
            conv[i + j].append((1, f"a{i}*b{j}"))
    low = conv[:f]
    src = ["def mul(a, b):", f"    {a_names} = a", f"    {b_names} = b"]
    for k, row in _shift_rows(m):
        src.append(f"    h{k} = {_lincomb(conv[k])}")
        for i, r in row:
            low[i].append((r, f"h{k}"))
    src.append(f"    return ({', '.join(map(_lincomb, low))},)")
    src += ["def conjugates(a):", f"    {a_names} = a", "    return ("]
    for rows in _conjugate_rows(m):
        cols = [[(row[idx], f"a{i}") for i, row in enumerate(rows) if row[idx]] for idx in range(f)]
        src.append(f"        ({', '.join(map(_lincomb, cols))},),")
    src.append("    )")
    namespace: dict = {"__builtins__": {}}
    exec(compile("\n".join(src), f"<exactnum kernels for Q(zeta_{m})>", "exec"), namespace)
    kernel = namespace["mul"]

    def dot(terms, den):
        acc = None
        for a, b, d in terms:
            p = kernel(a, b)
            if d != den:
                scale = den // d
                p = [x * scale for x in p]
            acc = p if acc is None else tuple(map(add, acc, p))
        return acc

    return kernel, namespace["conjugates"], dot


def _combine(nums: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
    """The integer vector sum of nums[i] * rows[i]."""
    acc = [0] * len(rows[0])
    for c, row in zip(nums, rows):
        if c:
            for idx, r in enumerate(row):
                if r:
                    acc[idx] += c * r
    return acc


@lru_cache(maxsize=None)
def _conjugate_rows(m: int) -> tuple:
    """For each unit k != 1 mod m, the images of zeta^0..zeta^(f-1) under zeta -> zeta^k."""
    f = len(cyclotomic_polynomial(m)) - 1
    return tuple(
        tuple(_zeta_pow_vec(m, i * k) for i in range(f))
        for k in range(2, m)
        if gcd(k, m) == 1
    )


# ---------------------------------------------------------------------------


def _coeff(value) -> Scalar:
    if isinstance(value, bool):
        raise TypeError("cannot use bool as a cyclotomic coefficient")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"cannot use {type(value).__name__} as a cyclotomic coefficient")


def _reduced(m: int, nums: Sequence[int], den: int) -> "CycloNum":
    """The element nums / den of Q(zeta_m), den != 0, stored in lowest terms with den > 0."""
    if den != 1:
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    self = CycloNum.__new__(CycloNum)
    self.m = m
    self.nums = tuple(nums)
    self.den = den
    return self


def _sum(x: "CycloNum", y: "CycloNum", op) -> "CycloNum":
    """x + y or x - y (``op`` is operator.add or operator.sub) over lcm(x.den, y.den)."""
    dx, dy = x.den, y.den
    if dx == dy:
        return _reduced(x.m, tuple(map(op, x.nums, y.nums)), dx)
    g = gcd(dx, dy)
    sx, sy = dy // g, dx // g
    return _reduced(x.m, [op(a * sx, b * sy) for a, b in zip(x.nums, y.nums)], dx * sx)


class CycloNum:
    """An element of Q(zeta_m) in canonical reduced form.

    ``nums`` has length phi(m); entry i over ``den`` is the rational
    coefficient of zeta_m^i.  ``den`` is positive and shares no factor with
    all of ``nums``, so the pair is unique for each value; zero is
    (0, ..., 0) over 1.  Construction reduces arbitrary-degree input modulo
    the m-th cyclotomic polynomial, so zeta_m^m == 1 and Phi_m(zeta_m) == 0
    hold under the arithmetic.  ``coeffs`` is the same vector as rationals,
    for printing; the serialized text is written from ``nums`` and ``den``.
    """

    __slots__ = ("m", "nums", "den")

    m: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, m: int, coeffs: Iterable = ()):  # noqa: D107 (class doc covers it)
        f = len(cyclotomic_polynomial(m)) - 1
        vec = [_coeff(c) for c in coeffs]
        den = lcm(*(c.denominator for c in vec))
        nums = [c.numerator * (den // c.denominator) for c in vec]
        if len(nums) > f:
            nums = _combine(nums, [_zeta_pow_vec(m, i) for i in range(len(nums))])
        nums.extend([0] * (f - len(nums)))
        value = _reduced(m, nums, den)
        self.m, self.nums, self.den = m, value.nums, value.den

    @property
    def coeffs(self) -> tuple:
        """The coefficient vector: ``int`` where integral, else a reduced ``Fraction``."""
        den = self.den
        if den == 1:
            return self.nums
        return tuple(Fraction(x, den) if x % den else x // den for x in self.nums)

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, m: int, value: Scalar) -> "CycloNum":
        """Embed a rational number into Q(zeta_m)."""
        f = len(cyclotomic_polynomial(m)) - 1
        value = _coeff(value)
        return _reduced(m, (value.numerator,) + (0,) * (f - 1), value.denominator)

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(m: int) -> "CycloNum":
        """The one stored zero of Q(zeta_m); values are immutable, so it is shared."""
        return CycloNum.rational(m, 0)

    @classmethod
    def one(cls, m: int) -> "CycloNum":
        return cls.rational(m, 1)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.m != self.m:
                raise mismatch(self.m, other.m)
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.rational(self.m, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, add)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(other, self, sub)

    def __neg__(self):
        neg = CycloNum.__new__(CycloNum)  # lowest terms and den > 0 still hold: no gcd
        neg.m, neg.nums, neg.den = self.m, tuple([-x for x in self.nums]), self.den
        return neg

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _reduced(self.m, [x * p for x in self.nums], self.den * other.denominator)
        if isinstance(other, CycloNum):
            if other.m != self.m:
                raise mismatch(self.m, other.m)
            product = _kernels(self.m)[0](self.nums, other.nums)
            return _reduced(self.m, product, self.den * other.den)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """The multiplicative inverse.

        A monomial (c / D) * zeta^k inverts in closed form to
        (D / c) * zeta^(m-k).  Any other value a = A / D inverts through
        the Galois norm: the product Q of the conjugates zeta -> zeta^k of
        the numerators A over the units k != 1 mod m is an integer vector,
        and A * Q is the product of all conjugates of A, the integer norm N
        (nonzero because a is).  So a^-1 = Q * D / N.
        """
        m, a, den = self.m, self.nums, self.den
        support = [k for k, c in enumerate(a) if c]
        if not support:
            raise ZeroDivisionError(f"inverse of zero in Q(zeta_{m})")
        if len(support) == 1:
            k = support[0]
            return _reduced(m, [den * x for x in _zeta_pow_vec(m, -k)], a[k])
        mul, conjugates, _ = _kernels(m)
        images = iter(conjugates(a))
        prod = next(images)
        for c in images:
            prod = mul(prod, c)
        norm = mul(a, prod)
        if any(norm[1:]):
            raise AssertionError(f"norm of {self!r} is not rational")
        return _reduced(m, [c * den for c in prod], norm[0])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            q = other.denominator
            return _reduced(self.m, [x * q for x in self.nums], self.den * other.numerator)
        if isinstance(other, CycloNum):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> "CycloNum":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycloNum.one(self.m)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycloNum):
            return self.m == other.m and self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return (
                self.is_rational()
                and self.nums[0] == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.nums[0] if self.den == 1 else Fraction(self.nums[0], self.den))
        return hash((self.m, self.den, self.nums))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return _poly_str(self.coeffs)

    def __repr__(self) -> str:
        return f"CycloNum({self.m}, {list(self.coeffs)!r})"

    # -- reduction mod p -------------------------------------------------------

    def residue(self) -> Optional[int]:
        """The image in F_p under zeta_m -> r, with (p, r) = residue_field(m).

        None when p divides ``den``, where the map is undefined; p is prime,
        so that is exactly when it divides some coefficient's denominator.
        A nonzero residue proves the value nonzero.  The numerators map to
        F_p first, then ``den`` is inverted once.
        """
        p, powers = _residue_powers(self.m)
        acc = sum(map(mul, self.nums, powers))
        if self.den == 1:
            return acc % p
        if not self.den % p:
            return None
        return acc * pow(self.den, -1, p) % p


def dot(m: int, xs: Sequence[CycloNum], ys: Sequence[CycloNum]) -> CycloNum:
    """The sum of x_k * y_k over Q(zeta_m), with one reduction in all.

    Each term with both factors nonzero is multiplied on its integer
    numerators and scaled to D, the lcm of the terms' denominators
    x_k.den * y_k.den, and the conductor's ``dot`` from :func:`_kernels`
    sums them reduced modulo Phi_m.  The integer sum is put in lowest
    terms over D once, by ``_reduced``.  Raises ConductorMismatch if a
    factor's conductor is not m, and ValueError if the sequences differ
    in length.
    """
    terms = []
    den = 1
    for x, y in zip(xs, ys, strict=True):
        if x.m != m or y.m != m:
            raise mismatch(m, y.m if x.m == m else x.m)
        if any(x.nums) and any(y.nums):
            d = x.den * y.den
            terms.append((x.nums, y.nums, d))
            if den % d:
                den = lcm(den, d)
    if not terms:
        return CycloNum.zero(m)
    return _reduced(m, _kernels(m)[2](terms, den), den)


# Deterministic Miller-Rabin witnesses: exact for every n below 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def residue_field(m: int) -> tuple[int, int]:
    """The first prime p = 1 (mod m) above 2^61, and r of exact order m in F_p.

    Then Phi_m(r) = 0 in F_p, so zeta_m -> r is a ring homomorphism from
    the p-integral elements of Q(zeta_m) onto F_p.  r is the first
    a^((p-1)/m), a = 2, 3, ..., whose order is m.
    """
    floor = 1 << 61
    p = floor + ((1 - floor) % m or m)
    while not _is_prime(p):
        p += m
    primes = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    a = 2
    while True:
        r = pow(a, (p - 1) // m, p)
        if all(pow(r, m // q, p) != 1 for q in primes):
            return p, r
        a += 1


@lru_cache(maxsize=None)
def _residue_powers(m: int) -> tuple[int, tuple[int, ...]]:
    p, r = residue_field(m)
    return p, tuple(pow(r, i, p) for i in range(len(cyclotomic_polynomial(m)) - 1))


@lru_cache(maxsize=None)
def _zeta_powers(m: int) -> tuple:
    """The coefficient vectors of x^0..x^(m-1) mod Phi_m, each row the one before times x."""
    f = len(cyclotomic_polynomial(m)) - 1
    base = tuple(-c for c in cyclotomic_polynomial(m)[:f])
    rows = [(0,) * k + (1,) + (0,) * (f - k - 1) for k in range(f)]
    vec = base  # x^f mod Phi_m
    for _ in range(f, m):
        rows.append(vec)
        vec = tuple(o + vec[-1] * b for o, b in zip((0,) + vec[:-1], base))
    return tuple(rows)


def _zeta_pow_vec(m: int, k: int) -> tuple:
    """The coefficient vector of zeta_m^k, for any integer k (x^m = 1 mod Phi_m).

    ``_zeta_powers`` checks m before ``k % m`` could divide by zero.
    """
    return _zeta_powers(m)[k % m]


def zeta(m: int, k: int = 1) -> CycloNum:
    """zeta_m^k, the k-th power of the chosen primitive m-th root of unity."""
    return _reduced(m, _zeta_pow_vec(m, k), 1)


def nth_roots_of_minus_one(n: int) -> list[CycloNum]:
    """All n solutions of X^n = -1, as elements of Q(zeta_{2n}).

    These are zeta_{2n}^(2j+1) for j = 0..n-1, the odd powers of a
    primitive 2n-th root of unity.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return [zeta(2 * n, 2 * j + 1) for j in range(n)]


def _poly_str(coeffs: Sequence) -> str:
    """Human-readable polynomial in z, the root of unity, highest degree first."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}z" if i == 1 else f"{head}z^{i}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts) if parts else "0"
