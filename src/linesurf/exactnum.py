"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Rational scalars are ``fractions.Fraction`` (arbitrary precision, always
stored reduced with positive denominator).  A :class:`CycloNum` is an
element of Q(zeta_m): it stores its conductor m together with the
coefficient vector of its canonical representative, the unique polynomial
in zeta_m of degree below phi(m) obtained by reducing modulo the m-th
cyclotomic polynomial.  The cyclotomic polynomial is the minimal
polynomial of zeta_m over Q, so two elements with the same conductor are
equal exactly when their coefficient vectors are equal.  Equality and
zero-testing are therefore decidable with no tolerance, which is what
every exact geometric predicate downstream relies on.

No floating point is used anywhere in this module.  Values are immutable
and all operations are pure.

Polynomials are represented as dense coefficient sequences, constant term
first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction]


class ConductorMismatch(ValueError):
    """Combining cyclotomic numbers that live in different fields."""


def euler_phi(m: int) -> int:
    """Euler's totient, computed by trial-division factorization."""
    if m < 1:
        raise ValueError("euler_phi requires m >= 1")
    result = m
    p, rest = 2, m
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


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
    proper divisors d of m.  Monic of degree phi(m).
    """
    if m < 1:
        raise ValueError("cyclotomic_polynomial requires m >= 1")
    poly: tuple[int, ...] = (-1,) + (0,) * (m - 1) + (1,)
    for d in range(1, m):
        if m % d == 0:
            poly = _int_poly_div_exact(poly, cyclotomic_polynomial(d))
    return poly


@lru_cache(maxsize=None)
def _shift_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient vectors of x^f, x^(f+1), ..., x^(2f-2) mod Phi_m, f = phi(m)."""
    f = len(cyclotomic_polynomial(m)) - 1
    return tuple(_zeta_pow_vec(m, k) for k in range(f, 2 * f - 1))


def _qnorm(x):
    """Store integral values as int so canonical vectors stay lightweight."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _mul_vec(m: int, a: Sequence, b: Sequence) -> tuple:
    f = len(a)
    acc = [0] * (2 * f - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    acc[i + j] += ai * bj
    if f > 1:
        rows = _shift_rows(m)
        for k in range(2 * f - 2, f - 1, -1):
            c = acc[k]
            if c:
                row = rows[k - f]
                for idx, r in enumerate(row):
                    if r:
                        acc[idx] += c * r
    return tuple(_qnorm(x) for x in acc[:f])


def _combine(coeffs: Sequence, rows: Sequence[Sequence]) -> tuple:
    """The reduced vector sum of coeffs[i] * rows[i]."""
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for idx, r in enumerate(row):
                if r:
                    acc[idx] += c * r
    return tuple(_qnorm(x) for x in acc)


@lru_cache(maxsize=None)
def _conjugate_rows(m: int) -> tuple:
    """For each unit k != 1 mod m, the images of zeta^0..zeta^(f-1) under zeta -> zeta^k."""
    f = len(cyclotomic_polynomial(m)) - 1
    return tuple(
        tuple(_zeta_pow_vec(m, i * k % m) for i in range(f))
        for k in range(2, m)
        if gcd(k, m) == 1
    )


# ---------------------------------------------------------------------------


def _coeff(value) -> Scalar:
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return _qnorm(value)
    if isinstance(value, str):
        return _qnorm(Fraction(value))
    raise TypeError(f"cannot use {type(value).__name__} as a cyclotomic coefficient")


def _raw(m: int, coeffs: tuple) -> "CycloNum":
    self = CycloNum.__new__(CycloNum)
    self.m = m
    self.coeffs = coeffs
    return self


class CycloNum:
    """An element of Q(zeta_m) in canonical reduced form.

    ``coeffs`` has length phi(m); entry i is the rational coefficient of
    zeta_m^i.  Construction reduces arbitrary-degree input modulo the m-th
    cyclotomic polynomial, so zeta_m^m == 1 and Phi_m(zeta_m) == 0 hold
    under the arithmetic.
    """

    __slots__ = ("m", "coeffs")

    m: int
    coeffs: tuple

    def __init__(self, m: int, coeffs: Iterable = ()):  # noqa: D107 (class doc covers it)
        if m < 1:
            raise ValueError("conductor must be a positive integer")
        f = len(cyclotomic_polynomial(m)) - 1
        vec = [_coeff(c) for c in coeffs]
        if len(vec) > f:
            vec = list(_combine(vec, [_zeta_pow_vec(m, i % m) for i in range(len(vec))]))
        vec.extend([0] * (f - len(vec)))
        self.m = m
        self.coeffs = tuple(vec)

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, m: int, value: Scalar) -> "CycloNum":
        """Embed a rational number into Q(zeta_m)."""
        f = len(cyclotomic_polynomial(m)) - 1
        return _raw(m, (_coeff(value),) + (0,) * (f - 1))

    @classmethod
    def zero(cls, m: int) -> "CycloNum":
        return cls.rational(m, 0)

    @classmethod
    def one(cls, m: int) -> "CycloNum":
        return cls.rational(m, 1)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.m != self.m:
                raise ConductorMismatch(
                    f"cannot combine Q(zeta_{self.m}) with Q(zeta_{other.m})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.rational(self.m, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _raw(self.m, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _raw(self.m, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _raw(self.m, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return CycloNum.zero(self.m)
            return _raw(self.m, tuple(_qnorm(a * other) for a in self.coeffs))
        if isinstance(other, CycloNum):
            if other.m != self.m:
                raise ConductorMismatch(
                    f"cannot combine Q(zeta_{self.m}) with Q(zeta_{other.m})"
                )
            return _raw(self.m, _mul_vec(self.m, self.coeffs, other.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """The multiplicative inverse P / N(a), through the Galois norm.

        P is the product of the conjugates zeta -> zeta^k of a over the
        units k != 1 mod m, so a * P is the product of all conjugates, the
        norm N(a): a rational, nonzero because a is.
        """
        if self.is_zero():
            raise ZeroDivisionError(f"inverse of zero in Q(zeta_{self.m})")
        m, a = self.m, self.coeffs
        prod = (1,) + (0,) * (len(a) - 1)
        for rows in _conjugate_rows(m):
            prod = _mul_vec(m, prod, _combine(a, rows))
        norm = _mul_vec(m, a, prod)
        if any(norm[1:]):
            raise AssertionError(f"norm of {self!r} is not rational")
        scale = 1 / Fraction(norm[0])
        return _raw(m, tuple(_qnorm(c * scale) for c in prod))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return _raw(self.m, tuple(_qnorm(Fraction(a) / other) for a in self.coeffs))
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
            return self.m == other.m and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((CycloNum, self.m, self.coeffs))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return poly_str(self.coeffs, "z")

    def __repr__(self) -> str:
        return f"CycloNum({self.m}, {list(self.coeffs)!r})"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"m": self.m, "coeffs": [str(Fraction(c)) for c in self.coeffs]}

    # -- reduction mod p -------------------------------------------------------

    def residue(self) -> Optional[int]:
        """The image in F_p under zeta_m -> r, with (p, r) = residue_field(m).

        None when p divides the denominator of a coefficient, where the
        map is undefined.  A nonzero residue proves the value nonzero.
        """
        p, powers = _residue_powers(self.m)
        acc = 0
        for c, w in zip(self.coeffs, powers):
            if type(c) is int:
                acc += c * w
            elif c:
                den = c.denominator % p
                if not den:
                    return None
                acc += c.numerator * w * pow(den, -1, p)
        return acc % p


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
def _zeta_pow_vec(m: int, k: int) -> tuple:
    f = len(cyclotomic_polynomial(m)) - 1
    if k < f:
        return (0,) * k + (1,) + (0,) * (f - k - 1)
    base = tuple(-c for c in cyclotomic_polynomial(m)[:f])
    vec = base
    for _ in range(k - f):  # multiply by x and reduce mod Phi_m
        vec = tuple(o + vec[-1] * b for o, b in zip((0,) + vec[:-1], base))
    return vec


def zeta(m: int, k: int = 1) -> CycloNum:
    """zeta_m^k, the k-th power of the chosen primitive m-th root of unity."""
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    return _raw(m, _zeta_pow_vec(m, k % m))


def nth_roots_of_minus_one(n: int) -> list[CycloNum]:
    """All n solutions of X^n = -1, as elements of Q(zeta_{2n}).

    These are zeta_{2n}^(2j+1) for j = 0..n-1, the odd powers of a
    primitive 2n-th root of unity.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return [zeta(2 * n, 2 * j + 1) for j in range(n)]


def poly_str(coeffs: Sequence, var: str = "x") -> str:
    """Human-readable polynomial rendering, highest degree first."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(Fraction(c))
        if i == 0:
            body = str(_qnorm(mag))
        else:
            head = "" if mag == 1 else f"{_qnorm(mag)}*"
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts) if parts else "0"
