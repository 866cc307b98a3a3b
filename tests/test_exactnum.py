import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesurf import exactnum
from linesurf.exactnum import (
    ConductorMismatch,
    CycloNum,
    cyclotomic_polynomial,
    euler_phi,
    nth_roots_of_minus_one,
    residue_field,
    zeta,
)
from linesurf.serialize import _coordinate

CONDUCTORS = (4, 6, 8, 9, 10, 12, 14, 15, 16)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


class TestCyclotomicPolynomial:
    def test_base_case(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_m6_standard_identity(self):
        # x^2 - x + 1, and the product over all divisors of 6 gives x^6 - 1
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        prod = (1,)
        for d in (1, 2, 3, 6):
            prod = poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == (-1,) + (0,) * 5 + (1,)

    def test_m8_by_division_oracle(self):
        # divide x^8 - 1 by Phi_1 * Phi_2 * Phi_4 and compare
        assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
        prod = poly_mul(poly_mul(cyclotomic_polynomial(1), cyclotomic_polynomial(2)),
                        cyclotomic_polynomial(4))
        assert poly_mul(prod, cyclotomic_polynomial(8)) == (-1,) + (0,) * 7 + (1,)

    @pytest.mark.parametrize("m", list(range(1, 31)))
    def test_degree_is_totient(self, m):
        assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)

    @pytest.mark.parametrize("m", CONDUCTORS)
    def test_root_and_order(self, m):
        z = zeta(m)
        phi = cyclotomic_polynomial(m)
        value = sum((z**i) * c for i, c in enumerate(phi) if c)
        assert value.is_zero()
        assert z**m == 1
        assert all(z**k != 1 for k in range(1, m))


class TestArithmetic:
    def test_primitive_sixth_root_cubes_to_minus_one(self):
        z = zeta(6)
        assert z * z**2 == -1

    def test_additive_identity(self):
        a = CycloNum(8, [1, Fraction(2, 3), 0, -5])
        assert a + 0 == a
        assert a + CycloNum.zero(8) == a

    def test_expand_and_reduce_mod_x4_plus_1(self):
        z = zeta(8)
        assert (z + 1) * (z - 1) == z**2 - 1

    def test_inverse_of_one(self):
        one = CycloNum.one(10)
        assert one.inverse() == one

    @pytest.mark.parametrize("m", CONDUCTORS)
    def test_inverse_of_zeta_is_last_power(self, m):
        assert zeta(m).inverse() == zeta(m, m - 1)

    def test_inverse_by_product_oracle(self):
        a = 1 + zeta(6)
        assert a * a.inverse() == 1

    def test_zero_cases(self):
        assert CycloNum.zero(6).is_zero()
        assert (zeta(6) ** 3 + 1).is_zero()
        assert not (zeta(8) + 1).is_zero()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            CycloNum.zero(8).inverse()

    def test_conductor_mixing_rejected(self):
        with pytest.raises(ConductorMismatch):
            zeta(6) + zeta(8)
        with pytest.raises(ConductorMismatch):
            zeta(6) * zeta(4)
        assert not (zeta(6) == zeta(8))


class TestSympyOracle:
    """inverse and long-input reduction against sympy's Q[x] arithmetic mod Phi_m."""

    @staticmethod
    def coeffs_of(sympy, expr, x, length):
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, x).all_coeffs())]
        return tuple(coeffs + [0] * (length - len(coeffs)))

    @pytest.mark.parametrize("m", CONDUCTORS)
    def test_inverse(self, m):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        phi = sympy.cyclotomic_poly(m, x)
        rng = random.Random(m)
        f = euler_phi(m)
        for _ in range(4):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(f)]
            if not any(coeffs):
                continue
            poly = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs))
            expected = self.coeffs_of(sympy, sympy.invert(poly, phi, x), x, f)
            assert CycloNum(m, coeffs).inverse().coeffs == expected

    @pytest.mark.parametrize("m", CONDUCTORS)
    def test_long_input_reduction(self, m):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        phi = sympy.cyclotomic_poly(m, x)
        rng = random.Random(-m)
        for length in (euler_phi(m) + 1, m + 1, 3 * m + 2):
            coeffs = [rng.randint(-9, 9) for _ in range(length)]
            poly = sum(c * x**i for i, c in enumerate(coeffs))
            expected = self.coeffs_of(sympy, sympy.rem(poly, phi, x), x, euler_phi(m))
            assert CycloNum(m, coeffs).coeffs == expected


def test_inverse_rejects_irrational_norm(monkeypatch):
    # dropping one conjugate leaves a * P irrational, which the inverse must refuse
    rows = exactnum._conjugate_rows
    monkeypatch.setattr(exactnum, "_conjugate_rows", lambda m: rows(m)[:-1])
    with pytest.raises(AssertionError, match="not rational"):
        (2 + zeta(8)).inverse()


class TestRootsOfMinusOne:
    def test_n1(self):
        assert nth_roots_of_minus_one(1) == [CycloNum.rational(2, -1)]

    def test_n2_square_roots_of_minus_one(self):
        roots = nth_roots_of_minus_one(2)
        assert roots == [zeta(4), zeta(4, 3)]
        assert all(r**2 == -1 for r in roots)

    def test_n3_each_cubes_to_minus_one(self):
        roots = nth_roots_of_minus_one(3)
        assert len(roots) == 3
        assert all(r**3 == -1 for r in roots)
        assert sum(1 for r in roots if r == -1) == 1

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
    def test_distinct_and_product_identity(self, n):
        roots = nth_roots_of_minus_one(n)
        assert len(set(roots)) == n
        # prod (x - zeta) over the roots must equal x^n + 1 identically
        m = 2 * n
        poly = [CycloNum.one(m)]
        for r in roots:
            nxt = [CycloNum.zero(m) for _ in range(len(poly) + 1)]
            for i, c in enumerate(poly):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] - c * r
            poly = nxt
        expected = [CycloNum.one(m)] + [CycloNum.zero(m)] * (n - 1) + [CycloNum.one(m)]
        assert poly == expected


# -- randomized field-axiom checks -------------------------------------------

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@st.composite
def cyclo_numbers(draw, m=None):
    if m is None:
        m = draw(st.sampled_from(CONDUCTORS))
    size = euler_phi(m)
    return CycloNum(m, draw(st.lists(rationals, min_size=size, max_size=size)))


@st.composite
def cyclo_triples(draw):
    m = draw(st.sampled_from(CONDUCTORS))
    return tuple(draw(cyclo_numbers(m=m)) for _ in range(3))


@given(cyclo_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(cyclo_numbers())
@settings(max_examples=200)
def test_multiplicative_inverse(a):
    if a.is_zero():
        return
    assert a * a.inverse() == CycloNum.one(a.m)


@given(cyclo_numbers(), cyclo_numbers(m=12))
def test_zero_test_matches_difference(a, b):
    b = CycloNum(a.m, b.coeffs)  # align conductors
    assert ((a - b).is_zero()) == (a == b)


@given(cyclo_numbers())
def test_serialization_round_trip(a):
    assert _coordinate(a.to_json(), a.m, "round trip") == a


def test_random_axioms_bulk():
    # cheap mass check with a fixed seed, independent of hypothesis
    rng = random.Random(91101)
    for _ in range(400):
        m = rng.choice(CONDUCTORS)
        size = euler_phi(m)
        a, b, c = (
            CycloNum(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)])
            for _ in range(3)
        )
        assert (a + b) * c == a * c + b * c
        if not a.is_zero():
            assert a * a.inverse() == 1


class TestResidueField:
    """zeta_m -> r is a ring homomorphism onto F_p, the map the scan filter uses."""

    @pytest.mark.parametrize("m", (1, 2, 3) + CONDUCTORS + (24, 48))
    def test_prime_and_root_of_order_m(self, m):
        p, r = residue_field(m)
        assert p > 2**61 and (p - 1) % m == 0
        assert all(pow(a, p - 1, p) == 1 for a in (2, 3, 5, 7)) and all(p % q for q in range(2, 2000))
        assert pow(r, m, p) == 1 and all(pow(r, k, p) != 1 for k in range(1, m))
        assert sum(c * pow(r, i, p) for i, c in enumerate(cyclotomic_polynomial(m))) % p == 0
        assert zeta(m).residue() == r

    @pytest.mark.parametrize("m", CONDUCTORS)
    def test_homomorphism_on_random_values(self, m):
        p, _ = residue_field(m)
        rng = random.Random(7 * m)
        size = euler_phi(m)
        for _ in range(40):
            a, b = (
                CycloNum(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)])
                for _ in range(2)
            )
            ra, rb = a.residue(), b.residue()
            assert (a * b).residue() == ra * rb % p
            assert (a + b).residue() == (ra + rb) % p
            assert (a - b).residue() == (ra - rb) % p
            if not a.is_zero():
                assert a.inverse().residue() * ra % p == 1

    def test_undefined_where_p_divides_a_denominator(self):
        p, _ = residue_field(8)
        assert CycloNum(8, [1, Fraction(1, p)]).residue() is None
        assert CycloNum(8, [1, Fraction(p, 3)]).residue() == 1
