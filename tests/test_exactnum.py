import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesurf import exactnum
from linesurf.exactnum import (
    ConductorMismatch,
    CycloNum,
    cyclotomic_polynomial,
    nth_roots_of_minus_one,
    residue_field,
    zeta,
)
from linesurf.serialize import SchemaError, _coordinate, _element_json

CONDUCTORS = (4, 6, 8, 9, 10, 12, 14, 15, 16)


def degree(m):
    """phi(m), read as the library reads it: the degree of Phi_m."""
    return len(cyclotomic_polynomial(m)) - 1


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
        sympy = pytest.importorskip("sympy")
        assert degree(m) == sympy.totient(m)

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


@pytest.mark.parametrize(
    "function,message",
    [
        (cyclotomic_polynomial, "conductor must be a positive integer"),
        (CycloNum, "conductor must be a positive integer"),
        (zeta, "conductor must be a positive integer"),
        (nth_roots_of_minus_one, "n must be a positive integer"),
    ],
)
def test_nonpositive_order_refused(function, message):
    with pytest.raises(ValueError, match=f"^{message}$") as refused:
        function(0)
    assert refused.type is ValueError


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
        f = degree(m)
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
        for length in (degree(m) + 1, m + 1, 3 * m + 2):
            coeffs = [rng.randint(-9, 9) for _ in range(length)]
            poly = sum(c * x**i for i, c in enumerate(coeffs))
            expected = self.coeffs_of(sympy, sympy.rem(poly, phi, x), x, degree(m))
            assert CycloNum(m, coeffs).coeffs == expected


def test_inverse_rejects_irrational_norm(monkeypatch):
    # dropping one conjugate where the inverse reads them leaves a * P
    # irrational, which the inverse must refuse: at m = 8 from the generated
    # kernel, at m = 22 from the loop
    kernels = exactnum._kernels
    calls = []

    def dropping_one(m):
        mul, conjugates, dot = kernels(m)
        return mul, lambda a: calls.append(m) or list(conjugates(a))[:-1], dot

    monkeypatch.setattr(exactnum, "_kernels", dropping_one)
    for m in (8, 22):
        with pytest.raises(AssertionError, match="not rational"):
            (2 + zeta(m)).inverse()
    assert calls == [8, 22]
    # a monomial inverts in closed form and never reaches the norm
    assert (2 * zeta(8, 3)).inverse() == zeta(8, 5) / 2
    assert calls == [8, 22]


@pytest.mark.parametrize("m", (5, 7, 8, 12, 14, 16, 24))
def test_inverse_of_every_scaled_root_of_unity(m):
    # zeta^k is a monomial c * zeta^k for k < phi(m); above that its
    # canonical form has several terms and goes through the norm
    for k in range(m):
        for c in (1, -3, Fraction(2, 7)):
            x = c * zeta(m, k)
            assert x * x.inverse() == 1


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
    size = degree(m)
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
    assert _coordinate(_element_json(a), a.m, "round trip") == a


@given(
    st.sampled_from(CONDUCTORS),
    st.one_of(st.sampled_from((1, 2, 6, 12)), st.integers(1, 10**12)),
    st.data(),
)
def test_coefficient_text_is_fraction_text(m, den, data):
    size = degree(m)
    numerator = st.one_of(st.integers(-12, 12), st.integers(-(10**20), 10**20))
    nums = data.draw(st.lists(numerator, min_size=size, max_size=size))
    value = CycloNum(m, [Fraction(x, den) for x in nums])
    assert _element_json(value) == {"m": m, "coeffs": [str(Fraction(x, den)) for x in nums]}


# Only "-?[0-9]+" is parsed by int(); the rest must read as Fraction reads them.
# The long digit strings pass the int-string limit of interpreters that have one.
LOADER_TEXTS = [
    pytest.param(text, id=repr(text))
    for text in ("007", "-0", "+5", " 5", "5_0", "\u0663", "1e3", "3/4", "--4", "-", "")
] + [
    pytest.param("9" * 5000, id="5000 digits"),
    pytest.param("-" + "9" * 5000, id="-5000 digits"),
]


@pytest.mark.parametrize("text", LOADER_TEXTS)
def test_loader_reads_text_as_fraction_does(text):
    try:
        expected = CycloNum.rational(8, Fraction(text))
    except ValueError:
        expected = None
    cases = (
        ({"m": 8, "coeffs": [text, 0, 0, 0]}, "bad cyclotomic coefficient"),
        (text, "bad rational coordinate"),
    )
    for value, message in cases:
        if expected is None:
            with pytest.raises(SchemaError, match=f"^where: {message} "):
                _coordinate(value, 8, "where")
        else:
            assert _coordinate(value, 8, "where") == expected


def test_random_axioms_bulk():
    # cheap mass check with a fixed seed, independent of hypothesis
    rng = random.Random(91101)
    for _ in range(400):
        m = rng.choice(CONDUCTORS)
        size = degree(m)
        a, b, c = (
            CycloNum(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)])
            for _ in range(3)
        )
        assert (a + b) * c == a * c + b * c
        if not a.is_zero():
            assert a * a.inverse() == 1


class TestCanonicalCoefficients:
    """Integral coefficients are stored as int, never as Fraction or bool."""

    def test_integral_sums_are_int(self):
        h = CycloNum(8, [Fraction(1, 2)])
        for value in (h + h, h - (-h), Fraction(1, 2) + h, Fraction(3, 2) - h):
            assert repr(value) == "CycloNum(8, [1, 0, 0, 0])"
        assert repr(h - h) == "CycloNum(8, [0, 0, 0, 0])"

    @pytest.mark.parametrize("value", (True, False))
    def test_bool_rejected(self, value):
        with pytest.raises(TypeError, match="bool"):
            CycloNum(8, [value, 0, 0, 0])
        with pytest.raises(TypeError, match="bool"):
            CycloNum.rational(8, value)

    @pytest.mark.parametrize("value", ("1/2", 0.5))
    def test_inexact_or_text_coefficient_rejected(self, value):
        message = f"^cannot use {type(value).__name__} as a cyclotomic coefficient$"
        with pytest.raises(TypeError, match=message):
            CycloNum(8, [value, 0, 0, 0])
        with pytest.raises(TypeError, match=message):
            CycloNum.rational(8, value)

    def test_int_subclass_stored_as_int(self):
        class Tagged(int):
            pass

        assert type(CycloNum(8, [Tagged(3)]).coeffs[0]) is int


# -- integer arithmetic against the Fraction arithmetic it replaces ----------


def qnorm(x):
    """The canonical form of one coefficient: int where integral, else a Fraction."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def walked_power(m, k):
    """x^k mod Phi_m, reduced on its own: k - f multiply-by-x steps from x^f."""
    f = degree(m)
    if k < f:
        return (0,) * k + (1,) + (0,) * (f - k - 1)
    base = tuple(-c for c in cyclotomic_polynomial(m)[:f])
    vec = base
    for _ in range(k - f):
        vec = tuple(o + vec[-1] * b for o, b in zip((0,) + vec[:-1], base))
    return vec


def fraction_mul_vec(m, a, b):
    """The product of two coefficient vectors, convolved in Fraction arithmetic."""
    f = len(a)
    acc = [0] * (2 * f - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    acc[i + j] += ai * bj
    if f > 1:
        for k in range(2 * f - 2, f - 1, -1):
            c = acc[k]
            if c:
                row = walked_power(m, k)
                for idx, r in enumerate(row):
                    if r:
                        acc[idx] += c * r
    return tuple(qnorm(x) for x in acc[:f])


def fraction_combine(coeffs, rows):
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        for idx, r in enumerate(row):
            acc[idx] += c * r
    return tuple(qnorm(x) for x in acc)


def fraction_inverse(m, a):
    """P / N(a) over the Galois norm, every partial product a Fraction vector."""
    prod = (1,) + (0,) * (len(a) - 1)
    for rows in exactnum._conjugate_rows(m):
        prod = fraction_mul_vec(m, prod, fraction_combine(a, rows))
    norm = fraction_mul_vec(m, a, prod)
    assert not any(norm[1:])
    return tuple(qnorm(c / Fraction(norm[0])) for c in prod)


def residue_per_coefficient(m, coeffs):
    """The F_p image, inverting each coefficient's denominator separately."""
    p, r = residue_field(m)
    acc = 0
    for i, c in enumerate(coeffs):
        c = Fraction(c)
        if c.denominator % p == 0:
            return None
        acc += c.numerator * pow(r, i, p) * pow(c.denominator, -1, p)
    return acc % p


def generated(operation):
    """Whether a conductor's operation is straight-line source written by ``_kernels``."""
    return operation.__code__.co_filename.startswith("<exactnum kernels for Q(zeta_")


def assert_canonical(value, expected):
    """``value`` is stored in lowest terms and its coeffs equal ``expected``, types included."""
    assert type(value.den) is int and value.den > 0
    assert all(type(x) is int for x in value.nums)
    assert len(value.nums) == degree(value.m)
    assert gcd(value.den, *value.nums) == 1
    got = value.coeffs
    assert got == expected
    assert [type(c) for c in got] == [type(c) for c in expected]
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in got)


# Every m with phi(m) <= 8, which get generated kernels, then 11 and 22 (phi = 10),
# the first conductors left on the loops.  m = 1, 2, 3 have phi(m) <= 2, where
# the reduction runs at most once or not at all.
KERNEL_CONDUCTORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 24, 30, 11, 22)
BIG = 2**64

denominators = st.one_of(st.integers(1, 12), st.integers(BIG + 1, BIG**2))
scalars = st.one_of(
    st.integers(-(BIG**2), BIG**2),
    st.builds(Fraction, st.integers(-(BIG**2), BIG**2), denominators),
    st.builds(Fraction, st.integers(-9, 9), denominators),
)


@st.composite
def coefficient_vectors(draw, f):
    """A monomial, a sparse (two terms) or a dense vector, or each entry zero or not."""
    shape = draw(st.sampled_from((1, 2, f, None)))
    if shape is None:
        entries = draw(st.lists(st.one_of(st.just(0), scalars), min_size=f, max_size=f))
    else:
        entries = [0] * f
        for i in draw(st.permutations(range(f)))[:shape]:
            entries[i] = draw(scalars.filter(bool))
    return tuple(map(qnorm, entries))


@st.composite
def kernel_vectors(draw, count):
    m = draw(st.sampled_from(KERNEL_CONDUCTORS))
    return m, [draw(coefficient_vectors(degree(m))) for _ in range(count)]


@st.composite
def dot_operands(draw):
    """Two equal-length lists of 0 to 6 values over one conductor: a kernel one, 13 or 21."""
    m = draw(st.sampled_from(KERNEL_CONDUCTORS + (13, 21)))
    values = st.one_of(
        st.just(CycloNum.zero(m)), coefficient_vectors(degree(m)).map(lambda c: CycloNum(m, c))
    )
    k = draw(st.integers(0, 6))
    return m, *(draw(st.lists(values, min_size=k, max_size=k)) for _ in range(2))


def fixed_vectors(m):
    """Every monomial, then sparse and dense vectors, small, 2^128-sized and Fraction-scaled."""
    f = degree(m)
    rng = random.Random(m)
    vectors = [tuple(c if i == k else 0 for i in range(f)) for k in range(f) for c in (1, -3)]
    for size in (2, f):
        for scale in (1, 2**128, Fraction(5, 2**64 + 3)):
            vec = [0] * f
            for i in rng.sample(range(f), min(size, f)):
                vec[i] = qnorm(rng.choice((-9, -2, 1, 7)) * scale)
            vectors.append(tuple(vec))
    return vectors


class TestIntegerKernels:
    """The integer operations equal the Fraction arithmetic, types included."""

    @given(kernel_vectors(2))
    @settings(max_examples=300)
    def test_mul_vec(self, case):
        m, (a, b) = case
        assert_canonical(CycloNum(m, a) * CycloNum(m, b), fraction_mul_vec(m, a, b))

    def test_kernel_conductors(self):
        # the kernel conductors are exactly those with phi(m) <= 8, then two above
        assert exactnum._KERNEL_DEGREE == 8
        assert KERNEL_CONDUCTORS[:-2] == tuple(m for m in range(1, 500) if degree(m) <= 8)
        assert [degree(m) for m in KERNEL_CONDUCTORS[-2:]] == [10, 10]

    def test_kernel_source_of_a_sum(self):
        # the reduction and conjugate rows for phi(m) <= 8 hold only -1, 0 and 1,
        # so no kernel writes a larger coefficient: its source text is checked here
        terms = [(2, "x"), (-3, "y"), (1, "z"), (-1, "w"), (-1, "x")]
        source = exactnum._lincomb(terms)
        assert source == "2*x - 3*y + z - w - x"
        assert eval(source, {"x": 5, "y": 7, "z": 11, "w": 13}) == -18
        assert exactnum._lincomb([(-4, "x")]) == "- 4*x" and exactnum._lincomb([]) == "0"

    @pytest.mark.parametrize("m", KERNEL_CONDUCTORS)
    def test_products_and_conjugates_on_every_shape(self, m):
        vectors = fixed_vectors(m)
        for a in vectors:
            x = CycloNum(m, a)
            for b in vectors:
                assert_canonical(x * CycloNum(m, b), fraction_mul_vec(m, a, b))
            conjugates = list(exactnum._kernels(m)[1](x.nums))
            assert [
                tuple(qnorm(Fraction(c, x.den)) for c in conjugate) for conjugate in conjugates
            ] == [fraction_combine(a, rows) for rows in exactnum._conjugate_rows(m)]

    @given(dot_operands())
    @settings(max_examples=300)
    def test_dot_is_the_summed_products(self, case):
        m, xs, ys = case
        expected = [0] * degree(m)
        for x, y in zip(xs, ys):
            expected = [s + c for s, c in zip(expected, fraction_mul_vec(m, x.coeffs, y.coeffs))]
        got = exactnum.dot(m, xs, ys)
        assert_canonical(got, tuple(map(qnorm, expected)))
        summed = sum((x * y for x, y in zip(xs, ys)), CycloNum.zero(m))
        assert (got.m, got.nums, got.den) == (summed.m, summed.nums, summed.den)

    def test_nothing_generated_above_the_threshold(self):
        # phi(22) = 10, phi(226) = 112, phi(800) = 320: products, dot and the
        # inverse run the loops, and no operation of theirs is generated source
        exactnum._kernels.cache_clear()
        for m in (22, 226, 800):
            x, y = 1 + zeta(m), Fraction(2, 3) - 5 * zeta(m, 7)
            a, b = x.coeffs, y.coeffs
            assert_canonical(x * y, fraction_mul_vec(m, a, b))
            summed = zip(fraction_mul_vec(m, a, b), fraction_mul_vec(m, b, b))
            expected = tuple(qnorm(s + t) for s, t in summed)
            assert_canonical(exactnum.dot(m, [x, y], [y, y]), expected)
            assert x * x.inverse() == 1
            if m == 22:
                assert_canonical(x.inverse(), fraction_inverse(m, a))
            assert not any(map(generated, exactnum._kernels(m)))
        assert exactnum._kernels.cache_info().currsize == 3
        zeta(8) * zeta(8, 3)
        assert exactnum._kernels.cache_info().currsize == 4
        assert generated(exactnum._kernels(8)[0])

    def test_each_conductor_chooses_once(self):
        # a product, a dot and a generic inverse read one cached choice per
        # conductor, on both sides of phi = 8: m = 16 (phi 8) is generated,
        # m = 22 (phi 10) is not
        exactnum._kernels.cache_clear()
        for m in (16, 22):
            x, y = 1 + zeta(m), 3 - zeta(m, 5)
            x * y
            exactnum.dot(m, [x, y], [y, x])
            x.inverse()
        info = exactnum._kernels.cache_info()
        assert (info.currsize, info.misses) == (2, 2)
        mul, conjugates, dot = exactnum._kernels(16)
        assert generated(mul) and generated(conjugates) and not generated(dot)
        assert not any(map(generated, exactnum._kernels(22)))

    def test_dot_rejects_mixed_conductors_and_lengths(self):
        z8, z16 = zeta(8), zeta(16)
        for xs, ys in (([z8], [z16]), ([z16], [z16]), ([z8, z16], [z8, z8])):
            with pytest.raises(ConductorMismatch):
                exactnum.dot(8, xs, ys)
        for xs, ys in (([z8], []), ([], [z8]), ([z8, z8], [z8])):
            with pytest.raises(ValueError) as excinfo:
                exactnum.dot(8, xs, ys)
            assert excinfo.type is ValueError

    def test_shift_rows_are_the_reduced_powers(self):
        # The rows are built one multiply-by-x step apart; the reference
        # reduces each power x^k from x^f on its own.
        for m in range(1, 121):
            f = degree(m)
            assert exactnum._shift_rows(m) == tuple(
                (k, tuple((i, c) for i, c in enumerate(walked_power(m, k)) if c))
                for k in range(f, 2 * f - 1)
            )

    def test_zeta_powers_are_the_reduced_powers(self):
        # One table of x^0..x^(m-1), built row from row; any k reads row k mod m.
        for m in range(1, 121):
            assert [exactnum._zeta_pow_vec(m, k) for k in range(m)] == [
                walked_power(m, k) for k in range(m)
            ]
            for k in (-1, -m - 2, m, 2 * m + 3):
                assert exactnum._zeta_pow_vec(m, k) == walked_power(m, k % m)

    @given(kernel_vectors(1))
    def test_combine_over_conjugate_rows(self, case):
        # the conjugate zeta -> zeta^k of a, built from input of degree (f - 1) * k
        # and read from the conductor's conjugates, kernel or loop
        m, (a,) = case
        x = CycloNum(m, a)
        units = [k for k in range(2, m) if gcd(k, m) == 1]
        conjugates = list(exactnum._kernels(m)[1](x.nums))
        assert len(conjugates) == len(units) == len(exactnum._conjugate_rows(m))
        for k, rows, conjugate in zip(units, exactnum._conjugate_rows(m), conjugates):
            spread = [0] * ((len(a) - 1) * k + 1)
            for i, c in enumerate(a):
                spread[i * k] = c
            expected = fraction_combine(a, rows)
            assert_canonical(CycloNum(m, spread), expected)
            assert tuple(qnorm(Fraction(c, x.den)) for c in conjugate) == expected

    @given(kernel_vectors(1))
    @settings(max_examples=150)
    def test_inverse(self, case):
        m, (a,) = case
        x = CycloNum(m, a)
        if x.is_zero():
            return
        inv = x.inverse()
        assert_canonical(inv, fraction_inverse(m, a))
        assert x * inv == 1

    @given(kernel_vectors(1), st.integers(1, 9), st.integers(0, 16))
    @settings(max_examples=300)
    def test_residue(self, case, multiple, where):
        m, (a,) = case
        x = CycloNum(m, a)
        assert x.residue() == residue_per_coefficient(m, a)
        p, _ = residue_field(m)
        k = where % len(a)
        c = Fraction(a[k] or 1)
        num = c.numerator if c.numerator % p else 1
        b = a[:k] + (Fraction(num, c.denominator * multiple * p),) + a[k + 1 :]
        assert residue_per_coefficient(m, b) is None
        assert CycloNum(m, b).residue() is None

    @given(kernel_vectors(2))
    def test_add_and_sub_canonical(self, case):
        m, (a, b) = case
        x, y = CycloNum(m, a), CycloNum(m, b)
        for value, op in ((x + y, Fraction.__add__), (x - y, Fraction.__sub__)):
            expected = tuple(qnorm(op(Fraction(s), Fraction(t))) for s, t in zip(a, b))
            assert_canonical(value, expected)
        assert_canonical(-x, tuple(qnorm(-Fraction(s)) for s in a))

    @given(kernel_vectors(1), scalars)
    def test_scalar_operations(self, case, q):
        m, (a,) = case
        x = CycloNum(m, a)
        q = qnorm(q)
        pad = (0,) * (len(a) - 1)
        for value, expected in (
            (x * q, [s * q for s in a]),
            (q * x, [q * s for s in a]),
            (x + q, [a[0] + q, *a[1:]]),
            (q - x, [q - a[0], *(-s for s in a[1:])]),
            (CycloNum.rational(m, q), (q,) + pad),
        ):
            assert_canonical(value, tuple(qnorm(Fraction(s)) for s in expected))
        if q:
            assert_canonical(x / q, tuple(qnorm(Fraction(s) / q) for s in a))
        else:
            with pytest.raises(ZeroDivisionError):
                x / q

    @given(kernel_vectors(2), scalars)
    @settings(max_examples=150)
    def test_hash_follows_equality(self, case, q):
        m, (a, b) = case
        x, y = CycloNum(m, a), CycloNum(m, b)
        for same in ((x + y) - y, -(-x), (x * 3) / 3):
            assert same == x and hash(same) == hash(x)
        if not y.is_zero():
            assert (x * y) / y == x and hash((x * y) / y) == hash(x)
        q = qnorm(q)
        r = CycloNum.rational(m, q)
        assert r == q and hash(r) == hash(q)
        assert (x - x) + q == q and hash((x - x) + q) == hash(q)


class TestResultsBuiltReduced:
    """Negation and the zero of an empty ``dot`` are built with no gcd, and
    stored field for field as the reducing path stores the same value."""

    @pytest.mark.parametrize("m", (8, 12, 16, 22, 60))  # kernels up to 16, loops at 22 and 60
    def test_negation_is_minus_one_times(self, m):
        rng = random.Random(900 + m)
        f = degree(m)
        values = [
            CycloNum.zero(m),
            CycloNum.one(m),
            zeta(m, 3),
            CycloNum.rational(m, Fraction(-7, 4)),
            CycloNum(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(f)]),
            CycloNum(m, [Fraction(rng.randint(-9, 9), 6) for _ in range(f)]) * (2**70 + 1),
        ]
        assert sum(x.den > 1 for x in values) >= 2
        for x in values:
            neg, ref = -x, (-1) * x
            assert (neg.m, neg.nums, neg.den) == (ref.m, ref.nums, ref.den)
            assert type(neg.nums) is tuple and -neg == x

    @pytest.mark.parametrize("m", (8, 22))
    def test_dot_with_no_nonzero_term_is_the_zero(self, m):
        zero, x = CycloNum.zero(m), CycloNum(m, [Fraction(1, 3), 2])
        expected = (m, (0,) * degree(m), 1)
        assert (zero.m, zero.nums, zero.den) == expected
        for xs, ys in (((), ()), ((zero,), (x,)), ((x, zero, zero), (zero, x, zero))):
            got = exactnum.dot(m, xs, ys)
            assert (got.m, got.nums, got.den) == expected

    def test_dot_with_no_nonzero_term_still_checks(self):
        z8, zero8, zero16 = zeta(8), CycloNum.zero(8), CycloNum.zero(16)
        for xs, ys in (([zero16], [z8]), ([z8], [zero16]), ([zero8, zero16], [zero8, zero8])):
            with pytest.raises(ConductorMismatch):
                exactnum.dot(8, xs, ys)
        for xs, ys in (([zero8], []), ([], [zero8]), ([zero8, zero8], [z8])):
            with pytest.raises(ValueError) as excinfo:
                exactnum.dot(8, xs, ys)
            assert excinfo.type is ValueError


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
        size = degree(m)
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
