import itertools
import random
from fractions import Fraction

import pytest

from linesurf import projgeom
from linesurf.exactnum import ConductorMismatch, CycloNum, dot, nth_roots_of_minus_one, zeta
from linesurf.projgeom import (
    PLUCKER_PAIRS,
    ProjLine,
    ProjPoint,
    line_intersection,
    plucker_pairing,
    point_on_line,
)

M = 6


def pt(*values, m=M):
    return ProjPoint.from_values(m, values)


def det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def on_line_by_rank(point, line):
    """Independent membership oracle: all 3x3 minors of [pt; p; q] vanish."""
    rows = [point.coords, line.base[0].coords, line.base[1].coords]
    for cols in itertools.combinations(range(4), 3):
        minor = det3([[row[c] for c in cols] for row in rows])
        if not minor.is_zero():
            return False
    return True


class TestNormalization:
    def test_scaling(self):
        assert pt(0, 0, 2, 4) == pt(0, 0, 1, 2)
        p = pt(0, 0, 2, 4)
        assert [str(c) for c in p.coords] == ["0", "0", "1", "2"]

    def test_already_canonical(self):
        p = ProjPoint.from_values(M, (1, zeta(M), 0, 0))
        assert p.coords[0] == 1 and p.coords[1] == zeta(M)

    def test_leading_root_of_unity(self):
        z = zeta(M)
        p = ProjPoint.from_values(M, (z, 1, 0, 0))
        # scale-equivalent to (1, z^-1, 0, 0) with z^-1 = z^5 = 1 - z
        assert p.coords[1] == z**5 == 1 - z
        # cross-ratios certify scale equivalence with the original vector
        orig = (z, CycloNum.one(M), CycloNum.zero(M), CycloNum.zero(M))
        for i in range(4):
            for j in range(4):
                assert orig[i] * p.coords[j] == orig[j] * p.coords[i]

    def test_idempotent(self):
        p = pt(0, 3, 5, 7)
        assert ProjPoint(p.coords) == p

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            pt(0, 0, 0, 0)

    def test_lead_is_set_not_multiplied(self, monkeypatch):
        # The lead becomes one with no product: one product per other nonzero
        # coordinate, for a point and for a line's Plucker vector.
        m = 8
        z = zeta(m)
        coords = (CycloNum.zero(m), 2 + z, z**3 - 1, CycloNum.rational(m, 5))
        a, b = pt(1, 0, 2, 0, m=m), pt(1, 2 + z, 0, 3, m=m)  # p01 = 2 + zeta
        products = []
        original = CycloNum.__mul__

        def counting(x, y):
            products.append(1)
            return original(x, y)

        monkeypatch.setattr(CycloNum, "__mul__", counting)
        p = ProjPoint(coords)
        assert len(products) == 2
        products.clear()
        line = ProjLine(a, b)
        assert len(products) == sum(not c.is_zero() for c in line.plucker) - 1
        monkeypatch.undo()
        one = CycloNum.one(m)
        assert (p.coords[1].nums, p.coords[1].den) == (one.nums, one.den)
        assert p.coords == (coords[0], one, coords[2] / coords[1], coords[3] / coords[1])
        assert next(c for c in line.plucker if not c.is_zero()) == one
        for i, j in itertools.combinations(range(4), 2):
            assert p.coords[i] * coords[j] == p.coords[j] * coords[i]


class TestLineThrough:
    def test_coordinate_axis(self):
        line = ProjLine(pt(1, 0, 0, 0), pt(0, 1, 0, 0))
        assert [str(c) for c in line.plucker] == ["1", "0", "0", "0", "0", "0"]

    def test_orientation_absorbed(self):
        p, q = pt(1, 2, 3, 4), pt(0, 1, -1, 2)
        assert ProjLine(p, q) == ProjLine(q, p)

    def test_fermat_style_line(self):
        # x = zeta*y, z = xi*w realized through (zeta,1,0,0) and (0,0,xi,1)
        zr, xr = nth_roots_of_minus_one(3)[0], nth_roots_of_minus_one(3)[1]
        p = ProjPoint.from_values(M, (zr, 1, 0, 0))
        q = ProjPoint.from_values(M, (0, 0, xr, 1))
        line = ProjLine(p, q)
        for point in (p, q):
            x, y, z, w = point.coords
            assert (x - zr * y).is_zero()
            assert (z - xr * w).is_zero()
        assert point_on_line(p, line) and point_on_line(q, line)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            ProjLine(pt(1, 2, 0, 0), pt(2, 4, 0, 0))

    def test_plucker_relation(self):
        rng = random.Random(777)
        for _ in range(40):
            coords = [rng.randint(-5, 5) for _ in range(8)]
            try:
                line = ProjLine(pt(*coords[:4]), pt(*coords[4:]))
            except ValueError:
                continue
            p = line.plucker
            assert (p[0] * p[5] - p[1] * p[4] + p[2] * p[3]).is_zero()

    def test_canonical_equality_different_spans(self):
        p, q = pt(1, 0, 2, 1), pt(0, 1, 1, 3)
        line = ProjLine(p, q)
        # p + q and p - q span the same line
        r = ProjPoint([a + b for a, b in zip(p.coords, q.coords)])
        s = ProjPoint([a - b for a, b in zip(p.coords, q.coords)])
        assert ProjLine(r, s) == line
        assert hash(ProjLine(r, s)) == hash(line)


class TestPointOnLine:
    def test_base_points(self):
        line = ProjLine(pt(1, 1, 0, 2), pt(0, 5, 1, 1))
        assert point_on_line(line.base[0], line)
        assert point_on_line(line.base[1], line)

    def test_off_line(self):
        line = ProjLine(pt(0, 1, 0, 0), pt(0, 0, 1, 0))
        assert not point_on_line(pt(1, 0, 0, 0), line)

    def test_combination_stays_on_line(self):
        p, q = pt(1, 2, 0, 1), pt(0, 1, 1, 1)
        line = ProjLine(p, q)
        combo = ProjPoint([a + b for a, b in zip(p.coords, q.coords)])
        assert point_on_line(combo, line)

    def test_matches_rank_oracle(self):
        rng = random.Random(4242)
        lines, points = [], []
        for _ in range(8):
            try:
                lines.append(ProjLine(pt(*(rng.randint(-3, 3) for _ in range(4))),
                                          pt(*(rng.randint(-3, 3) for _ in range(4)))))
                points.append(pt(*(rng.randint(-3, 3) for _ in range(4))))
            except ValueError:
                continue
        checked = 0
        for line in lines:
            for point in points + [line.base[0]]:
                assert point_on_line(point, line) == on_line_by_rank(point, line)
                checked += 1
        assert checked > 0


class TestIntersection:
    def test_shared_base_point(self):
        a = ProjLine(pt(1, 0, 0, 0), pt(0, 1, 0, 0))
        b = ProjLine(pt(1, 0, 0, 0), pt(0, 0, 1, 0))
        assert line_intersection(a, b) == pt(1, 0, 0, 0)

    def test_fermat_family_skew(self):
        roots = nth_roots_of_minus_one(3)

        def fam_a(zr, xr):
            return ProjLine(
                ProjPoint.from_values(M, (zr, 1, 0, 0)),
                ProjPoint.from_values(M, (0, 0, xr, 1)),
            )

        # different zeta and different xi: the 4x4 system only has the zero solution
        assert line_intersection(fam_a(roots[0], roots[1]), fam_a(roots[1], roots[2])) is None
        assert plucker_pairing(fam_a(roots[0], roots[1]), fam_a(roots[1], roots[2])) != 0

    def test_fermat_family_shared_zeta(self):
        roots = nth_roots_of_minus_one(3)

        def fam_a(zr, xr):
            return ProjLine(
                ProjPoint.from_values(M, (zr, 1, 0, 0)),
                ProjPoint.from_values(M, (0, 0, xr, 1)),
            )

        meet = line_intersection(fam_a(roots[0], roots[1]), fam_a(roots[0], roots[2]))
        assert meet == ProjPoint.from_values(M, (roots[0], 1, 0, 0))

    def test_symmetry(self):
        a = ProjLine(pt(1, 2, 3, 4), pt(0, 1, 0, 1))
        b = ProjLine(pt(1, 2, 3, 4), pt(1, 1, 1, 1))
        assert line_intersection(a, b) == line_intersection(b, a)

    def test_result_lies_on_both(self):
        # both lines lie in the plane w = 0, so they must meet
        a = ProjLine(pt(1, 0, 0, 0), pt(0, 1, 0, 0))
        b = ProjLine(pt(0, 0, 1, 0), pt(1, 1, 1, 0))
        meet = line_intersection(a, b)
        assert meet is not None
        assert point_on_line(meet, a) and point_on_line(meet, b)

    def test_three_points_pairwise(self):
        p, q, r = pt(1, 0, 0, 0), pt(0, 1, 0, 0), pt(0, 0, 1, 0)
        pq, pr, qr = ProjLine(p, q), ProjLine(p, r), ProjLine(q, r)
        assert line_intersection(pq, pr) == p
        assert line_intersection(pq, qr) == q
        assert line_intersection(pr, qr) == r

    def test_identical_lines_rejected(self):
        a = ProjLine(pt(1, 0, 0, 0), pt(0, 1, 0, 0))
        b = ProjLine(pt(1, 1, 0, 0), pt(1, -1, 0, 0))
        assert a == b
        with pytest.raises(ValueError):
            line_intersection(a, b)

    def test_line_in_plane_of_first_form(self):
        # a lies in the plane w = 0 of b.forms[0], so that form gives no point on a
        e0, e1, e2 = pt(1, 0, 0, 0), pt(0, 1, 0, 0), pt(0, 0, 1, 0)
        a, b = ProjLine(e0, e2), ProjLine(e0, e1)
        assert all(dot(M, b.forms[0], p.coords).is_zero() for p in a.base)
        assert line_intersection(a, b) == e0
        assert line_intersection(b, a) == e0

    def test_matches_rank_oracle_through_shared_point(self):
        rng = random.Random(2718)

        def rand_value():
            return CycloNum(M, [rng.randint(-3, 3) for _ in range(2)])

        def rand_point():
            return ProjPoint.from_values(M, [rand_value() for _ in range(4)])

        def rand_line_through(x):
            # neither base point is x itself, so the closed form does real work
            other = rand_point()
            base = []
            for _ in range(2):
                s, t = rand_value(), rand_value()
                base.append(ProjPoint([s * u + t * v for u, v in zip(x.coords, other.coords)]))
            return ProjLine(*base)

        checked = 0
        while checked < 25:
            shared = rand_point()
            try:
                a, b = rand_line_through(shared), rand_line_through(shared)
            except ValueError:  # a degenerate draw: zero vector or coincident points
                continue
            if a == b:
                continue
            meet = line_intersection(a, b)
            assert meet == shared
            assert on_line_by_rank(meet, a) and on_line_by_rank(meet, b)
            checked += 1

    def test_meet_at_a_base_point_is_that_point(self):
        # the meet is a's own base point object: no arithmetic builds it
        rng = random.Random(1618)
        for _ in range(5):
            p, q, r = (pt(*(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)), 1)
                       for _ in range(3))
            a = ProjLine(p, q)
            assert line_intersection(a, ProjLine(p, r)) is p
            assert line_intersection(a, ProjLine(r, q)) is q

    def test_skew_pair_reported_as_meeting_fails(self, monkeypatch):
        calls = []
        pairing = projgeom.plucker_pairing
        monkeypatch.setattr(projgeom, "plucker_pairing", lambda a, b: calls.append(1) or pairing(a, b))
        points = (pt(1, 0, 0, 0), pt(0, 1, 0, 0), pt(0, 0, 1, 0), pt(0, 0, 0, 1))
        a, b = ProjLine(*points[:2]), ProjLine(*points[2:])
        # the pairing residue proves the pair skew with no exact pairing
        assert line_intersection(a, b) is None
        assert calls == []
        # a zero residue falls back to the exact pairing, which finds the pair skew
        with monkeypatch.context() as patch:
            patch.setattr(CycloNum, "residue", lambda self: 0)
            a, b = ProjLine(*points[:2]), ProjLine(*points[2:])
        assert a.residues == b.residues == (0,) * 6
        assert line_intersection(a, b) is None
        assert calls == [1]
        # a pairing that reports the skew pair as meeting fails loudly
        monkeypatch.setattr(projgeom, "plucker_pairing", lambda a, b: CycloNum.zero(M))
        with pytest.raises(AssertionError, match="do not share a point"):
            line_intersection(a, b)

    def test_conductor_mismatch_rejected(self):
        with pytest.raises(ConductorMismatch):
            line_intersection(
                ProjLine(pt(1, 0, 0, 0), pt(0, 1, 0, 0)),
                ProjLine(pt(0, 0, 1, 0, m=8), pt(0, 0, 0, 1, m=8)),
            )


class TestExactMeet:
    """Every branch of the exact half of ``line_intersection``.

    Each answer is checked with ``point_on_line`` and with the sympy rank
    oracle: a meet has rank 2 with each line's base points, and the base
    points of a skew pair have rank 4.
    """

    m = 8

    def value(self, rng):
        return CycloNum(self.m, [rng.randint(-3, 3) for _ in range(4)])

    def point(self, rng):
        return ProjPoint([self.value(rng) for _ in range(4)])

    def forced(self, monkeypatch, residue, build):
        """Build lines while every residue reads ``residue``, so no pair is proved skew."""
        with monkeypatch.context() as patch:
            patch.setattr(CycloNum, "residue", lambda self: residue)
            return build()

    def branch(self, a, b):
        (p, q), f = a.base, b.forms[0]
        return tuple(dot(self.m, f, x.coords).is_zero() for x in (p, q))

    def rank(self, *points):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        phi = sympy.cyclotomic_poly(self.m, x)
        return TestSympyRankOracle.rank(sympy, x, phi, [point.coords for point in points])

    def assert_meet(self, a, b, meet):
        assert point_on_line(meet, a) and point_on_line(meet, b)
        assert self.rank(*a.base, meet) == 2 and self.rank(*b.base, meet) == 2

    def test_a_in_the_plane_of_the_first_form(self):
        # b is z = w = 0 with first form w; a lies in w = 0 and meets b off its base points
        a = ProjLine(pt(1, 1, 1, 0, m=self.m), pt(1, 2, 3, 0, m=self.m))
        b = ProjLine(pt(1, 0, 0, 0, m=self.m), pt(0, 1, 0, 0, m=self.m))
        assert self.branch(a, b) == (True, True)
        meet = line_intersection(a, b)
        assert meet == pt(2, 1, 0, 0, m=self.m) and meet not in a.base
        self.assert_meet(a, b, meet)

    def test_meet_at_a_base_point(self):
        rng = random.Random(81)
        for _ in range(3):
            p, q, r = self.point(rng), self.point(rng), self.point(rng)
            a = ProjLine(p, q)
            for b, base in ((ProjLine(p, r), p), (ProjLine(r, q), q)):
                assert self.branch(a, b) == (base is p, base is q)
                meet = line_intersection(a, b)
                assert meet is base
                self.assert_meet(a, b, meet)

    def test_general_meet(self):
        rng = random.Random(82)
        for _ in range(3):
            p, q, r, s = self.point(rng), self.point(rng), self.point(rng), self.value(rng)
            shared = ProjPoint([s * u + v for u, v in zip(p.coords, q.coords)])
            a, b = ProjLine(p, q), ProjLine(shared, r)
            assert self.branch(a, b) == (False, False)
            meet = line_intersection(a, b)
            assert meet == shared and meet not in a.base
            self.assert_meet(a, b, meet)

    @pytest.mark.parametrize("residue", (0, None))
    def test_skew_pair_on_the_exact_path(self, monkeypatch, residue):
        rng = random.Random(83)
        pairings = []
        pairing = projgeom.plucker_pairing
        monkeypatch.setattr(
            projgeom, "plucker_pairing", lambda a, b: pairings.append(1) or pairing(a, b)
        )
        for _ in range(3):
            a, b = self.forced(monkeypatch, residue, lambda: tuple(
                ProjLine(self.point(rng), self.point(rng)) for _ in "ab"
            ))
            assert a.residues == b.residues == (None if residue is None else (0,) * 6)
            pairings.clear()
            assert line_intersection(a, b) is None
            assert pairings == [1]
            assert self.rank(*a.base, *b.base) == 4

    def test_dot_count_per_pair(self, monkeypatch, fermat_arrs):
        # Fermat quartic: a residue-proved skew pair costs no dot, a meeting
        # pair f(p), f(q) and g(X), or f(p), f(q), g(p) and g(q) when f
        # vanishes on a.  Under forced residues a skew pair adds g(X) and the
        # exact pairing.
        lines = fermat_arrs[4].lines
        calls = []
        monkeypatch.setattr(projgeom, "dot", lambda *args: calls.append(1) or dot(*args))
        costs, pairs = {}, {}
        for a, b in itertools.combinations(lines, 2):
            in_plane = self.branch(a, b) == (True, True)
            calls.clear()
            meet = line_intersection(a, b)
            kind = "skew" if meet is None else "in plane" if in_plane else "general"
            costs.setdefault(kind, set()).add(len(calls))
            pairs[kind] = pairs.get(kind, 0) + 1
        assert costs == {"skew": {0}, "in plane": {4}, "general": {3}}
        forced = self.forced(
            monkeypatch, 0, lambda: [ProjLine(*line.base) for line in lines]
        )
        skew = 0
        for a, b in itertools.combinations(forced, 2):
            calls.clear()
            if line_intersection(a, b) is None:
                assert len(calls) == 4
                skew += 1
        assert skew == pairs["skew"] == 792  # 1128 pairs, 336 of them meeting


class TestRefusals:
    @pytest.mark.parametrize(
        "build,error,message",
        [
            pytest.param(
                lambda: ProjPoint((CycloNum.one(M), CycloNum.one(8), zeta(M), zeta(M))),
                ConductorMismatch,
                r"cannot combine Q\(zeta_6\) with Q\(zeta_8\)",
                id="point-conductors",
            ),
            pytest.param(
                lambda: ProjPoint(pt(1, 2, 3, 4).coords[:3]),
                ValueError,
                r"a point of P\^3 needs exactly 4 coordinates",
                id="three-coordinates",
            ),
            pytest.param(
                lambda: ProjLine(pt(1, 0, 0, 0), pt(0, 1, 0, 0, m=8)),
                ConductorMismatch,
                r"cannot combine Q\(zeta_6\) with Q\(zeta_8\)",
                id="line-conductors",
            ),
            pytest.param(
                lambda: point_on_line(
                    pt(1, 0, 0, 0, m=8), ProjLine(pt(1, 0, 0, 0), pt(0, 1, 0, 0))
                ),
                ConductorMismatch,
                r"cannot combine Q\(zeta_8\) with Q\(zeta_6\)",
                id="point-on-line-conductors",
            ),
        ],
    )
    def test_refused(self, build, error, message):
        with pytest.raises(error, match=f"^{message}$") as refused:
            build()
        assert refused.type is error

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: zeta(6) + zeta(8), id="add"),
            pytest.param(lambda: zeta(6) - zeta(8), id="sub"),
            pytest.param(lambda: zeta(6) * zeta(8), id="mul"),
            pytest.param(lambda: dot(6, [zeta(6)], [zeta(8)]), id="dot"),
            pytest.param(
                lambda: ProjPoint((CycloNum.one(6), CycloNum.one(8), zeta(6), zeta(6))),
                id="point",
            ),
            pytest.param(lambda: ProjLine(pt(1, 0, 0, 0), pt(0, 1, 0, 0, m=8)), id="line"),
            pytest.param(
                lambda: point_on_line(
                    pt(1, 0, 0, 0), ProjLine(pt(1, 0, 0, 0, m=8), pt(0, 1, 0, 0, m=8))
                ),
                id="point-on-line",
            ),
            pytest.param(
                lambda: line_intersection(
                    ProjLine(pt(1, 0, 0, 0), pt(0, 1, 0, 0)),
                    ProjLine(pt(0, 0, 1, 0, m=8), pt(0, 0, 0, 1, m=8)),
                ),
                id="intersection",
            ),
        ],
    )
    def test_mixed_conductors_have_one_message(self, build):
        with pytest.raises(ConductorMismatch) as refused:
            build()
        assert str(refused.value) == "cannot combine Q(zeta_6) with Q(zeta_8)"


class TestDualRows:
    """``_dual_row(plucker, i)`` is the form x -> det(p, q, e_i, x) of the line through p, q."""

    @pytest.mark.parametrize("m", (6, 8))
    def test_rows_are_cofactor_expansions(self, m):
        rng = random.Random(500 + m)

        def value():
            return CycloNum(m, [rng.randint(-3, 3) for _ in range(4)])

        # Lines led by p01, p12, p23 and p03, then random ones.
        lines = [ProjLine(pt(*p, m=m), pt(*q, m=m)) for p, q in (
            ((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 1, 0, 0), (0, 0, 1, 2)),
            ((0, 0, 1, 0), (0, 0, 0, 1)), ((1, 0, 5, 0), (0, 0, 0, 1)),
        )]
        while len(lines) < 24:
            p, q = (ProjPoint.from_values(m, [value() for _ in range(4)]) for _ in "pq")
            if p != q:
                lines.append(ProjLine(p, q))
        for line in lines:
            a, b = (point.coords for point in line.base)
            raw = (a[k] * b[l] - a[l] * b[k] for k, l in PLUCKER_PAIRS)
            lead = next(c for c in raw if not c.is_zero())  # plucker = raw / lead
            x = [value() for _ in range(4)]
            for i in range(4):
                row = projgeom._dual_row(line.plucker, i)
                # Expanded along the e_i row, whose one entry sits in column i.
                cols = [c for c in range(4) if c != i]
                minor = det3([[r[c] for c in cols] for r in (a, b, x)])
                assert dot(m, row, x) * lead == (-minor if i % 2 else minor)


class TestSpanPoint:
    """``_span_point`` against the normalised vector x p + y q, on every branch."""

    @pytest.mark.parametrize("m", (5, 7, 8, 12))
    def test_every_branch_matches_the_normalised_vector(self, m, monkeypatch):
        rng = random.Random(300 + m)
        size = len(zeta(m).coeffs)
        zero = CycloNum.zero(m)

        def value():
            while True:
                v = CycloNum(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(size)])
                if not v.is_zero():
                    return v

        def point(lead):
            return ProjPoint([zero] * lead + [value() for _ in range(4 - lead)])

        inverses = []
        inverse = CycloNum.inverse
        monkeypatch.setattr(CycloNum, "inverse", lambda self: inverses.append(1) or inverse(self))
        branches = set()
        for i, j in itertools.product(range(4), repeat=2):
            p, q = point(i), point(j)
            if p == q:
                continue
            x = value()
            cases = [(x, zero), (zero, x), (x, value()), (x, -x)]
            for x, y in cases if i == j else cases[:3]:
                expected = ProjPoint([x * u + y * v for u, v in zip(p.coords, q.coords)])
                inverses.clear()
                got = projgeom._span_point(p, q, x, y)
                assert got == expected
                if y.is_zero():
                    assert got is p and not inverses
                    branches.add("y = 0")
                elif x.is_zero():
                    assert got is q and not inverses
                    branches.add("x = 0")
                elif i != j or not (x + y).is_zero():
                    # one scalar inverse, and the coordinates need no normalising
                    assert len(inverses) == 1
                    branches.add("i < j" if i < j else "j < i" if j < i else "i = j")
                else:
                    branches.add("i = j, x + y = 0")
        assert branches == {"y = 0", "x = 0", "i < j", "j < i", "i = j", "i = j, x + y = 0"}

    def test_equal_leads_cancelling(self):
        # i = j and x + y = 0: the lead cancels, and the point is p - q
        p, q = pt(1, 1, 0, 0), pt(1, 0, 1, 0)
        one = CycloNum.one(M)
        assert projgeom._span_point(p, q, one, -one) == pt(0, 1, -1, 0)


class TestPointHash:
    """Equal points hash equal, whichever path built them."""

    @pytest.mark.parametrize("m", (5, 8, 12, 22))
    def test_every_construction_hashes_alike(self, m):
        rng = random.Random(700 + m)
        size = len(zeta(m).coeffs)
        zero = CycloNum.zero(m)

        def value():
            while True:
                v = CycloNum(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(size)])
                if not v.is_zero():
                    return v

        def point(lead):
            return ProjPoint([zero] * lead + [value() for _ in range(4 - lead)])

        branches = set()
        for i, j in itertools.product(range(4), repeat=2):
            p, q = point(i), point(j)
            if p == q:
                continue
            x = value()
            cases = [(x, zero), (zero, x), (x, value()), (x, -x)]
            for x, y in cases if i == j else cases[:3]:
                # the same point three ways: the closed form, and the vector
                # x p + y q scaled by a random factor, normalised by ProjPoint
                # from CycloNums and by from_values
                got = projgeom._span_point(p, q, x, y)
                scale = value()
                vector = [scale * (x * u + y * v) for u, v in zip(p.coords, q.coords)]
                built, given = ProjPoint(vector), ProjPoint.from_values(m, vector)
                assert got == built == given
                assert hash(got) == hash(built) == hash(given)
                assert {built: "found"}.get(got) == "found"
                branches.add(
                    "y = 0" if y.is_zero() else "x = 0" if x.is_zero() else
                    "i < j" if i < j else "j < i" if j < i else
                    "i = j" if not (x + y).is_zero() else "i = j, x + y = 0"
                )
        assert branches == {"y = 0", "x = 0", "i < j", "j < i", "i = j", "i = j, x + y = 0"}

    def test_rational_values_and_cyclotomic_coordinates_hash_alike(self):
        m = 12
        rational = ProjPoint.from_values(m, [0, Fraction(-3, 4), Fraction(3, 2), 6])
        cyclo = ProjPoint([CycloNum.rational(m, c) for c in (0, 1, -2, -8)])
        assert rational == cyclo and hash(rational) == hash(cyclo)


# The product-sum expressions the kernel sites replaced, kept as the reference:
# one CycloNum product per term, added left to right.


def summed_form_value(form, x):
    acc = None
    for a, b in zip(form, x):
        if a.is_zero() or b.is_zero():
            continue
        term = a * b
        acc = term if acc is None else acc + term
    return CycloNum.zero(x[0].m) if acc is None else acc


def summed_plucker(p, q):
    a, b = p.coords, q.coords
    raw = [a[i] * b[j] - a[j] * b[i] for i, j in PLUCKER_PAIRS]
    lead = next(c for c in raw if not c.is_zero())
    return tuple(raw) if lead == 1 else tuple(c * lead.inverse() for c in raw)


def summed_relation(pl):
    return pl[0] * pl[5] - pl[1] * pl[4] + pl[2] * pl[3]


def summed_pairing(pa, pb):
    return (
        pa[0] * pb[5] - pa[1] * pb[4] + pa[2] * pb[3] + pa[5] * pb[0] - pa[4] * pb[1] + pa[3] * pb[2]
    )


class TestKernelSites:
    """Every ``dot`` site equals the product sum it replaced.

    CycloNum equality compares the stored ``nums`` and ``den``, so equal
    values are stored alike.
    """

    @pytest.fixture(params=("moved_quartic", "shear_quartic", "fermat_quartic"))
    def lines(self, request):
        if request.param == "fermat_quartic":
            return request.getfixturevalue("fermat_arrs")[4].lines
        return request.getfixturevalue(request.param)[0].lines

    def test_plucker_vectors_and_relation(self, lines):
        for line in lines:
            assert line.plucker == summed_plucker(*line.base)
            assert summed_relation(line.plucker).is_zero()

    def test_pairings_form_values_and_minors(self, lines):
        m = lines[0].conductor
        for a, b in itertools.combinations(lines, 2):
            assert plucker_pairing(a, b) == summed_pairing(a.plucker, b.plucker)
            (p, q), (f, g) = a.base, b.forms
            sites = [(h, x.coords) for h in (f, g) for x in (p, q)]
            fp, fq, gp, gq = (dot(m, h, x) for h, x in sites)
            assert [fp, fq, gp, gq] == [summed_form_value(h, x) for h, x in sites]
            assert point_on_line(p, b) == (fp.is_zero() and gp.is_zero())
            if fp.is_zero() and fq.is_zero():
                continue
            # g at the closed-form point X, the vector fq p - fp q over its
            # lead: g(X) times the lead is the minor fq gp - fp gq.
            x = projgeom._span_point(p, q, fq, -fp)
            gx = dot(m, g, x.coords)
            assert gx == summed_form_value(g, x.coords)
            lead = next(c for c in (fq * u - fp * v for u, v in zip(p.coords, q.coords)) if c)
            assert gx * lead == fq * gp - fp * gq


class TestSympyRankOracle:
    """line_intersection against sympy: the rank of the coordinate rows over Q(zeta_m).

    Coordinates become polynomials in x modulo Phi_m, the minimal polynomial
    of zeta_m, and a rank is the largest size of a minor not divisible by it.
    """

    @staticmethod
    def rank(sympy, x, phi, rows):
        matrix = sympy.Matrix(
            [
                [sum(sympy.Rational(str(c)) * x**i for i, c in enumerate(v.coeffs)) for v in row]
                for row in rows
            ]
        )
        for size in range(len(rows), 0, -1):
            for r in itertools.combinations(range(len(rows)), size):
                for c in itertools.combinations(range(4), size):
                    minor = matrix.extract(list(r), list(c)).det(method="berkowitz")
                    if sympy.rem(sympy.expand(minor), phi, x) != 0:
                        return size
        return 0

    @pytest.mark.parametrize("m", (5, 8, 12, 14))
    def test_random_meeting_and_skew_pairs(self, m):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        phi = sympy.cyclotomic_poly(m, x)
        rng = random.Random(1000 + m)
        size = len(zeta(m).coeffs)

        def value():
            return CycloNum(m, [rng.randint(-3, 3) for _ in range(size)])

        def point():
            return ProjPoint([value() for _ in range(4)])

        for _ in range(2):
            p, q, r = point(), point(), point()
            s, t = value(), value()
            shared = ProjPoint([s * u + t * v for u, v in zip(p.coords, q.coords)])
            a, b = ProjLine(p, q), ProjLine(shared, r)
            meet = line_intersection(a, b)
            assert meet == shared
            assert self.rank(sympy, x, phi, [*(pt.coords for pt in a.base), meet.coords]) == 2
            assert self.rank(sympy, x, phi, [*(pt.coords for pt in b.base), meet.coords]) == 2
            assert self.rank(sympy, x, phi, [*(pt.coords for pt in a.base), *(pt.coords for pt in b.base)]) == 3
        a, b = ProjLine(point(), point()), ProjLine(point(), point())
        assert line_intersection(a, b) is None
        assert self.rank(sympy, x, phi, [*(pt.coords for pt in a.base), *(pt.coords for pt in b.base)]) == 4
