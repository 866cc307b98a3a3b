import itertools
import random

import pytest

from linesurf import projgeom
from linesurf.exactnum import CycloNum, nth_roots_of_minus_one, zeta
from linesurf.projgeom import (
    ProjPoint,
    line_intersection,
    line_through,
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


class TestLineThrough:
    def test_coordinate_axis(self):
        line = line_through(pt(1, 0, 0, 0), pt(0, 1, 0, 0))
        assert [str(c) for c in line.plucker] == ["1", "0", "0", "0", "0", "0"]

    def test_orientation_absorbed(self):
        p, q = pt(1, 2, 3, 4), pt(0, 1, -1, 2)
        assert line_through(p, q) == line_through(q, p)

    def test_fermat_style_line(self):
        # x = zeta*y, z = xi*w realized through (zeta,1,0,0) and (0,0,xi,1)
        zr, xr = nth_roots_of_minus_one(3)[0], nth_roots_of_minus_one(3)[1]
        p = ProjPoint.from_values(M, (zr, 1, 0, 0))
        q = ProjPoint.from_values(M, (0, 0, xr, 1))
        line = line_through(p, q)
        for point in (p, q):
            x, y, z, w = point.coords
            assert (x - zr * y).is_zero()
            assert (z - xr * w).is_zero()
        assert point_on_line(p, line) and point_on_line(q, line)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            line_through(pt(1, 2, 0, 0), pt(2, 4, 0, 0))

    def test_plucker_relation(self):
        rng = random.Random(777)
        for _ in range(40):
            coords = [rng.randint(-5, 5) for _ in range(8)]
            try:
                line = line_through(pt(*coords[:4]), pt(*coords[4:]))
            except ValueError:
                continue
            p = line.plucker
            assert (p[0] * p[5] - p[1] * p[4] + p[2] * p[3]).is_zero()

    def test_canonical_equality_different_spans(self):
        p, q = pt(1, 0, 2, 1), pt(0, 1, 1, 3)
        line = line_through(p, q)
        # p + q and p - q span the same line
        r = ProjPoint([a + b for a, b in zip(p.coords, q.coords)])
        s = ProjPoint([a - b for a, b in zip(p.coords, q.coords)])
        assert line_through(r, s) == line
        assert hash(line_through(r, s)) == hash(line)


class TestPointOnLine:
    def test_base_points(self):
        line = line_through(pt(1, 1, 0, 2), pt(0, 5, 1, 1))
        assert point_on_line(line.base[0], line)
        assert point_on_line(line.base[1], line)

    def test_off_line(self):
        line = line_through(pt(0, 1, 0, 0), pt(0, 0, 1, 0))
        assert not point_on_line(pt(1, 0, 0, 0), line)

    def test_combination_stays_on_line(self):
        p, q = pt(1, 2, 0, 1), pt(0, 1, 1, 1)
        line = line_through(p, q)
        combo = ProjPoint([a + b for a, b in zip(p.coords, q.coords)])
        assert point_on_line(combo, line)

    def test_matches_rank_oracle(self):
        rng = random.Random(4242)
        lines, points = [], []
        for _ in range(8):
            try:
                lines.append(line_through(pt(*(rng.randint(-3, 3) for _ in range(4))),
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
        a = line_through(pt(1, 0, 0, 0), pt(0, 1, 0, 0))
        b = line_through(pt(1, 0, 0, 0), pt(0, 0, 1, 0))
        assert line_intersection(a, b) == pt(1, 0, 0, 0)

    def test_fermat_family_skew(self):
        roots = nth_roots_of_minus_one(3)

        def fam_a(zr, xr):
            return line_through(
                ProjPoint.from_values(M, (zr, 1, 0, 0)),
                ProjPoint.from_values(M, (0, 0, xr, 1)),
            )

        # different zeta and different xi: the 4x4 system only has the zero solution
        assert line_intersection(fam_a(roots[0], roots[1]), fam_a(roots[1], roots[2])) is None
        assert plucker_pairing(fam_a(roots[0], roots[1]), fam_a(roots[1], roots[2])) != 0

    def test_fermat_family_shared_zeta(self):
        roots = nth_roots_of_minus_one(3)

        def fam_a(zr, xr):
            return line_through(
                ProjPoint.from_values(M, (zr, 1, 0, 0)),
                ProjPoint.from_values(M, (0, 0, xr, 1)),
            )

        meet = line_intersection(fam_a(roots[0], roots[1]), fam_a(roots[0], roots[2]))
        assert meet == ProjPoint.from_values(M, (roots[0], 1, 0, 0))

    def test_symmetry(self):
        a = line_through(pt(1, 2, 3, 4), pt(0, 1, 0, 1))
        b = line_through(pt(1, 2, 3, 4), pt(1, 1, 1, 1))
        assert line_intersection(a, b) == line_intersection(b, a)

    def test_result_lies_on_both(self):
        # both lines lie in the plane w = 0, so they must meet
        a = line_through(pt(1, 0, 0, 0), pt(0, 1, 0, 0))
        b = line_through(pt(0, 0, 1, 0), pt(1, 1, 1, 0))
        meet = line_intersection(a, b)
        assert meet is not None
        assert point_on_line(meet, a) and point_on_line(meet, b)

    def test_three_points_pairwise(self):
        p, q, r = pt(1, 0, 0, 0), pt(0, 1, 0, 0), pt(0, 0, 1, 0)
        pq, pr, qr = line_through(p, q), line_through(p, r), line_through(q, r)
        assert line_intersection(pq, pr) == p
        assert line_intersection(pq, qr) == q
        assert line_intersection(pr, qr) == r

    def test_identical_lines_rejected(self):
        a = line_through(pt(1, 0, 0, 0), pt(0, 1, 0, 0))
        b = line_through(pt(1, 1, 0, 0), pt(1, -1, 0, 0))
        assert a == b
        with pytest.raises(ValueError):
            line_intersection(a, b)

    def test_line_in_plane_of_first_form(self):
        # a lies in the plane w = 0 of b.forms[0], so that form gives no point on a
        e0, e1, e2 = pt(1, 0, 0, 0), pt(0, 1, 0, 0), pt(0, 0, 1, 0)
        a, b = line_through(e0, e2), line_through(e0, e1)
        assert all(projgeom._dot(b.forms[0], p.coords).is_zero() for p in a.base)
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
            return line_through(*base)

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

    def test_skew_pair_reported_as_meeting_fails(self, monkeypatch):
        a = line_through(pt(1, 0, 0, 0), pt(0, 1, 0, 0))
        b = line_through(pt(0, 0, 1, 0), pt(0, 0, 0, 1))
        assert line_intersection(a, b) is None
        monkeypatch.setattr(projgeom, "plucker_pairing", lambda a, b: CycloNum.zero(M))
        with pytest.raises(AssertionError, match="do not share a point"):
            line_intersection(a, b)


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

    @pytest.mark.parametrize("m", (8, 12, 14))
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
            a, b = line_through(p, q), line_through(shared, r)
            meet = line_intersection(a, b)
            assert meet == shared
            assert self.rank(sympy, x, phi, [*(pt.coords for pt in a.base), meet.coords]) == 2
            assert self.rank(sympy, x, phi, [*(pt.coords for pt in b.base), meet.coords]) == 2
            assert self.rank(sympy, x, phi, [*(pt.coords for pt in a.base), *(pt.coords for pt in b.base)]) == 3
        a, b = line_through(point(), point()), line_through(point(), point())
        assert line_intersection(a, b) is None
        assert self.rank(sympy, x, phi, [*(pt.coords for pt in a.base), *(pt.coords for pt in b.base)]) == 4
