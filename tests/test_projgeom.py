import itertools
import random

import pytest

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
