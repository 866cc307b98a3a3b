import random
from fractions import Fraction

import pytest

from linesurf.catalog import (
    IncidenceProfile,
    cubic_profile,
    fermat_profile,
    rams_profile,
    schur_profile,
)
from linesurf.harbourne import (
    InapplicableDegree,
    UndefinedConstant,
    analyze_profile,
    cubic_h,
    extremal_profile_search,
    fermat_h_closed,
    harbourne_linear,
    harbourne_lower_bound,
    line_self_intersection,
    miyaoka_check,
    rams_h_closed,
    strict_transform_sq,
    strict_transform_sq_lower,
)
BAUER = IncidenceProfile(n=4, d=16, t={4: 8})


class TestLineSelfIntersection:
    def test_cubic(self):
        assert line_self_intersection(3) == -1

    def test_quartic(self):
        assert line_self_intersection(4) == -2

    def test_quadric_excluded(self):
        with pytest.raises(InapplicableDegree):
            line_self_intersection(2)


class TestStrictTransformSq:
    def test_bauer(self):
        # 16*(-2) + 16*6 - 16*8
        assert strict_transform_sq(BAUER) == -64

    def test_schur(self):
        # (-2)*64 + 1152 - (4*336 + 9*64 + 16*8)
        assert strict_transform_sq(schur_profile()) == -1024

    def test_disjoint_lines(self):
        assert strict_transform_sq(IncidenceProfile(n=4, d=2, t={})) == -4

    def test_two_forms_on_random_profiles(self):
        rng = random.Random(35711)
        produced = 0
        while produced < 300:
            n = rng.randint(3, 9)
            d = rng.randint(1, 40)
            t = {}
            budget = d * (d - 1)
            for k in range(2, min(6, d) + 1):
                cap = budget // (k * k - k)
                if cap:
                    t[k] = rng.randint(0, cap)
                    budget -= (k * k - k) * t[k]
            try:
                profile = IncidenceProfile(n=n, d=d, t=t)
            except ValueError:
                continue
            strict_transform_sq(profile)  # raises if the two forms disagree
            produced += 1


class TestHarbourneLinear:
    def test_fermat_cubic(self):
        assert harbourne_linear(cubic_profile(18)) == Fraction(-27, 11)

    def test_schur(self):
        assert harbourne_linear(schur_profile()) == Fraction(-128, 51)

    def test_bauer(self):
        assert harbourne_linear(BAUER) == -8

    def test_undefined_without_singular_points(self):
        with pytest.raises(UndefinedConstant):
            harbourne_linear(IncidenceProfile(n=4, d=2, t={}))


class TestMiyaoka:
    def test_schur(self):
        assert miyaoka_check(schur_profile()) == (-144, 72, True)

    def test_fermat_quartic(self):
        assert miyaoka_check(fermat_profile(4)) == (0, 72, True)

    def test_cubic_inapplicable(self):
        with pytest.raises(InapplicableDegree):
            miyaoka_check(fermat_profile(3))


class TestLowerBound:
    def test_bauer(self):
        assert harbourne_lower_bound(BAUER) == -9

    def test_schur(self):
        bound = harbourne_lower_bound(schur_profile())
        assert bound == Fraction(-155, 51)
        assert harbourne_linear(schur_profile()) >= bound

    def test_fermat_limit(self):
        # the bound tends to -11/3 from above as the degree grows
        prev = harbourne_lower_bound(fermat_profile(4))
        for n in range(5, 60, 5):
            cur = harbourne_lower_bound(fermat_profile(n))
            assert cur < prev
            prev = cur
        assert abs(harbourne_lower_bound(fermat_profile(400)) + Fraction(11, 3)) < Fraction(1, 100)

    def test_cubic_inapplicable(self):
        with pytest.raises(InapplicableDegree):
            harbourne_lower_bound(cubic_profile(18))

    def test_strict_form(self):
        assert strict_transform_sq_lower(4, 8) == -104
        assert strict_transform_sq(BAUER) > strict_transform_sq_lower(4, 8)


class TestClosedForms:
    def test_fermat_values(self):
        assert fermat_h_closed(3) == Fraction(-27, 11)
        assert fermat_h_closed(4) == Fraction(-8, 3)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_fermat_vs_brute_force(self, n, fermat_brute_profiles):
        # closed form against the full geometric pipeline, no formulas involved
        assert fermat_h_closed(n) == harbourne_linear(fermat_brute_profiles[n])

    def test_fermat_tends_to_minus_three(self):
        assert abs(fermat_h_closed(1000) + 3) < Fraction(1, 100_000)

    @pytest.mark.parametrize("n,value", [(6, Fraction(-54, 13)), (10, Fraction(-250, 41))])
    def test_rams_values(self, n, value):
        assert rams_h_closed(n) == value
        assert rams_h_closed(n) == harbourne_linear(rams_profile(n))

    def test_rams_strictly_decreasing(self):
        values = [rams_h_closed(n) for n in range(6, 31)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_cubic_values(self):
        assert cubic_h(18) == Fraction(-27, 11)
        assert cubic_h(0) == Fraction(-11, 5)

    def test_cubic_strictly_decreasing(self):
        assert all(cubic_h(t + 1) < cubic_h(t) for t in range(18))

    @pytest.mark.parametrize("t", range(0, 19, 3))
    def test_cubic_vs_profile(self, t):
        assert cubic_h(t) == harbourne_linear(cubic_profile(t))


class TestAnalyzeProfile:
    def test_schur_report(self):
        report = analyze_profile(schur_profile())
        assert report.h_linear == Fraction(-128, 51)
        assert report.strict_transform_sq == -1024
        assert report.miyaoka_holds and report.h_bound_holds and report.strict_bound_holds
        assert report.h_linear == Fraction(report.strict_transform_sq, report.s)

    def test_cubic_report_has_no_bounds(self):
        report = analyze_profile(cubic_profile(10))
        assert report.miyaoka_lhs is None
        assert report.h_lower_bound is None
        assert report.h_linear == cubic_h(10)

    def test_empty_profile_report(self):
        report = analyze_profile(IncidenceProfile(n=4, d=2, t={}))
        assert report.h_linear is None
        assert report.s == 0


class TestExtremalSearch:
    def test_contains_bauer_profile(self):
        results = extremal_profile_search(4, 16, 4)
        values = {tuple(sorted(p.t.items())): v for p, v in results}
        assert values[((4, 8),)] == -8
        miy = miyaoka_check(IncidenceProfile(n=4, d=16, t={4: 8}))
        assert miy.lhs == 64 and miy.holds

    def test_single_line(self):
        results = extremal_profile_search(4, 1, 4)
        assert len(results) == 1
        profile, value = results[0]
        assert profile.s == 0 and value is None

    def test_toy_enumeration(self):
        results = extremal_profile_search(4, 3, 3)
        as_dict = {tuple(sorted(p.t.items())): v for p, v in results}
        assert as_dict[((3, 1),)] == -9
        assert as_dict[((2, 1),)] == -8
        assert as_dict[((2, 2),)] == -5
        assert as_dict[((2, 3),)] == -4
        assert as_dict[()] is None
        assert len(results) == 5
        # sorted ascending by H_L, no-value profiles last
        values = [v for _, v in results]
        assert values == [-9, -8, -5, -4, None]

    def test_everything_passes_miyaoka(self):
        for profile, _ in extremal_profile_search(4, 6, 4):
            assert miyaoka_check(profile).holds

    def test_degree_gate(self):
        with pytest.raises(InapplicableDegree):
            extremal_profile_search(3, 5, 3)

    def test_line_bound_gate(self):
        with pytest.raises(ValueError):
            extremal_profile_search(4, 65, 3)

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            extremal_profile_search(4, 6, 3, limit=-1)
        assert extremal_profile_search(4, 6, 3, limit=0) == []


class TestBoundSoundness:
    def test_family_sweep(self):
        profiles = [fermat_profile(n) for n in range(4, 30)]
        profiles += [rams_profile(n) for n in range(6, 30)]
        profiles += [schur_profile(), BAUER]
        for p in profiles:
            assert miyaoka_check(p).holds
            h = harbourne_linear(p)
            assert h >= harbourne_lower_bound(p)
            assert strict_transform_sq(p) > strict_transform_sq_lower(p.n, p.s)
