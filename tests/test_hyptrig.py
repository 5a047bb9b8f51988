"""Hexagon trigonometry kernel: stability, round trips, asymptotics."""

import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from teichlab import hyptrig as ht


side = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)


class TestStableScalars:
    def test_acosh_1p_moderate(self):
        for r in [0.5, 1.0, 3.0, 10.0]:
            assert ht.acosh_1p(r) == pytest.approx(math.acosh(1.0 + r), rel=1e-14)

    def test_acosh_1p_tiny(self):
        # acosh(1+r) ~ sqrt(2r) as r -> 0; naive evaluation loses half the digits
        for r in [1e-12, 1e-16, 1e-20]:
            assert ht.acosh_1p(r) == pytest.approx(math.sqrt(2.0 * r), rel=1e-6)

    def test_acosh_1p_exp_consistency(self):
        for log_r in [-5.0, 0.0, 5.0]:
            assert ht.acosh_1p_exp(log_r) == pytest.approx(
                ht.acosh_1p(math.exp(log_r)), rel=1e-13)

    def test_acosh_1p_exp_huge(self):
        # far beyond float exp range: acosh(1+R) ~ log(2R)
        assert ht.acosh_1p_exp(1000.0) == pytest.approx(1000.0 + math.log(2.0), rel=1e-12)

    @given(st.floats(min_value=-700.0, max_value=700.0))
    @settings(max_examples=60, deadline=None)
    def test_log_cosh_matches_mp(self, t):
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.cosh(t)))
        assert ht.log_cosh(t) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    @given(st.floats(min_value=1e-8, max_value=700.0))
    @settings(max_examples=60, deadline=None)
    def test_log_sinh_matches_mp(self, t):
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.sinh(t)))
        assert ht.log_sinh(t) == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestHexagon:
    @given(side, side, side)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, ta, tb, cc):
        c = ht.hexagon_side("convex", ta, tb, cc)
        back = ht.hexagon_side("crossed", ta, tb, c)
        assert back == pytest.approx(cc, rel=1e-9, abs=1e-9)

    def test_regular_hexagon_root(self):
        # the all-equal-sides hexagon satisfies cosh s = 2
        s = math.acosh(2.0)
        assert ht.hexagon_side("convex", s, s, s) == pytest.approx(s, abs=1e-12)

    def test_regular_root_is_two(self):
        # fixed point of the side identity: cosh c = (cosh c + cosh^2 c)/sinh^2 c
        # solved by cosh c = 2
        def gap(s):
            return ht.hexagon_side("convex", s, s, s) - s

        lo, hi = 0.5, 3.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(lo) * gap(mid) <= 0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert math.cosh(root) == pytest.approx(2.0, abs=1e-12)

    def test_crossed_impossible_raises(self):
        with pytest.raises(ht.HexDomainError):
            ht.hexagon_side("crossed", 0.3, 0.3, 0.1)


class TestSeamF1:
    def test_direct_formula(self):
        x, y, z = 1.2, 0.9, 2.1
        arg = (math.cosh(z) + math.cosh(x) * math.cosh(y)) / (
            math.sinh(x) * math.sinh(y))
        assert ht.seam_F1(x, y, z) == pytest.approx(math.acosh(arg), rel=1e-13)

    @given(st.floats(min_value=60.0, max_value=400.0),
           st.floats(min_value=60.0, max_value=400.0),
           st.floats(min_value=60.0, max_value=400.0))
    @settings(max_examples=40, deadline=None)
    def test_log_domain_matches_mp(self, x, y, z):
        with mpmath.workdps(60):
            arg = (mpmath.cosh(z) + mpmath.cosh(x) * mpmath.cosh(y)) / (
                mpmath.sinh(x) * mpmath.sinh(y))
            ref = float(mpmath.acosh(arg))
        assert ht.seam_F1(x, y, z) == pytest.approx(ref, rel=1e-11)

    def test_log_sinh_F1_overflow_free(self):
        v = ht.log_sinh_F1(500.0, 450.0, 900.0)
        assert math.isfinite(v)
        with mpmath.workdps(80):
            arg = (mpmath.cosh(900) + mpmath.cosh(500) * mpmath.cosh(450)) / (
                mpmath.sinh(500) * mpmath.sinh(450))
            ref = float(mpmath.log(mpmath.sinh(mpmath.acosh(arg))))
        assert v == pytest.approx(ref, rel=1e-10)


class TestPLApproximant:
    def test_regions_cover(self):
        assert ht.classify_region(10.0, 10.0, 25.0) != ht.classify_region(
            10.0, 10.0, 5.0)

    def test_residual_bounded(self):
        # |log sinh F1 - E| stays under an absolute constant at scale
        worst = 0.0
        for x in range(20, 100, 13):
            for y in range(20, 100, 17):
                for z in range(20, 200, 23):
                    e, _ = ht.E_approx(float(x), float(y), float(z))
                    worst = max(worst, abs(e - ht.log_sinh_F1(
                        float(x), float(y), float(z))))
        assert worst < 2.0 * math.log(2.0) + 0.1


class TestArcOverGeodesic:
    @given(side, side, st.floats(min_value=0.1, max_value=4.0))
    @settings(max_examples=100, deadline=None)
    def test_inverse(self, a1, a2, s):
        d = ht.arc_over_geodesic(a1, a2, s)
        assert ht.arc_over_geodesic_inverse(a1, a2, d) == pytest.approx(
            s, rel=1e-9, abs=1e-9)
