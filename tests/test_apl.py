"""Asymptotic piecewise linearity: ray fits, rationality, wall detection."""

import json

import pytest

from teichlab import apl


RADII = [5.0 * 10 ** (2.0 * i / 7.0) for i in range(8)]


class TestNearestRational:
    def test_exact(self):
        r = apl.nearest_rational(0.5)
        assert (r.numerator, r.denominator) == (1, 2)
        assert r.ok

    def test_reject_far(self):
        # 32/63, the nearest fraction of denominator <= MAX_DEN, is 1.4e-4
        # away
        r = apl.nearest_rational(0.5078, tol=1e-4)
        assert not r.ok

    def test_integer(self):
        r = apl.nearest_rational(2.0 + 1e-9)
        assert (r.numerator, r.denominator) == (2, 1)
        assert r.ok


class TestRayFit:
    def test_coordinate_curve(self):
        fit = apl.ray_fit("a", (0.0, 0.0), (1.0, 0.3), RADII)
        assert fit.slope == pytest.approx(1.0, abs=1e-9)
        assert fit.gradient[0] == pytest.approx(1.0, abs=1e-6)
        assert fit.gradient[1] == pytest.approx(0.0, abs=1e-6)
        assert not fit.wall_flag

    def test_two_one_curve(self):
        # aab has slope (2,1): gradient (2,1) in the positive-twist cone
        fit = apl.ray_fit("aab", (0.3, -0.2), (1.0, 0.5), RADII)
        assert fit.gradient[0] == pytest.approx(2.0, abs=1e-5)
        assert fit.gradient[1] == pytest.approx(1.0, abs=1e-5)
        assert fit.rational["grad_ell"]["ok"]
        assert fit.rational["grad_tau"]["ok"]

    def test_commutator_square_word(self):
        fit = apl.ray_fit("abaB", (0.1, 0.4), (1.0, -0.7), RADII)
        assert fit.gradient[0] == pytest.approx(2.0, abs=1e-5)
        assert fit.gradient[1] == pytest.approx(0.0, abs=1e-5)

    def test_basepoint_independence(self):
        f1 = apl.ray_fit("aab", (0.0, 0.0), (1.0, 0.4), RADII)
        f2 = apl.ray_fit("aab", (0.9, -1.3), (1.0, 0.4), RADII)
        assert f1.slope == pytest.approx(f2.slope, abs=1e-6)
        assert f1.gradient[1] == pytest.approx(f2.gradient[1], abs=1e-5)

    def test_json_schema(self):
        fit = apl.ray_fit("a", (0.0, 0.0), (1.0, 0.0), RADII)
        d = json.loads(fit.to_json())
        assert d["schema"] == "APL1"
        assert len(d["lengths"]) == len(RADII)

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            apl.ray_fit("a", (0.0, 0.0), (-1.0, 0.0), RADII)

    def test_rejects_short_span(self):
        with pytest.raises(ValueError):
            apl.ray_fit("a", (0.0, 0.0), (1.0, 0.0), [1.0, 2.0, 4.0, 8.0])


class TestWallScan:
    def test_twist_independent_word_has_no_walls(self):
        assert apl.wall_scan("a").wall_count == 0

    def test_transversal_wall_at_zero(self):
        scan = apl.wall_scan("b")
        assert scan.wall_count == 1
        assert scan.walls[0].u_mid == pytest.approx(0.0, abs=0.2)
        assert scan.walls[0].rational["ok"]

    def test_stability_under_refinement(self):
        for g in ["a", "b", "aab"]:
            assert apl.wall_scan(g, grid_n=64).wall_count == \
                apl.wall_scan(g, grid_n=128).wall_count

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            apl.wall_scan("b", grid_n=8)
