"""Fenchel-Nielsen charts, twists and re-marking moves."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teichlab import farey
from teichlab import fn_surface as fs
from teichlab import orbit


def torus(ell, tau, l1=0.0):
    return fs.SurfacePoint("S11", (l1,), ell, tau)


def sphere(ell, tau, bnds=(0.4, 0.7, 1.1, 0.9)):
    return fs.SurfacePoint("S04", bnds, ell, tau)


ells = st.floats(min_value=0.3, max_value=4.0)
taus = st.floats(min_value=-3.0, max_value=3.0)


class TestTorusChart:
    @given(ells, taus, st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, ell, tau, l1):
        X = torus(ell, tau, l1)
        Y = fs.surface_from_triple(fs.fricke_triple(X), l1)
        assert Y.ell == pytest.approx(ell, rel=1e-8, abs=1e-8)
        # the inversion solves |tau| to the chart tolerance (1e-8)
        assert Y.tau == pytest.approx(tau, rel=1e-6, abs=1e-7)

    def test_int_triple_inverts(self):
        # an int kappa is compared with the float -2 cosh(l1/2) in floats,
        # with the slack of its rounding: kappa(3, 3, 4) = -4, l1 = 2 acosh 2
        l1 = 2.0 * math.acosh(2.0)
        Y = fs.surface_from_triple(fs.FrickeTriple(3, 3, 4), l1)
        assert Y == fs.surface_from_triple(fs.FrickeTriple(3.0, 3.0, 4.0), l1)

    def test_cusp_relation(self):
        # cusped chart lands on kappa = -2
        t = fs.fricke_triple(torus(1.3, 0.7))
        assert t.kappa == pytest.approx(-2.0, abs=1e-12)

    def test_boundary_trace(self):
        l1 = 0.8
        t = fs.fricke_triple(torus(1.3, 0.7, l1))
        assert t.kappa == pytest.approx(-2.0 * math.cosh(l1 / 2.0), abs=1e-10)

    @pytest.mark.parametrize("row", ["wedge", "wedge_l1", "thin", "far"])
    def test_chart_matches_mpmath(self, row):
        # each coordinate of fricke_triple within 2^-52 relative of the
        # chart in 60-digit mpmath, on 300 seeded points of each row: the
        # MC's draw wedge at l1 = 0 and 2, ell = 1e-3, and ell in [0.5, 5]
        # with |tau| <= 300, where a float cosh((ell + tau)/2) of the
        # rounded sum lost digits
        rng = np.random.default_rng([1731, len(row)])
        l1 = 2.0 if row == "wedge_l1" else 0.0
        for _ in range(300):
            u1, u2, u3 = (float(u) for u in rng.random(3))
            if row.startswith("wedge"):
                ell = orbit._systole_cap(l1) * max(u1, u2)
                tau = u3 * ell
            elif row == "thin":
                ell, tau = 1e-3, 4.0 * u3 - 2.0
            else:
                ell, tau = 0.5 + 4.5 * u1, 600.0 * u3 - 300.0
            got = fs.fricke_triple(torus(ell, tau, l1)).astuple()
            with mpmath.workdps(60):
                h, t = mpmath.mpf(ell) / 2, mpmath.mpf(tau) / 2
                m = mpmath.sqrt(2 * mpmath.cosh(mpmath.mpf(l1) / 2)
                                + 2 * mpmath.cosh(2 * h)) \
                    / (2 * mpmath.sinh(h))
                want = (2 * mpmath.cosh(h), 2 * m * mpmath.cosh(t),
                        2 * m * mpmath.cosh(h + t))
                for g, w in zip(got, want):
                    assert abs(g - w) <= 2.0 ** -52 * w, (ell, tau, l1)

    def test_float_range(self):
        # past the float range but on the chart a ValueError names the
        # float range, off the chart it names the chart bound
        assert all(math.isfinite(v)
                   for v in fs.fricke_triple(torus(1.5, 1400.0)).astuple())
        with pytest.raises(ValueError, match="float range"):
            fs.fricke_triple(torus(1.5, 1500.0))
        with pytest.raises(ValueError, match="off the chart"):
            fs.fricke_triple(torus(1.5, 2e5))

    def test_float_range_edge(self, monkeypatch):
        # a certified trace of 2^1024 - 2^970, half an ulp above the
        # largest float, passes the bit-length test and rounds up to
        # 2^1024 in the division: the same ValueError
        k, edge = 64, (1 << 1024) - (1 << 970)
        monkeypatch.setattr(fs, "_chart_fixed", lambda *args: (
            (3 << k, 3 << k, edge << k), (0, 0, 0)))
        with pytest.raises(ValueError, match="float range"):
            fs.fricke_triple(torus(1.5, 1400.0))

    def test_coordinate_curve_length(self):
        X = torus(1.7, 0.3)
        assert fs.curve_length(X, fs.torus_curve((1, 0))) == pytest.approx(1.7)
        assert fs.curve_length(X, fs.torus_curve("a")) == pytest.approx(1.7)

    def test_transversal_relation(self):
        # cosh(l_beta/2) = cosh(tau/2) coth(l/2) on a cusped torus: the
        # chart's twist origin
        X = torus(1.1, 0.9)
        lb = fs.curve_length(X, fs.torus_curve((0, 1)))
        rhs = math.cosh(X.tau / 2.0) / math.tanh(X.ell / 2.0)
        assert abs(math.cosh(lb / 2.0) - rhs) < 1e-10 * rhs


class TestTwist:
    @given(ells, taus, st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_flow_additive(self, ell, tau, s, t):
        X = torus(ell, tau)
        Y = fs.twist_flow(fs.twist_flow(X, s), t)
        Z = fs.twist_flow(X, s + t)
        assert Y.tau == pytest.approx(Z.tau, abs=1e-12)
        assert Y.ell == pytest.approx(Z.ell)

    def test_dehn_twist_spectra_relabel(self):
        # tw^{l_alpha} acts on curves by the twist slope map: the length
        # spectrum of the twisted surface matches the relabeled spectrum
        X = torus(1.4, 0.6)
        Y = fs.dehn_twist(X)
        for (p, q) in farey.slopes_up_to_depth(3)[:20]:
            lx = fs.curve_length(X, fs.torus_curve(fs.dehn_twist_slope_map(p, q)))
            ly = fs.curve_length(Y, fs.torus_curve((p, q)))
            assert ly == pytest.approx(lx, rel=1e-9, abs=1e-9)

    def test_convexity_along_twist(self):
        # simple-curve lengths are strictly convex in the twist
        X = torus(1.5, 0.0)
        for slope in [(0, 1), (1, 1), (2, 1)]:
            vals = [fs.curve_length(fs.twist_flow(X, t), fs.torus_curve(slope))
                    for t in [i * 0.25 - 2.0 for i in range(17)]]
            d2 = [a - 2 * b + c for a, b, c in zip(vals, vals[1:], vals[2:])]
            assert min(d2) > 0


class TestElementaryMove:
    def test_torus_involution(self):
        X = torus(1.2, 0.8, 0.5)
        Z = fs.elementary_move(fs.elementary_move(X))
        assert Z.ell == pytest.approx(X.ell, rel=1e-8)
        assert Z.tau == pytest.approx(X.tau, rel=1e-8, abs=1e-8)

    def test_torus_preserves_geometry(self):
        X = torus(1.2, 0.8)
        Y = fs.elementary_move(X)
        # the new coordinate curve is the old transversal
        lb = fs.curve_length(X, fs.torus_curve((0, 1)))
        assert Y.ell == pytest.approx(lb, rel=1e-9)

    def test_sphere_preserves_geometry(self):
        X = sphere(1.8, 0.4)
        Y = fs.elementary_move(X)
        delta = fs.CurveOnSurface(fs.S04, label="delta")
        assert Y.ell == pytest.approx(fs.curve_length(X, delta), rel=1e-8)
        assert fs.curve_length(Y, delta) == pytest.approx(X.ell, rel=1e-6)

    @pytest.mark.parametrize("ell, tau", [(20.0, 0.3), (50.0, 0.3),
                                          (1.0, 40.0), (0.5, -30.0)])
    @pytest.mark.parametrize("l1", [0.0, 0.5])
    def test_torus_move_at_large_traces(self, ell, tau, l1):
        # kappa = x^2 + y^2 + z^2 - xyz - 2 rounds like x^2 + y^2 + z^2, so
        # the level-set check takes that slack (fricke._kappa_slack), not
        # one relative to kappa
        X = torus(ell, tau, l1)
        Y = fs.elementary_move(X)
        lb = fs.curve_length(X, fs.torus_curve((0, 1)))
        assert Y.ell == pytest.approx(lb, rel=1e-12)
        for _ in range(3):
            Y = fs.elementary_move(Y)
        assert (Y.ell, Y.tau) == pytest.approx((ell, tau), rel=1e-12,
                                               abs=1e-12)
        assert fs.wolpert_check(X) <= 1e-5

    @pytest.mark.parametrize("ell, tau, want", [
        (100.0, 100.0, (100.0, -100.0)), (30.0, 200.0, (200.0, -30.0))])
    @pytest.mark.parametrize("l1", [0.0, 0.5])
    def test_torus_move_at_large_coordinates(self, ell, tau, want, l1):
        # xy - z = tr(a b^-1) is many orders below xy here: formed in
        # floats it lost every digit (kappa 1.3e71 at (100, 100)), formed
        # from the chart's fixed point it keeps them
        Y = fs.elementary_move(torus(ell, tau, l1))
        assert (Y.ell, Y.tau) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("ell, tau, l1", [
        (100.0, 100.0, 0.0), (100.0, 100.0, 0.5), (30.0, 200.0, 0.0),
        (1.2, 0.8, 0.5), (20.0, 0.3, 0.0), (0.5, -30.0, 0.5)])
    def test_moved_triple_matches_mpmath(self, ell, tau, l1):
        # the swapped triple (y, x, xy - z) that the move inverts, each
        # coordinate within 2^-52 relative of the chart in 150-digit mpmath
        got = fs._float_chart(torus(ell, tau, l1), True).astuple()
        with mpmath.workdps(150):
            h, t = mpmath.mpf(ell) / 2, mpmath.mpf(tau) / 2
            m = mpmath.sqrt(2 * mpmath.cosh(mpmath.mpf(l1) / 2)
                            + 2 * mpmath.cosh(2 * h)) / (2 * mpmath.sinh(h))
            x, y, z = (2 * mpmath.cosh(h), 2 * m * mpmath.cosh(t),
                       2 * m * mpmath.cosh(h + t))
            for g, w in zip(got, (y, x, x * y - z)):
                assert abs(g - w) <= 2.0 ** -52 * abs(w), (ell, tau, l1)

    def test_torus_move_past_the_float_range(self):
        # at ell = 800 kappa overflows to nan, which the check rejects
        with pytest.raises(ValueError):
            fs.elementary_move(torus(800.0, 0.3))

    def test_wolpert_jacobian_torus(self):
        assert fs.wolpert_check(torus(1.3, 0.4)) <= 1e-5

    def test_wolpert_jacobian_sphere(self):
        assert fs.wolpert_check(sphere(2.2, 0.7)) <= 1e-5


class TestSphere:
    def test_boundary_lengths(self):
        X = sphere(1.5, 0.2)
        for i, b in enumerate(X.boundaries):
            c = fs.CurveOnSurface(fs.S04, label="b%d" % (i + 1))
            assert fs.curve_length(X, c) == b

    def test_interior(self):
        X = sphere(1.5, 0.2)
        c = fs.CurveOnSurface(fs.S04, label="interior")
        assert fs.curve_length(X, c) == 1.5
