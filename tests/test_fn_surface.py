"""Fenchel-Nielsen charts, twists and re-marking moves."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from teichlab import farey
from teichlab import fn_surface as fs


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

    def test_cusp_relation(self):
        # cusped chart lands on kappa = -2
        t = fs.fricke_triple(torus(1.3, 0.7))
        assert t.kappa == pytest.approx(-2.0, abs=1e-12)

    def test_boundary_trace(self):
        l1 = 0.8
        t = fs.fricke_triple(torus(1.3, 0.7, l1))
        assert t.kappa == pytest.approx(-2.0 * math.cosh(l1 / 2.0), abs=1e-10)

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
