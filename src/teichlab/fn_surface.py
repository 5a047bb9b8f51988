"""Marked hyperbolic structures on the one-holed torus and four-holed sphere
in Fenchel-Nielsen coordinates (interior curve length l, twist tau in length
units), with curve lengths, twist flows, elementary re-marking moves and
the symplectic-volume check.

One-holed torus chart (boundary length l1, 0 = cusp): the induced trace
coordinates are

    x = 2 cosh(l/2)
    y = 2 m cosh(tau/2),   z = 2 m cosh((l + tau)/2)
    m = sqrt(2 cosh(l1/2) + 2 cosh l) / (2 sinh(l/2))

which satisfy x^2+y^2+z^2-xyz-2 = -2 cosh(l1/2) identically; at a cusp
m = coth(l/2) and the transversal relation cosh(l_beta/2) =
cosh(tau/2) coth(l/2) holds with zero twist offset.  Twist tau -> tau + l
realizes the Dehn twist exactly (slope relabel (p,q) -> (p+q, q)).

Four-holed sphere chart (boundaries l1..l4, interior curve pairing
(l1,l2 | l3,l4)): lengths of the two standard transversals come from the
two-hexagon route: seam perpendiculars a_i from boundary to interior curve,
the arc over the interior geodesic, then the half-trace formula

    cosh(l_delta/2) = sinh(l1/2) sinh(l3/2) cosh(d_tau)
                      - cosh(l1/2) cosh(l3/2).

The second transversal (pairing (l1,l4)) uses the same construction with the
opposite-side foot, offset by l/2 along the interior curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import farey
from .fricke import FrickeTriple, length_trace, trace_word_fricke
from .hyptrig import (HexDomainError, arc_over_geodesic,
                      arc_over_geodesic_inverse, seam_F1)

S11 = "S11"
S04 = "S04"
# relative tolerance of surface_from_triple's kappa and transversal checks
CHART_TOL = 1e-8


@dataclass(frozen=True)
class SurfacePoint:
    """A marked hyperbolic structure in Fenchel-Nielsen coordinates."""

    kind: str
    boundaries: tuple[float, ...]
    ell: float
    tau: float

    def __post_init__(self):
        if self.kind not in (S11, S04):
            raise ValueError("kind must be %r or %r" % (S11, S04))
        nb = 1 if self.kind == S11 else 4
        if len(self.boundaries) != nb:
            raise ValueError("%s needs %d boundary lengths" % (self.kind, nb))
        for b in self.boundaries:
            if b < 0 or not math.isfinite(b):
                raise ValueError("boundary lengths must be >= 0 (0 = cusp)")
        if not (self.ell > 0 and math.isfinite(self.ell)):
            raise ValueError("interior curve length must be positive")
        if not math.isfinite(self.tau):
            raise ValueError("twist must be finite")

    def to_record(self) -> str:
        vals = list(self.boundaries) + [self.ell, self.tau]
        return ",".join([self.kind] + ["%.17g" % v for v in vals])

    @classmethod
    def from_record(cls, rec: str) -> "SurfacePoint":
        parts = rec.strip().split(",")
        kind = parts[0]
        nums = [float(v) for v in parts[1:]]
        nb = 1 if kind == S11 else 4
        if len(nums) != nb + 2:
            raise ValueError("bad record %r" % rec)
        return cls(kind, tuple(nums[:nb]), nums[nb], nums[nb + 1])


@dataclass(frozen=True)
class CurveOnSurface:
    """A curve label.

    On the torus: a primitive slope (p,q) or a word over {a,A,b,B}; the
    coordinate curve is slope (1,0), the standard transversal (0,1).
    On the sphere: one of the labels "interior", "delta" (transversal
    pairing boundaries 1,3), "delta2" (pairing 1,4), "b1".."b4".
    """

    kind: str
    slope: tuple[int, int] | None = None
    word: str | None = None
    label: str | None = None

    def __post_init__(self):
        if self.kind == S11:
            if (self.slope is None) == (self.word is None):
                raise ValueError("torus curve needs exactly one of slope, word")
            if self.slope is not None:
                object.__setattr__(self, "slope", farey.normalize_slope(*self.slope))
        elif self.kind == S04:
            if self.label not in ("interior", "delta", "delta2", "b1", "b2", "b3", "b4"):
                raise ValueError("bad sphere curve label %r" % self.label)
        else:
            raise ValueError("kind must be %r or %r" % (S11, S04))


def torus_curve(spec) -> CurveOnSurface:
    if isinstance(spec, str):
        return CurveOnSurface(S11, word=spec)
    return CurveOnSurface(S11, slope=tuple(spec))


# ---------------------------------------------------------------------------
# one-holed torus


def _torus_m(l1: float, ell: float) -> float:
    return math.sqrt(2.0 * math.cosh(l1 / 2.0) + 2.0 * math.cosh(ell)) \
        / (2.0 * math.sinh(ell / 2.0))


def fricke_triple(X: SurfacePoint) -> FrickeTriple:
    """Trace coordinates of the torus chart marking (a = coordinate curve,
    b = transversal, so x = Tr a, y = Tr b, z = Tr ab)."""
    if X.kind != S11:
        raise ValueError("fricke_triple is defined for the torus chart")
    l1 = X.boundaries[0]
    m = _torus_m(l1, X.ell)
    x = 2.0 * math.cosh(X.ell / 2.0)
    y = 2.0 * m * math.cosh(X.tau / 2.0)
    z = 2.0 * m * math.cosh((X.ell + X.tau) / 2.0)
    return FrickeTriple(x, y, z)


def surface_from_triple(t: FrickeTriple, l1: float) -> SurfacePoint:
    """Invert the torus chart: recover (l, tau) from trace coordinates.

    l1 must match the boundary invariant kappa = -2 cosh(l1/2) of the
    triple (checked).  The twist sign is fixed by the third trace.
    """
    x, y, z = abs(t.x), abs(t.y), abs(t.z)
    if x <= 2.0:
        raise ValueError("coordinate-curve trace must exceed 2")
    want = -2.0 * math.cosh(l1 / 2.0)
    if abs(t.kappa - want) > CHART_TOL * max(1.0, abs(want)):
        raise ValueError("triple has kappa=%g, boundary l1=%g needs %g"
                         % (t.kappa, l1, want))
    ell = 2.0 * math.acosh(x / 2.0)
    m = _torus_m(l1, ell)
    # z = y cosh(l/2) + 2m sinh(l/2) sinh(tau/2): solving for sinh(tau/2)
    # stays full precision through tau = 0 (acosh of y/2m does not) and
    # carries the twist sign
    s = (z - y * math.cosh(ell / 2.0)) / (2.0 * m * math.sinh(ell / 2.0))
    tau = 2.0 * math.asinh(s)
    yp = 2.0 * m * math.cosh(tau / 2.0)
    if abs(yp - y) > CHART_TOL * max(1.0, y):
        raise ValueError("transversal trace inconsistent with chart (off by %g)"
                         % abs(yp - y))
    return SurfacePoint(S11, (l1,), ell, tau)


# ---------------------------------------------------------------------------
# four-holed sphere trigonometric route


def _sphere_delta_length(X: SurfacePoint, second: bool) -> float:
    """Length of the transversal pairing boundaries (1,3) or, with second
    set, (1,4)."""
    l1, l2, l3, l4 = X.boundaries
    if min(l1, l2, l3, l4) <= 0.0:
        raise HexDomainError(
            "transversal lengths on a cusped four-holed sphere are outside "
            "the trigonometric route's domain")
    t = X.tau
    a1 = seam_F1(l1 / 2.0, X.ell / 2.0, l2 / 2.0)
    if not second:
        a2 = seam_F1(l3 / 2.0, X.ell / 2.0, l4 / 2.0)
        bo = l3
    else:
        a2 = seam_F1(l4 / 2.0, X.ell / 2.0, l3 / 2.0)
        bo = l4
        t = t + X.ell / 2.0  # opposite-side foot sits half way along the curve
    d = arc_over_geodesic(a1, a2, t)
    arg = math.sinh(l1 / 2.0) * math.sinh(bo / 2.0) * math.cosh(d) \
        - math.cosh(l1 / 2.0) * math.cosh(bo / 2.0)
    if arg < 1.0:
        raise HexDomainError("transversal half-trace argument %g < 1" % arg)
    return 2.0 * math.acosh(arg)


# ---------------------------------------------------------------------------
# lengths


def curve_length(X: SurfacePoint, c: CurveOnSurface) -> float:
    """Geodesic length of c on X."""
    if c.kind != X.kind:
        raise ValueError("curve kind %r does not match surface kind %r"
                         % (c.kind, X.kind))
    if X.kind == S11:
        if c.slope == (1, 0):
            return X.ell
        t = fricke_triple(X)
        word = c.word if c.slope is None else farey.slope_word(*c.slope)
        return length_trace(trace_word_fricke(t, word))
    if c.label == "interior":
        return X.ell
    if c.label in ("b1", "b2", "b3", "b4"):
        return X.boundaries[int(c.label[1]) - 1]
    return _sphere_delta_length(X, second=(c.label == "delta2"))


# ---------------------------------------------------------------------------
# flows and moves


def twist_flow(X: SurfacePoint, t: float) -> SurfacePoint:
    return replace(X, tau=X.tau + t)


def dehn_twist(X: SurfacePoint) -> SurfacePoint:
    """Twist by the full curve length; equals the Dehn twist along the
    coordinate curve (curves relabel by dehn_twist_slope_map)."""
    return twist_flow(X, X.ell)


def dehn_twist_slope_map(p: int, q: int) -> tuple[int, int]:
    return farey.normalize_slope(p + q, q)


def elementary_move(X: SurfacePoint) -> SurfacePoint:
    """Re-mark X with the standard transversal as new coordinate curve.

    The hyperbolic structure is unchanged; only the chart changes.  Torus:
    the trace coordinates transform by the basis swap (x,y,z)->(y,x,xy-z)
    and the chart is inverted.  Sphere: the new interior curve is the
    (1,3)-transversal, the boundary order becomes (l1,l3,l2,l4), the new
    twist is recovered from the arc construction with its sign fixed by the
    second transversal's length (which both charts can see).
    """
    if X.kind == S11:
        t = fricke_triple(X)
        t2 = FrickeTriple(t.y, t.x, t.x * t.y - t.z)
        return surface_from_triple(t2, X.boundaries[0])
    l1, l2, l3, l4 = X.boundaries
    new_ell = _sphere_delta_length(X, second=False)
    old_alpha = X.ell
    old_d2 = _sphere_delta_length(X, second=True)
    nb = (l1, l3, l2, l4)
    # in the new chart the old interior curve is the (1,3)-transversal:
    # invert its half-trace formula for the arc, then the arc for |tau'|
    d = seam_F1(l1 / 2.0, l2 / 2.0, old_alpha / 2.0)
    a1 = seam_F1(l1 / 2.0, new_ell / 2.0, l3 / 2.0)
    a2 = seam_F1(l2 / 2.0, new_ell / 2.0, l4 / 2.0)
    abs_tau = arc_over_geodesic_inverse(a1, a2, d)
    best = None
    for s in (1.0, -1.0):
        Y = SurfacePoint(S04, nb, new_ell, s * abs_tau)
        err = abs(_sphere_delta_length(Y, second=True) - old_d2)
        if best is None or err < best[0]:
            best = (err, Y)
    err, Y = best
    if err > 1e-6 * max(1.0, old_d2):
        raise HexDomainError("re-marking inconsistent: second transversal off by %g" % err)
    return Y


# ---------------------------------------------------------------------------
# symplectic check


def _move_coords(X: SurfacePoint) -> tuple[float, float]:
    Y = elementary_move(X)
    return Y.ell, Y.tau


def wolpert_check(X: SurfacePoint, h: float = 1e-5) -> float:
    """|det J - 1| for the central-difference Jacobian of the elementary
    move in (l, tau); the move preserves dl ^ dtau so the contract is
    <= 1e-5 at generic points.

    Near a twist-sign wall the differencing straddles a corner; that is
    reported by raising, and the caller retries with a smaller step.
    """
    scale = max(1.0, X.ell, abs(X.tau))
    hh = h * scale
    lp = replace(X, ell=X.ell + hh)
    lm = replace(X, ell=X.ell - hh)
    tp = replace(X, tau=X.tau + hh)
    tm = replace(X, tau=X.tau - hh)
    (l_lp, t_lp), (l_lm, t_lm) = _move_coords(lp), _move_coords(lm)
    (l_tp, t_tp), (l_tm, t_tm) = _move_coords(tp), _move_coords(tm)
    j11 = (l_lp - l_lm) / (2 * hh)
    j12 = (l_tp - l_tm) / (2 * hh)
    j21 = (t_lp - t_lm) / (2 * hh)
    j22 = (t_tp - t_tm) / (2 * hh)
    det = j11 * j22 - j12 * j21
    if abs(abs(det) - 1.0) > 0.5:
        raise ArithmeticError(
            "step %g straddles a twist-sign wall (det=%g); retry smaller" % (hh, det))
    return abs(abs(det) - 1.0)
