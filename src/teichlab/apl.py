"""Asymptotic piecewise linearity of length functions along FN rays.

Along a ray t -> X0 + t*d in Fenchel-Nielsen coordinates, the geodesic
length of a fixed word approaches a linear function slope*t + c whose
gradient has rational coefficients, away from finitely many walls where the
linear form switches.  ray_fit measures the slope, the offset, the gradient
coefficients and their nearest small-denominator rationals; wall_scan
sweeps a one-parameter slice of directions and locates the walls as loci
where the rescaled gradient jumps between two sampling scales.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from fractions import Fraction

from .orbit import _gamma_length_fn

# largest denominator of a rational snap; the step of the gradient
# differences; the direction slice and the sampling scale of wall_scan
MAX_DEN = 64
GRAD_STEP = 1.0 / 16.0
U_RANGE = (-2.5, 2.5)
T_SCALE = 40.0


@dataclass
class RationalReport:
    value: float
    numerator: int
    denominator: int
    error: float
    ok: bool


def nearest_rational(value: float, tol: float = 1e-4) -> RationalReport:
    fr = Fraction(value).limit_denominator(MAX_DEN)
    err = abs(value - float(fr))
    return RationalReport(value, fr.numerator, fr.denominator, err, err <= tol)


@dataclass
class RayFit:
    schema: str
    gamma: str
    l1: float
    x0: tuple
    direction: tuple
    radii: list
    lengths: list
    slope: float
    offset: float
    gradient: tuple
    residuals: list
    residual_sup: float
    wall_flag: bool
    rational: dict = field(default_factory=dict)

    def to_json(self) -> str:
        d = asdict(self)
        return json.dumps(d, sort_keys=True)


def _check_ray_args(direction, radii):
    if direction[0] <= 0:
        raise ValueError("ray direction must increase the length coordinate")
    if len(radii) < 4 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing, >= 4 samples")
    if radii[-1] < 100.0 * radii[0]:
        raise ValueError("radii must span at least two decades")


def ray_fit(gamma: str, x0: tuple, direction: tuple, radii,
            l1: float = 0.0) -> RayFit:
    """Fit l_gamma(X0 + t*d) ~ slope*t + offset over the top decade of t.

    The gradient coefficients are measured by symmetric differences of the
    homogenized length at the largest radius; on a wall-avoiding ray they
    converge to the rational coefficients of the local linear form.
    """
    radii = [float(t) for t in radii]
    _check_ray_args(direction, radii)
    f = _gamma_length_fn(gamma, l1)

    def F(t, d=direction):
        return f(x0[0] + t * d[0], x0[1] + t * d[1])

    lengths = [F(t) for t in radii]
    # least squares on the top decade
    top = [(t, v) for t, v in zip(radii, lengths) if t >= radii[-1] / 10.0]
    n = len(top)
    st = sum(t for t, _ in top)
    sv = sum(v for _, v in top)
    stt = sum(t * t for t, _ in top)
    stv = sum(t * v for t, v in top)
    den = n * stt - st * st
    slope = (n * stv - st * sv) / den
    offset = (sv - slope * st) / n
    residuals = [abs(v - (slope * t + offset)) for t, v in top]
    residual_sup = max(residuals)
    # non-convergent residuals mean the ray keeps crossing walls
    half = max(2, len(residuals) // 2)
    wall_flag = max(residuals[half:]) > max(residuals[:half]) + 1e-9 \
        or residual_sup > 1e-3 * max(1.0, abs(slope) * radii[-1])

    t_big = radii[-1]
    h = GRAD_STEP
    grad = []
    for i in range(2):
        dp = list(direction)
        dm = list(direction)
        dp[i] += h
        dm[i] -= h
        grad.append((F(t_big, dp) - F(t_big, dm)) / (2.0 * h * t_big))
    rational = {
        "slope": asdict(nearest_rational(slope)),
        "grad_ell": asdict(nearest_rational(grad[0])),
        "grad_tau": asdict(nearest_rational(grad[1])),
    }
    return RayFit(
        schema="APL1", gamma=gamma, l1=l1, x0=tuple(x0),
        direction=tuple(direction), radii=radii, lengths=lengths,
        slope=slope, offset=offset, gradient=tuple(grad),
        residuals=residuals, residual_sup=residual_sup,
        wall_flag=wall_flag, rational=rational)


@dataclass
class WallSegment:
    u_lo: float
    u_hi: float
    u_mid: float
    rational: dict


@dataclass
class WallScan:
    schema: str
    gamma: str
    l1: float
    u_range: tuple
    grid_n: int
    t_scale: float
    us: list
    mismatch: list
    baseline: float
    threshold: float
    walls: list
    zero_slope_cells: list

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @property
    def wall_count(self) -> int:
        return len(self.walls)


def wall_scan(gamma: str, grid_n: int = 64, l1: float = 0.0) -> WallScan:
    """Sweep directions d(u) = (1, u) and locate the walls of the limiting
    piecewise linear form.

    The slope of u -> l_gamma(t*d(u))/t is differenced on the grid at
    scales t and 2t; the limit is piecewise linear in u, so its slope field
    is locally constant and a wall shows up as a jump between adjacent
    cells that persists at both scales.  Runs of jump cells merge into one
    reported segment.
    """
    if grid_n < 32:
        raise ValueError("grid_n must be >= 32")
    f = _gamma_length_fn(gamma, l1)
    lo, hi = U_RANGE
    du = (hi - lo) / grid_n
    us = [lo + i * du for i in range(grid_n + 1)]

    def G(u, t):
        return f(t * 1.0, t * u) / t

    g1 = [G(u, T_SCALE) for u in us]
    g2 = [G(u, 2.0 * T_SCALE) for u in us]
    d1 = [(b - a) / du for a, b in zip(g1, g1[1:])]
    d2 = [(b - a) / du for a, b in zip(g2, g2[1:])]
    jump1 = [abs(b - a) for a, b in zip(d1, d1[1:])]
    jump2 = [abs(b - a) for a, b in zip(d2, d2[1:])]
    baseline = sorted(jump2)[len(jump2) // 2]
    # slope jumps at true walls are rational gaps, never below ~1/MAX_DEN;
    # the floor keeps pure evaluation noise out when the field is constant
    threshold = max(10.0 * baseline, 1e-3)
    # require the jump at both scales: a kink of the limit form sharpens
    # under t -> 2t, whereas one-scale numeric glitches do not persist
    flags = [m2 > threshold and m1 > 0.5 * threshold
             for m1, m2 in zip(jump1, jump2)]
    mism = jump2
    walls = []
    i = 0
    while i < len(flags):
        if flags[i]:
            j = i
            while j + 1 < len(flags) and flags[j + 1]:
                j += 1
            # flags index pairs of adjacent cells; the wall node sits
            # between cell i and cell j+1
            u_lo, u_hi = us[i], us[j + 2]
            u_mid = 0.5 * (u_lo + u_hi)
            walls.append(WallSegment(u_lo, u_hi, u_mid, asdict(
                nearest_rational(u_mid, tol=2.0 * du))))
            i = j + 1
        i += 1
    zero_cells = [0.5 * (us[i] + us[i + 1]) for i in range(len(d2))
                  if abs(d2[i]) < 1e-9]
    return WallScan(
        schema="APL1", gamma=gamma, l1=l1, u_range=(lo, hi), grid_n=grid_n,
        t_scale=T_SCALE, us=us, mismatch=mism, baseline=baseline,
        threshold=threshold, walls=walls, zero_slope_cells=zero_cells)
