"""Right-angled hexagon and pair-of-pants trigonometry.

Numeric kernel for the rest of the package: the convex/crossed hexagon side
identities, the seam-perpendicular function F1 between two boundary curves of
a pair of pants, and its piecewise-linear large-length approximant E.

All cosh/sinh compositions have a log-domain code path so that lengths in the
hundreds (where cosh overflows a float) still evaluate; the switch is
automatic above argument 350.
"""

from __future__ import annotations

import math
from enum import Enum

LOG2 = math.log(2.0)
# above this argument cosh/sinh are evaluated in log domain
LOG_DOMAIN_CUTOFF = 350.0


class HexDomainError(ValueError):
    """Raised when an arccosh argument drops below 1 (impossible hexagon)."""


def log_cosh(t: float) -> float:
    """log(cosh t), stable for any t."""
    t = abs(t)
    return t - LOG2 + math.log1p(math.exp(-2.0 * t))


def log_sinh(t: float) -> float:
    """log(sinh t) for t > 0, stable for tiny and huge t."""
    if t <= 0:
        raise ValueError("log_sinh needs t > 0")
    if t < 1e-4:
        # sinh t = t (1 + t^2/6 + ...)
        return math.log(t) + math.log1p(t * t / 6.0)
    if t > 20.0:
        return t - LOG2 + math.log1p(-math.exp(-2.0 * t))
    return math.log(math.sinh(t))


def acosh_1p(r: float) -> float:
    """arccosh(1 + r) for r >= 0 without cancellation near r = 0."""
    if r < 0:
        raise HexDomainError("arccosh argument below 1 by %g" % (-r,))
    return math.log1p(r + math.sqrt(r * (r + 2.0)))


def acosh_1p_exp(log_r: float) -> float:
    """arccosh(1 + R) given log R; valid for any magnitude of R."""
    if log_r > 40.0:
        # acosh(1+R) = log R + log(1 + 1/R + sqrt(1+2/R)) -> log R + log 2
        u = math.exp(-log_r)
        return log_r + math.log(1.0 + u + math.sqrt(1.0 + 2.0 * u))
    return acosh_1p(math.exp(log_r))


def _logsumexp(terms):
    m = max(terms)
    if m == -math.inf:
        return m
    return m + math.log(sum(math.exp(t - m) for t in terms))


class PLRegion(Enum):
    """Region of the piecewise-linear approximant E.

    Boundary ties go to the lower-index region; E is continuous across the
    walls so the choice only fixes which tag is reported.
    """

    DELTA1 = 1
    DELTA2 = 2
    DELTA3 = 3


def classify_region(x: float, y: float, z: float) -> PLRegion:
    if x + y <= z:
        return PLRegion.DELTA1
    if abs(x - y) <= z:
        return PLRegion.DELTA2
    return PLRegion.DELTA3


def E_approx(x: float, y: float, z: float) -> tuple[float, PLRegion]:
    """Piecewise-linear approximant of log sinh F1 for large arguments."""
    if min(x, y, z) < 0:
        raise ValueError("E_approx needs nonnegative arguments")
    region = classify_region(x, y, z)
    if region is PLRegion.DELTA1:
        return z - x - y, region
    if region is PLRegion.DELTA2:
        return (z - x - y) / 2.0, region
    return -min(x, y), region


def _log_R(x: float, y: float, z: float) -> float:
    """log of R where cosh(F1(x,y,z)) = 1 + R, exact rearrangement.

    R = 2(e^{z-x-y} + e^{-z-x-y} + e^{-2x} + e^{-2y})
        / ((1-e^{-2x})(1-e^{-2y}))
    """
    num = _logsumexp([z - x - y, -z - x - y, -2.0 * x, -2.0 * y]) + LOG2
    den = math.log1p(-math.exp(-2.0 * x)) + math.log1p(-math.exp(-2.0 * y))
    return num - den


def seam_F1(x: float, y: float, z: float) -> float:
    """F1(x,y,z) = arccosh((cosh z + cosh x cosh y) / (sinh x sinh y)).

    The distance between the boundary geodesics of half-lengths x and y in
    a pair of pants whose remaining boundary has half-length z: a caller
    with full boundary lengths halves them first.

    The evaluation is in the log domain, which is stable both at large
    arguments and near the degenerate locus where the arccosh argument
    approaches 1.
    """
    if not (x > 0 and y > 0 and z > 0):
        raise ValueError("seam_F1 needs positive lengths")
    return acosh_1p_exp(_log_R(x, y, z))


def log_sinh_F1(x: float, y: float, z: float) -> float:
    """log(sinh(F1(x,y,z))), computed without overflow or cancellation.

    sinh(arccosh(1+R)) = sqrt(R (R+2)), so the value is
    (log R + logaddexp(log R, log 2)) / 2.
    """
    lr = _log_R(x, y, z)
    return 0.5 * (lr + _logsumexp([lr, LOG2]))


def hexagon_side(mode: str, ta: float, tb: float, given: float) -> float:
    """Solve a right-angled hexagon side identity.

    convex:  given the side c~ opposite c (with adjacent sides ta, tb),
             return c with cosh(c) = (cosh c~ + cosh ta cosh tb)/(sinh ta sinh tb)
    crossed: the inverse direction, return c~ from
             cosh(c~) = sinh ta sinh tb cosh c - cosh ta cosh tb
             (argument may drop below 1 for short c: impossible hexagon)
    """
    if not (ta > 0 and tb > 0 and given > 0):
        raise ValueError("hexagon_side needs positive lengths")
    if mode == "convex":
        return seam_F1(ta, tb, given)
    if mode != "crossed":
        raise ValueError("mode must be 'convex' or 'crossed'")
    if max(ta, tb, given) > LOG_DOMAIN_CUTOFF:
        # cosh(c~) - 1 = R = S cosh c - (C + 1) with S = sinh ta sinh tb
        # and C = cosh ta cosh tb, in logs: big = log(S cosh c) and
        # rest = log(C + 1) give log R = big + log1p(-e^(rest - big)),
        # defined while S cosh c > C + 1
        lS = log_sinh(ta) + log_sinh(tb)
        lC = log_cosh(ta) + log_cosh(tb)
        lcg = log_cosh(given)
        big = lS + lcg
        rest = _logsumexp([lC, 0.0])  # C + 1
        if big <= rest:
            raise HexDomainError("crossed hexagon impossible (arccosh arg < 1)")
        log_R = big + math.log1p(-math.exp(rest - big))
        return acosh_1p_exp(log_R)
    arg = math.sinh(ta) * math.sinh(tb) * math.cosh(given) - math.cosh(ta) * math.cosh(tb)
    if arg < 1.0:
        raise HexDomainError("crossed hexagon impossible: arccosh argument %g < 1" % arg)
    return acosh_1p(arg - 1.0)


def arc_over_geodesic(a1: float, a2: float, s: float) -> float:
    """Length of the arc joining two geodesics that both meet a common
    geodesic perpendicularly from opposite sides, with feet s apart.

    cosh(d) = sinh(a1) sinh(a2) cosh(s) + cosh(a1) cosh(a2)

    This is the crossed-configuration identity used for the d_tau arc when
    re-marking a four-holed sphere.  Always well defined (argument >= 1).
    """
    if not (a1 > 0 and a2 > 0):
        raise ValueError("perpendicular lengths must be positive")
    if max(a1, a2, abs(s)) > LOG_DOMAIN_CUTOFF:
        lbig = log_sinh(a1) + log_sinh(a2) + log_cosh(s)
        lsml = log_cosh(a1) + log_cosh(a2)
        log_arg = _logsumexp([lbig, lsml])
        # arccosh via log: value = logaddexp of arg + sqrt(arg^2-1) ~ log(2 arg)
        return acosh_1p_exp(log_arg + math.log1p(-math.exp(-log_arg)))
    arg = math.sinh(a1) * math.sinh(a2) * math.cosh(s) + math.cosh(a1) * math.cosh(a2)
    return acosh_1p(arg - 1.0)


def arc_over_geodesic_inverse(a1: float, a2: float, d: float) -> float:
    """Recover the foot separation s from arc_over_geodesic(a1, a2, s) = d."""
    arg = (math.cosh(d) - math.cosh(a1) * math.cosh(a2)) / (math.sinh(a1) * math.sinh(a2))
    if arg < 1.0:
        if arg > 1.0 - 1e-9:
            arg = 1.0
        else:
            raise HexDomainError("no real foot separation: cosh s = %g < 1" % arg)
    return math.acosh(arg)
