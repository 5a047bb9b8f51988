"""Stern-Brocot / Farey machinery for simple closed curves on the
once-punctured torus.

Slopes (p, q) are coprime integer pairs with (p, q) ~ (-p, -q); the basis
curves have slopes (1,0), (0,1), (1,1) with traces x, y, z.  Traces of all
other slopes follow from the Farey vertex relation

    t(mediant) = t(parent1) * t(parent2) - t(parent1 - parent2)

which is the trace identity applied along the Farey tessellation.  A
log-domain variant supports convergents far too deep for floats.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fricke import FrickeTriple


def normalize_slope(p: int, q: int) -> tuple[int, int]:
    if p == 0 and q == 0:
        raise ValueError("slope (0,0) is not a curve")
    if math.gcd(p, q) != 1:
        raise ValueError("slope (%d,%d) not primitive" % (p, q))
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


def _parents(p: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Farey parents of p/q (q >= 2): (u,v), (p-u, q-v) with pv - qu = 1."""
    v = pow(p, -1, q)
    u = (p * v - 1) // q
    return (u, v), (p - u, q - v)


def slope_trace(t: FrickeTriple | tuple, slope: tuple[int, int], memo: dict | None = None):
    """Trace of the simple closed curve of slope (p, q).

    Exact over the integers when the triple is integral.
    """
    if isinstance(t, FrickeTriple):
        x, y, z = t.x, t.y, t.z
    else:
        x, y, z = t
    if memo is None:
        memo = {}

    def rec(p, q):
        p, q = normalize_slope(p, q)
        v = memo.get((p, q))
        if v is not None:
            return v
        if q == 0:
            v = x
        elif q == 1:
            if p == 0:
                v = y
            elif p == 1:
                v = z
            elif p == -1:
                v = x * y - z
            elif p > 1:
                v = x * rec(p - 1, 1) - rec(p - 2, 1)
            else:
                v = x * rec(p + 1, 1) - rec(p + 2, 1)
        else:
            (u1, v1), (u2, v2) = _parents(p, q)
            v = rec(u1, v1) * rec(u2, v2) - rec(u1 - u2, v1 - v2)
        memo[(p, q)] = v
        return v

    return rec(*slope)


def slope_word(p: int, q: int) -> str:
    """A primitive word in the free group representing slope (p, q).

    Built by Stern-Brocot mediant composition: w(1,0) = a, w(0,1) = b,
    w(s1 + s2) = w(s1) w(s2); negative p uses A = a^{-1}.
    """
    p, q = normalize_slope(p, q)
    if q == 0:
        return "a"
    if p == 0:
        return "b"
    if p >= 0:
        lo, wl = (0, 1), "b"
        hi, wh = (1, 0), "a"
    else:
        p = -p
        lo, wl = (0, 1), "b"
        hi, wh = (1, 0), "A"
    # Stern-Brocot descent toward p/q; every mediant on the path divides
    # the target so the loop terminates at it exactly
    for _ in range(p + q + 2):
        med = (lo[0] + hi[0], lo[1] + hi[1])
        wm = wh + wl  # adjacency order fixed so that w(1,1) = ab
        if med == (p, q):
            return wm
        if p * med[1] > med[0] * q:
            lo, wl = med, wm
        else:
            hi, wh = med, wm
    raise RuntimeError("mediant search failed for (%d,%d)" % (p, q))


def slope_length(t, slope, memo=None) -> float:
    from .fricke import length_trace
    return length_trace(slope_trace(t, slope, memo))


# ---------------------------------------------------------------------------
# log-domain trace walk toward an irrational direction


def _log_combine(l1: float, l2: float, l3: float) -> float:
    """log(t1 t2 - t3) from logs, assuming the result is positive."""
    s = l1 + l2
    if s < 700.0:
        v = math.exp(l1) * math.exp(l2) - math.exp(l3)
        if v <= 0:
            raise ArithmeticError("trace recursion left the positive cone")
        return math.log(v)
    return s + math.log1p(-math.exp(l3 - s))


def direction_length_rate(t, ux: float, uy: float, steps: int = 300) -> float:
    """Homogeneous length of the unit direction (ux, uy) in ML ~ R^2.

    Walks the Farey tessellation toward the direction, tracking log-traces,
    and returns lim l(p,q) / ||(p,q)|| along the convergents.
    """
    if isinstance(t, FrickeTriple):
        x, y, z = t.x, t.y, t.z
    else:
        x, y, z = t
    if uy < 0 or (uy == 0 and ux < 0):
        ux, uy = -ux, -uy
    if uy == 0:
        return 2.0 * math.acosh(abs(x) / 2.0)
    if ux == 0:
        return 2.0 * math.acosh(abs(y) / 2.0)
    lx, ly, lz = math.log(abs(x)), math.log(abs(y)), math.log(abs(z))
    lw = math.log(abs(x * y - z))  # slope (1,-1)
    # the first mediant's trace is known: forming it as t1 t2 - t_opp
    # would cancel (xy against xy - z) at large traces
    if ux >= 0:
        P1, T1 = (1, 0), lx
        P2, T2 = (0, 1), ly
        M, TM, Topp = (1, 1), lz, lw
    else:
        P1, T1 = (0, 1), ly
        P2, T2 = (-1, 0), lx
        M, TM, Topp = (-1, 1), lw, lz  # (0,1) - (-1,0) = (1,1)
    from .fricke import length_from_log_trace
    prev = None
    cur = None
    for _ in range(steps):
        # u lies in sub-cone (P1, M) iff u is on the same side of M as P1
        s_u = M[0] * uy - M[1] * ux
        if s_u == 0.0:
            # the direction is exactly this rational slope
            return length_from_log_trace(TM) / math.hypot(M[0], M[1])
        s_1 = M[0] * P1[1] - M[1] * P1[0]
        if (s_u > 0) == (s_1 > 0):
            P2, T2, Topp = M, TM, T2
        else:
            P1, T1, Topp = M, TM, T1
        prev = cur
        cur = (M, TM)
        if max(abs(M[0]), abs(M[1])) > 1e14:
            break
        M = (P1[0] + P2[0], P1[1] + P2[1])
        TM = _log_combine(T1, T2, Topp)
    M, TM = cur
    ell = length_from_log_trace(TM)
    if prev is not None:
        # difference quotient along the walk converges one order faster
        # than the plain ratio (homogeneity of the limit length)
        Mp, TMp = prev
        ellp = length_from_log_trace(TMp)
        dn = math.hypot(M[0], M[1]) - math.hypot(Mp[0], Mp[1])
        if dn > 0.5 * math.hypot(M[0] - Mp[0], M[1] - Mp[1]):
            return (ell - ellp) / dn
    return ell / math.hypot(M[0], M[1])


def slopes_up_to_depth(depth: int) -> list[tuple[int, int]]:
    """All slopes of Farey depth <= depth (mediant generations from the two
    basis fans (1,0),(0,1),(1,1) and (1,0),(0,1),(-1,1))."""
    out = {(1, 0), (0, 1), (1, 1), (-1, 1)}
    frontier = [((1, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 0), (-1, 1)), ((0, 1), (-1, 1))]
    for _ in range(depth):
        nxt = []
        for (s1, s2) in frontier:
            m = (s1[0] + s2[0], s1[1] + s2[1])
            m = normalize_slope(*m)
            if m not in out:
                out.add(m)
                nxt.append((s1, m))
                nxt.append((s2, m))
        frontier = nxt
    return sorted(out)
