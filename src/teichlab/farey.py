"""Stern-Brocot / Farey machinery for simple closed curves on the
once-punctured torus.

Slopes (p, q) are coprime integer pairs with (p, q) ~ (-p, -q); the basis
curves have slopes (1,0), (0,1), (1,1) with traces x, y, z.  A slope's
trace is that of its word (slope_word) under the trace plan of fricke.
"""

from __future__ import annotations

import math


def normalize_slope(p: int, q: int) -> tuple[int, int]:
    if p == 0 and q == 0:
        raise ValueError("slope (0,0) is not a curve")
    if math.gcd(p, q) != 1:
        raise ValueError("slope (%d,%d) not primitive" % (p, q))
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


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
