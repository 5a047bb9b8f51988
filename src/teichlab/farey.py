"""Stern-Brocot / Farey machinery for simple closed curves on the
once-punctured torus.

Slopes (p, q) are coprime integer pairs with (p, q) ~ (-p, -q); the basis
curves have slopes (1,0), (0,1), (1,1) with traces x, y, z.  Traces of all
other slopes follow from the Farey vertex relation

    t(mediant) = t(parent1) * t(parent2) - t(parent1 - parent2)

which is the trace identity applied along the Farey tessellation.
"""

from __future__ import annotations

import math

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


def _relation(p: int, q: int):
    """The slopes s1, s2 and s1 - s2 of the vertex relation
    t(p, q) = t(s1) t(s2) - t(s1 - s2), s1 + s2 = (p, q), each normalized,
    for a slope off the basis (1, 0), (0, 1), (1, 1), (-1, 1)."""
    if q >= 2:
        s1, s2 = _parents(p, q)
    else:
        s1 = (1, 0) if p > 1 else (-1, 0)
        s2 = (p - s1[0], 1)
    return (normalize_slope(*s1), normalize_slope(*s2),
            normalize_slope(s1[0] - s2[0], s1[1] - s2[1]))


def slope_trace(t: FrickeTriple | tuple, slope: tuple[int, int], memo: dict | None = None):
    """Trace of the simple closed curve of slope (p, q).

    Exact over the integers when the triple is integral.  The Farey path
    is walked with an explicit stack, so a slope deep in the tree costs
    no recursion; memo, keyed by normalized slope, may be shared between
    calls at one triple.  A float trace that overflows is a ValueError.
    """
    if isinstance(t, FrickeTriple):
        x, y, z = t.x, t.y, t.z
    else:
        x, y, z = t
    if memo is None:
        memo = {}
    basis = {(1, 0): x, (0, 1): y, (1, 1): z, (-1, 1): x * y - z}
    top = normalize_slope(*slope)
    stack = [top]
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
        elif s in basis:
            memo[s] = basis[s]
        else:
            parts = _relation(*s)
            todo = [c for c in parts if c not in memo]
            if todo:
                stack += todo
            else:
                a, b, c = (memo[r] for r in parts)
                memo[s] = a * b - c
    v = memo[top]
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError("the trace of slope %r overflows a float" % (slope,))
    return v


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
