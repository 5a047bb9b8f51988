"""Exact Markoff-triple arithmetic.

Positive integer solutions of p^2 + q^2 + r^2 = 3pqr form a tree rooted at
(1,1,1) under the three involutive moves a -> 3bc - a.  This module provides
one pruned depth-first walk of the tree under a norm bound (counts and
triple lists both read it), an independent quadratic-scan oracle, and
least-squares growth fitting against C (ln x)^2 + D ln x lnln x.

All triple arithmetic is exact (Python big integers).
"""

from __future__ import annotations

import math

import numpy as np


def _flip(s: tuple[int, int, int], i: int) -> tuple[int, int, int]:
    """The Vieta move: coordinate i of s becomes 3 * (product of the
    others) - itself.  Involutive."""
    return s[:i] + (3 * s[i - 1] * s[i - 2] - s[i],) + s[i + 1:]


# ---------------------------------------------------------------------------
# tree enumeration


def _children(s: tuple[int, int, int]) -> list:
    """The away-from-root children of the sorted node s = (a <= b <= c).

    Replacing a or b strictly increases the max coordinate except at the two
    symmetric nodes near the root, where duplicates are skipped.
    """
    out = []
    for i in (0, 1):
        child = tuple(sorted(_flip(s, i)))
        if child != s and child not in out:
            out.append(child)
    return out


def _walk(bound: int, norm: str):
    """Yield every sorted Markoff triple with norm <= bound, by depth-first
    search of the tree from (1,1,1).

    Pruning at a node whose norm exceeds the bound is sound because every
    away-from-root move strictly increases the max coordinate; this is
    checked on every edge.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if norm not in ("max", "sum"):
        raise ValueError("norm must be 'max' or 'sum'")
    size = (lambda s: s[2]) if norm == "max" else sum
    stack = [(1, 1, 1)]
    while stack:
        s = stack.pop()
        if size(s) > bound:
            continue
        yield s
        for child in _children(s):
            if child[2] <= s[2]:
                raise ArithmeticError(
                    "monotonicity violated on edge %r -> %r" % (s, child))
            if size(child) <= bound:
                stack.append(child)


# distinct coordinate permutations of a triple with 1, 2 or 3 distinct values
_PERMS = {1: 1, 2: 3, 3: 6}


def enumerate_count(bound: int, norm: str = "max",
                    ordering: str = "unordered") -> int:
    """Count Markoff triples with norm <= bound by the tree walk.

    Unordered counting (tree nodes, i.e. sorted triples) is the primary
    definition; ordered counting weights each node by its number of distinct
    coordinate permutations.
    """
    if ordering not in ("unordered", "ordered"):
        raise ValueError("ordering must be 'unordered' or 'ordered'")
    if ordering == "ordered":
        return sum(_PERMS[len(set(s))] for s in _walk(bound, norm))
    return sum(1 for _ in _walk(bound, norm))


def enumerate_triples(bound: int, norm: str = "max") -> list[tuple[int, int, int]]:
    """All sorted Markoff triples with norm <= bound, via the tree walk."""
    return sorted(_walk(bound, norm))


# ---------------------------------------------------------------------------
# independent oracle: quadratic scan


def brute_force_triples(bound: int) -> list[tuple[int, int, int]]:
    """All sorted triples with max <= bound by the O(bound^2) scan.

    For each p <= q solve r^2 - 3pq r + (p^2 + q^2) = 0 exactly; a root is
    kept when it is a positive integer with q <= r <= bound.  Vectorized
    per p; the discriminant fits int64 for bound <= 10^4.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > 10_000:
        raise ValueError("oracle scan capped at 10^4 (O(bound^2) cost)")
    found = set()
    for p in range(1, bound + 1):
        q = np.arange(p, bound + 1, dtype=np.int64)
        disc = 9 * p * p * q * q - 4 * (p * p + q * q)
        ok = disc >= 0
        if not ok.any():
            continue
        q = q[ok]
        disc = disc[ok]
        s = np.rint(np.sqrt(disc.astype(np.float64))).astype(np.int64)
        # rint(sqrt) can be off by one ulp; correct exactly
        for d in (-1, 0, 1):
            hit = (s + d) * (s + d) == disc
            if hit.any():
                s = np.where(hit, s + d, s)
        square = s * s == disc
        for sign in (1, -1):
            num = 3 * p * q + sign * s
            good = square & (num % 2 == 0)
            r = num // 2
            good &= (r >= q) & (r <= bound)
            for qq, rr in zip(q[good], r[good]):
                found.add((p, int(qq), int(rr)))
    return sorted(found)


def brute_force_count(bound: int) -> int:
    return len(brute_force_triples(bound))


# ---------------------------------------------------------------------------
# growth fitting


def fit_growth(samples: list[tuple[int, int]]):
    """Least-squares fit count = C (ln x)^2 + D (ln x)(ln ln x).

    Returns (C, report) where report carries D, the relative residuals and
    the design condition number.  Raises on degenerate sample sets.
    """
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    bounds = [b for (b, _) in samples]
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError("bounds must be strictly increasing")
    if min(bounds) < 3:
        raise ValueError("bounds must be >= 3 (ln ln x must be defined)")
    lx = np.array([math.log(b) for b in bounds])
    y = np.array([float(c) for (_, c) in samples])
    A = np.column_stack([lx * lx, lx * np.log(lx)])
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e8:
        raise ValueError("degenerate fit: design condition number %g" % cond)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    C, D = float(coef[0]), float(coef[1])
    pred = A @ coef
    rel = (pred - y) / np.maximum(np.abs(y), 1.0)
    report = {
        "C": C,
        "D": D,
        "relative_residuals": [float(v) for v in rel],
        "max_relative_residual": float(np.max(np.abs(rel))),
        "condition_number": float(cond),
    }
    return C, report
