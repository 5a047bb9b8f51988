"""Exact Markoff-triple arithmetic.

Positive integer solutions of p^2 + q^2 + r^2 = 3pqr form a tree rooted at
(1,1,1) under the three involutive moves a -> 3bc - a.  This module provides
the moves, descent membership testing, a checkpointable depth-first tree
enumeration with norm bounds, an independent quadratic-scan oracle, and
least-squares growth fitting against C (ln x)^2 + D ln x lnln x.

All triple arithmetic is exact (Python big integers).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MarkoffTriple:
    p: int
    q: int
    r: int

    def __post_init__(self):
        p, q, r = self.p, self.q, self.r
        if not (isinstance(p, int) and isinstance(q, int) and isinstance(r, int)):
            raise TypeError("coordinates must be integers")
        if p <= 0 or q <= 0 or r <= 0:
            raise ValueError("coordinates must be positive")
        if p * p + q * q + r * r != 3 * p * q * r:
            raise ValueError("(%d,%d,%d) does not satisfy the Markoff equation" % (p, q, r))

    def sorted(self) -> tuple[int, int, int]:
        return tuple(sorted((self.p, self.q, self.r)))

    def norm(self, kind: str = "max") -> int:
        if kind == "max":
            return max(self.p, self.q, self.r)
        if kind == "sum":
            return self.p + self.q + self.r
        raise ValueError("norm must be 'max' or 'sum'")

    def astuple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)


def apply_move(t: MarkoffTriple, i: int) -> MarkoffTriple:
    """Replace coordinate i by 3 * (product of the others) - itself.

    Involutive: applying the same move twice returns the input.
    """
    c = [t.p, t.q, t.r]
    if i not in (0, 1, 2):
        raise ValueError("move index must be 0, 1 or 2")
    j, k = {0: (1, 2), 1: (0, 2), 2: (0, 1)}[i]
    c[i] = 3 * c[j] * c[k] - c[i]
    return MarkoffTriple(*c)


def is_markoff(p: int, q: int, r: int) -> bool:
    """True iff (p,q,r) solves the equation and descends to (1,1,1).

    Both checks are performed and must agree; a disagreement would mean the
    equation has a positive solution outside the tree, which is impossible,
    so it raises ArithmeticError.
    """
    if p <= 0 or q <= 0 or r <= 0:
        return False
    eq = (p * p + q * q + r * r == 3 * p * q * r)
    desc = eq and _descends(p, q, r)
    if eq != desc:
        raise ArithmeticError(
            "equation/descent disagreement at (%d,%d,%d)" % (p, q, r))
    return desc


def _descends(p: int, q: int, r: int) -> bool:
    """Descend by always reducing the max coordinate; stop at (1,1,1)."""
    a, b, c = sorted((p, q, r))
    while (a, b, c) != (1, 1, 1):
        c2 = 3 * a * b - c
        if not (0 < c2 < c):
            return False
        a, b, c = sorted((a, b, c2))
    return True


# ---------------------------------------------------------------------------
# tree enumeration


def _children(s: tuple[int, int, int]):
    """The away-from-root children of the sorted node s = (a <= b <= c).

    Replacing a or b strictly increases the max coordinate except at the two
    symmetric nodes near the root, where duplicates are skipped.
    """
    a, b, c = s
    out = []
    seen = set()
    for i, new in ((0, 3 * b * c - a), (1, 3 * a * c - b)):
        child = tuple(sorted((new, *(s[:i] + s[i + 1:]))))
        if child == s or child in seen:
            continue
        seen.add(child)
        out.append(child)
    return out


_CKPT_MAGIC = b"MKV2\n"


def _lp_write(f, s: bytes):
    f.write(str(len(s)).encode() + b":" + s)


def _lp_int(f, n: int):
    _lp_write(f, str(n).encode())


def _lp_read(f) -> bytes:
    n = b""
    while True:
        ch = f.read(1)
        if ch == b":":
            break
        if not ch or not ch.isdigit():
            raise ValueError("corrupt checkpoint: bad length prefix")
        n += ch
    return f.read(int(n))


def _lp_read_int(f) -> int:
    return int(_lp_read(f))


def _save_checkpoint(path, bound, norm, ordering, count, visited, stack):
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(_CKPT_MAGIC)
        _lp_write(f, norm.encode())
        _lp_write(f, ordering.encode())
        _lp_int(f, bound)
        _lp_int(f, count)
        _lp_int(f, visited)
        _lp_int(f, len(stack))
        for s in stack:
            for v in s:
                _lp_int(f, v)
    os.replace(tmp, path)


def _load_checkpoint(path):
    with open(path, "rb") as f:
        if f.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise ValueError("not a MKV2 checkpoint: %s" % path)
        norm = _lp_read(f).decode()
        ordering = _lp_read(f).decode()
        bound = _lp_read_int(f)
        count = _lp_read_int(f)
        visited = _lp_read_int(f)
        nstack = _lp_read_int(f)
        stack = []
        for _ in range(nstack):
            stack.append((_lp_read_int(f), _lp_read_int(f), _lp_read_int(f)))
    return norm, ordering, bound, count, visited, stack


def _node_norm(s: tuple[int, int, int], kind: str) -> int:
    return s[2] if kind == "max" else s[0] + s[1] + s[2]


def _perms(s: tuple[int, int, int]) -> int:
    a, b, c = s
    if a == b == c:
        return 1
    if a == b or b == c:
        return 3
    return 6


def _check_monotone(s, child):
    if child[2] <= s[2]:
        raise ArithmeticError(
            "monotonicity violated on edge %r -> %r" % (s, child))


def enumerate_count(bound: int, norm: str = "max", ordering: str = "unordered",
                    checkpoint_path: str | None = None,
                    checkpoint_interval: int = 1_000_000,
                    resume: bool = False):
    """Count Markoff triples with norm <= bound by pruned depth-first search.

    Unordered counting (tree nodes, i.e. sorted triples) is the primary
    definition; ordered counting weights each node by its number of distinct
    coordinate permutations.  Pruning at a node whose norm exceeds the bound
    is sound because every away-from-root move strictly increases the max
    coordinate; this is checked on every edge.

    checkpoint_path: state is saved there every checkpoint_interval nodes;
    pass resume=True to continue from an existing file (bound/norm/ordering
    must match what is stored).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if norm not in ("max", "sum"):
        raise ValueError("norm must be 'max' or 'sum'")
    if ordering not in ("unordered", "ordered"):
        raise ValueError("ordering must be 'unordered' or 'ordered'")

    count = 0
    visited = 0
    stack = [(1, 1, 1)]  # sorted triples
    if resume:
        if checkpoint_path is None:
            raise ValueError("resume requires checkpoint_path")
        cnorm, cord, cbound, count, visited, stack = _load_checkpoint(checkpoint_path)
        if (cnorm, cord, cbound) != (norm, ordering, bound):
            raise ValueError("checkpoint parameters do not match this call")

    while stack:
        s = stack.pop()
        if _node_norm(s, norm) > bound:
            continue
        count += _perms(s) if ordering == "ordered" else 1
        visited += 1
        for child in _children(s):
            _check_monotone(s, child)
            if _node_norm(child, norm) <= bound:
                stack.append(child)
        if checkpoint_path is not None and visited % checkpoint_interval == 0:
            _save_checkpoint(checkpoint_path, bound, norm, ordering,
                             count, visited, stack)
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    return count


def enumerate_triples(bound: int, norm: str = "max") -> list[tuple[int, int, int]]:
    """All sorted Markoff triples with norm <= bound, via the tree walk."""
    out = []
    stack = [(1, 1, 1)]
    while stack:
        s = stack.pop()
        if _node_norm(s, norm) > bound:
            continue
        out.append(s)
        for child in _children(s):
            _check_monotone(s, child)
            if _node_norm(child, norm) <= bound:
                stack.append(child)
    return sorted(out)


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
