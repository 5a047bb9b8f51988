"""Orbit counting on the once-punctured (or one-holed) torus.

Counts mapping-class-group orbits of curves by length, computes the Thurston
unit-ball area B(X), twist-cone counts, and length-ball volumes with their
Weil-Petersson Monte Carlo averages.

The mapping class group acts on trace coordinates through the four generator
substitutions (twists along the two basis curves and their inverses); on
triples these are the polynomial maps

    T:  (x,y,z) -> (x, z, xz - y)        T^-1: (x,y,z) -> (x, xy - z, y)
    U:  (x,y,z) -> (z, y, yz - x)        U^-1: (x,y,z) -> (xy - z, y, x)

which preserve the boundary invariant kappa exactly.  Each entry point
converts X once, to the reduced triple of its orbit in 2^-k fixed point,
exact at k = 0 for integral triples; one Farey walk from it yields every
short slope with its marking triple, for the simple-slope and orbit
counts, the cone count (slopes over |Aut(X)|) and the ball area, and
|Aut(X)| is read off it with no walk.  The orbit of every non-simple word
is counted over the twist families of those slopes: length is convex
along a Fenchel-Nielsen twist, so each family is one downhill walk to its
minimum and one walk outward on each side, or one node for a word the
twist fixes.  The families are walked in lockstep, with one pass of the
word's normal-form trace plan over each step's new nodes, and every count
is decided in traces, |tr| <= 2 cosh(L/2) in fixed point.  A word whose
normal form has coefficients of one sign has |tr| >= c tr s on the family
of every slope s, proven from that form, so only the slopes with c tr s
within that bound are walked (_family_lengths).  A pruned BFS over
conjugacy classes is kept only as the oracle of that count.  A word is
classified once, for every entry point (_word).  The length-ball volumes
integrate twist-line measures of the certified lengths of fn_surface's
(ell, tau) chart, where a Monte Carlo sample is charted once, in fixed
point at the count's k, and counted by the report's recipe.
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from sys import float_info

import numpy as np

from . import farey
from ._util import parallel_map
from .fricke import (NORMAL_MAX_LEN, FrickeTriple, _kappa_slack, _normal_plan,
                     _normal_poly, _plan_eval_fixed, _trace_length,
                     _trace_plan, canonical_cyclic, cyclic_reduce,
                     is_peripheral_word, length_trace, word_abelianization)
from .fn_surface import _chart_fixed, _gamma_length_fn


def _triple(X) -> tuple:
    if isinstance(X, FrickeTriple):
        return (X.x, X.y, X.z)
    return tuple(X)


# ---------------------------------------------------------------------------
# simple curves: one Farey walk


def _point(X, bits: int = 64):
    """(node, basis, k): X's point (_point_kappa), for every orbit entry
    point to pass on; an MC sample charts its ints instead."""
    return _point_kappa(X, bits)[0]


def _point_kappa(X, bits: int):
    """(point, kappa): X checked (ValueError unless it is a torus point;
    kappa from _torus_kappa), converted once to ints scaled by 2^k
    (_fixed_root: k = 0 for an integral X, else bits) and reduced."""
    t = _triple(X)
    kappa = _torus_kappa(t)
    return _reduced(*_fixed_root([abs(v) for v in t], bits)), kappa


def _reduced(root, k: int):
    """(node, basis, k): the positive triple root (ints scaled by 2^k)
    descended by the generator maps to the minimal triangle (sa, sb,
    sa + sb): node = (tr sa, tr sb, tr(sa + sb)) is the reduced triple of
    the orbit, and basis = (sa, sb) in root's marking."""
    node, (a, b, c, d) = _descend(
        (root, (1, 0, 0, 1)),
        lambda s: [(im, _mat_mul(s[1], _GEN_MATS[g], 0))
                   for g, im in zip(GENS, _images(s[0], k))],
        lambda s: max(s[0]))
    return node, ((a, c), (b, d)), k


def _trace_bound(L: float, k: int) -> int:
    """floor(2 cosh(L/2) 2^k); ValueError if 2 cosh(L/2) overflows a float."""
    try:
        n, d = (2.0 * math.cosh(L / 2.0)).as_integer_ratio()
    except OverflowError:
        raise ValueError("L=%g: the trace bound 2 cosh(L/2) overflows a "
                         "float; L must be at most %.4f"
                         % (L, 2.0 * math.log(float_info.max))) from None
    return (n << k) // d


def _farey_walk(point, L: float, cut: int = 1):
    """The marks: for every slope s with trace <= 2 cosh(L/2) at the point
    (_point), the pair (s, (tr s, tr s', tr(s + s'))) with det(s, s') = 1,
    the marking triple of s, as ints scaled by the point's 2^k.  With
    cut > 1, only the slopes with cut * tr s <= T + T 2^-20 + 1, T the
    trace bound: those of the twist families that _family_lengths walks.

    Walks the Farey tree outward from the point's minimal triangle: across
    an edge (u, v) with opposite vertex u - v lies u + v, of trace
    t_u t_v - t_(u-v).  Traces grow outward at a torus point, and a child
    below its opposite vertex raises ArithmeticError.  ValueError for a
    negative or nan L (cosh is even, and nan has no trace bound) and for
    one past the float trace bound (_trace_bound).
    """
    if not L >= 0:
        raise ValueError("L=%r: the length bound must be >= 0" % L)
    (ta, tb, tab), (sa, sb), k = point
    bound = _trace_bound(L, k)
    if cut > 1:
        bound = (bound + (bound >> 20) + 1) // cut
    marks = []

    def mark(w, tw, u, tu, tv):
        # the vertex w = u + v: s' = -u when det(w, u) = -1, so s + s' = v;
        # else s' = u, and w + u has trace t_w t_u - t_v
        if tw <= bound:
            if w[0] * u[1] > w[1] * u[0]:
                tv = (tw * tu >> k) - tv
            marks.append((w, (tw, tu, tv)))

    ssum = (sa[0] + sb[0], sa[1] + sb[1])
    sdif = (sa[0] - sb[0], sa[1] - sb[1])
    tdif = (ta * tb >> k) - tab
    # the minimal triangle and its mirror vertex sa - sb; every later vertex
    # is the sum u + v across a frontier edge (u, v, opposite trace)
    mark(sa, ta, sb, tb, tdif)
    mark(sb, tb, sa, ta, tdif)
    mark(ssum, tab, sa, ta, tb)
    mark(sdif, tdif, sa, ta, tb)
    edges = [(ssum, tab, sa, ta, tb),
             (ssum, tab, sb, tb, ta),
             (sdif, tdif, sa, ta, tb),
             (sdif, tdif, (-sb[0], -sb[1]), tb, ta)]
    while edges:
        u, tu, v, tv, topp = edges.pop()
        w = (u[0] + v[0], u[1] + v[1])
        tw = (tu * tv >> k) - topp
        # equality is a tie at the minimal triangle, as at (4, 8, 4)
        if tw < topp:
            raise ArithmeticError(
                "trace monotonicity violated at slope %r" % (w,))
        if tw > bound:
            continue
        mark(w, tw, u, tu, tv)
        edges.append((w, tw, u, tu, tv))
        edges.append((w, tw, v, tv, tu))
    return marks


def simple_slopes(X, L: float):
    """All slopes with geodesic length <= L at X, with their traces, from
    the Farey walk (exact ints at an integral X, else floats); ValueError
    unless X is a torus point."""
    _, _, k = point = _point(X)
    return sorted((farey.normalize_slope(*s), tr / (1 << k) if k else tr)
                  for s, (tr, _, _) in _farey_walk(point, L))


def count_simple(X, L: float) -> int:
    """Number of simple closed geodesics of length <= L at X."""
    return len(_farey_walk(_point(X), L))


# ---------------------------------------------------------------------------
# mapping-class generators: word substitutions, slope matrices, triple maps

_AUTOS = {
    "T": str.maketrans({"b": "ba", "B": "AB"}),
    "t": str.maketrans({"b": "bA", "B": "aB"}),
    "U": str.maketrans({"a": "ab", "A": "BA"}),
    "u": str.maketrans({"a": "aB", "A": "bA"}),
    "S": str.maketrans("abAB", "bABa"),  # a -> b, b -> A
}
_GEN_MATS = {
    "T": (1, 1, 0, 1), "t": (1, -1, 0, 1),
    "U": (1, 0, 1, 1), "u": (1, 0, -1, 1),
    "S": (0, -1, 1, 0),
}
GENS = "TtUu"


def _images(t, k: int):
    """The node t (ints scaled by 2^k; k = 0: an exact integral triple)
    moved by each generator map, in GENS order."""
    x, y, z = t
    xy = x * y >> k
    return ((x, z, (x * z >> k) - y), (x, xy - z, y),
            (z, y, (y * z >> k) - x), (xy - z, y, x))


def _word_images(w: str, gens=GENS) -> list[str]:
    """The canonical class of w moved by each of gens (canonical_cyclic
    reduces the substituted word)."""
    return [canonical_cyclic(w.translate(_AUTOS[g])) for g in gens]


def _descend(x, moves, size):
    """Move to the least image, by (size, image), until none is smaller."""
    s = size(x)
    while True:
        low, y = min((size(c), c) for c in moves(x))
        if low >= s:
            return x
        x, s = y, low


def _twist_images(w: str) -> list[str]:
    """w moved by each twist g of GENS, cyclically reduced, by the power
    g^m, m = 1, 2, 4, ..., that shortens it most (w if g does not), so a
    push by g^n descends in O(log n) steps."""
    out = []
    for g in GENS:
        best, m = w, 1
        while len(v := cyclic_reduce(w.translate({
                c: s[0] + s[1] * m if ord(s[0]) == c else s[0] * m + s[1]
                for c, s in _AUTOS[g].items()}))) < len(best):
            best, m = v, 2 * m
        out.append(best)
    return out


def _mat_mul(m, n, k: int):
    """Product of 2x2 matrices of ints scaled by 2^k (k = 0: exact)."""
    return ((m[0] * n[0] + m[1] * n[2]) >> k, (m[0] * n[1] + m[1] * n[3]) >> k,
            (m[2] * n[0] + m[3] * n[2]) >> k, (m[2] * n[1] + m[3] * n[3]) >> k)


def _symmetry(key: str) -> tuple[int, str | None]:
    """(|Sym| or 0 if infinite, the orbit representative) from the finite set
    of least-length words of the orbit of key, a canonical class that is
    not a power of a simple curve (_word).  A longer word has a shortening
    Whitehead move (peak reduction), in rank 2 one of T, t, U, u, so key
    descends (cyclically reduced: O(n) a step); the shortest words are joined
    by the moves of T, t, U, u, S that keep the length, with the signed matrix
    M[v] of a path to each, and the loops M[v']^-1 G M[v] generate +-Stab
    (McCool; -I = S^2 seeds the group), whose image in PSL(2,Z) is Sym:
    infinite once the closure passes 6, the largest order of a finite
    subgroup of SL(2,Z).  The representative has the fewest b/B letters (it
    crosses a least), then is key, then first in order; for an infinite Sym
    it is fixed by T (else None), so l is constant along every twist family."""
    start = canonical_cyclic(_descend(key, _twist_images, len))
    mats = {start: (1, 0, 0, 1)}
    todo = [start]
    loops = set()
    for w in todo:
        for g, w2 in zip(_GEN_MATS, _word_images(w, _GEN_MATS)):
            m2 = _mat_mul(_GEN_MATS[g], mats[w], 0)
            if w2 in mats:
                m = mats[w2]  # its inverse in SL(2,Z) is (d, -b, -c, a)
                loops.add(_mat_mul((m[3], -m[1], -m[2], m[0]), m2, 0))
            elif len(w2) == len(start):
                mats[w2] = m2
                todo.append(w2)
    group = new = {(1, 0, 0, 1), (-1, 0, 0, -1)}
    while new and len(group) <= 6:
        new = {_mat_mul(m, g, 0) for m in new for g in loops} - group
        group |= new
    order = 0 if len(group) > 6 else len(group) // 2
    reps = [w for w in mats if order or _word_images(w, "T") == [w]]
    return order, min(reps, default=None, key=lambda w: (
        sum(c in "bB" for c in w), w != key, w))


def _fixed_root(X, bits: int):
    """(node, k): the triple X as ints scaled by 2^k, where k = 0 when every
    coordinate is an integer (exact arithmetic) and k = bits otherwise.
    Ints convert exactly at any size, anything else as a double."""
    qs = [Fraction(v if isinstance(v, int) else float(v)) for v in _triple(X)]
    k = 0 if all(q.denominator == 1 for q in qs) else bits
    return tuple((q.numerator << k) // q.denominator for q in qs), k


def point_symmetry_order(X) -> int:
    """|Aut(X)|, the stabilizer of X in PSL(2,Z), off the reduced triple of
    its point (_aut_order); ValueError unless X is a torus point."""
    return _aut_order(_point(X))


def _aut_order(point) -> int:
    """|Aut| at the point's reduced triple, sorted as x <= y <= z: 3 when
    x = y = z (the hexagonal torus, fixed by ST: (x, y, z) -> (y, z, x)),
    2 when x = y and 2z = xy (the square torus, fixed by S:
    (x, y, z) -> (y, x, xy - z)), else 1.  Each equality is decided in the
    point's fixed point with _aut_tol, as the cone count decides tau0 = 0.

    PSL(2,Z) = Z/2 * Z/3, so every finite subgroup is conjugate into <S>
    or <ST>.  Each of these fixes exactly one point of Teichmueller space
    (an elliptic isometry of a disc; at a cusp, of the upper half-plane):
    the two tori above, whose triples are reduced.  A point with
    |Aut| > 1 lies in the orbit of one of them, and the reduced triple is
    an orbit invariant up to order, so every point of that orbit reduces
    to the fixed triple.  No triple is both: x = y = z and 2z = xy give
    x = 2, not a torus point.
    """
    node, _, k = point
    x, y, z = sorted(node)
    if y - x > _aut_tol(y, k):
        return 1
    if z - x <= _aut_tol(z, k):
        return 3
    xy = x * y >> k
    return 2 if abs(2 * z - xy) <= _aut_tol(xy, k) else 1


def _aut_tol(v: int, k: int) -> int:
    """How far apart, in units of 2^-k, two traces of size v at one point
    may lie and still be one: 1e-9 of v at a float point, where equal
    traces (the coordinates of a reduced triple with |Aut| > 1, the ends z
    and xy - z of a family with tau0 = 0) come out a few roundings apart,
    and 0 at an integral one (k = 0), whose arithmetic is exact."""
    return v // 10 ** 9 if k else 0


# ---------------------------------------------------------------------------
# word classification


_Word = namedtuple("_Word", "gamma power sym rep iota cut")


@functools.lru_cache(maxsize=1024)
def _word(gamma: str) -> _Word:
    """gamma classified once, for every entry point that takes a word:
    (gamma cyclically reduced, its simple power, |Sym| or 0 if infinite,
    the orbit representative (1 and the class for a simple power, else
    _symmetry's), iota: 2 if -I (a -> A, b -> B; it fixes every triple)
    maps gamma to another class, and the representative's slope cut
    (_slope_cut; None for a simple power)).  ValueError for an empty or
    peripheral gamma, ArithmeticError if Sym is infinite but T fixes no
    shortest image."""
    reduced = cyclic_reduce(gamma)
    if not reduced or is_peripheral_word(reduced):
        raise ValueError("gamma=%r is empty or peripheral" % gamma)
    key = canonical_cyclic(reduced)
    p, q = word_abelianization(key)
    n = math.gcd(p, q)
    power = n if n and key == canonical_cyclic(
        farey.slope_word(p // n, q // n) * n) else 0
    sym, rep = (1, key) if power else _symmetry(key)
    if rep is None:
        raise ArithmeticError("Sym(%r) is infinite, but no least-length "
                              "image of it is fixed by T" % gamma)
    iota = 1 if canonical_cyclic(key.swapcase()) == key else 2
    return _Word(reduced, power, sym, rep, iota,
                 None if power else _slope_cut(rep))


def _slope_cut(rep: str):
    """The c of _family_lengths' lemma for the word rep, or None when it
    gives no cut: rep is longer than NORMAL_MAX_LEN letters, its normal
    form in x, y, z and K = -2 - kappa has coefficients of both signs, or
    c < 2.  c sums |coef| w over the monomials x^a y^b z^c that hold no K
    (w = 2^(a+b+c-1) if a >= 1, 2^(b+c-2) if a = 0 < b, c, else 0)."""
    if len(rep) > NORMAL_MAX_LEN:
        return None
    poly = {}
    for (a, b, c, d), v in _normal_poly(_trace_plan(rep)).items():
        for j in range(d + 1):  # kappa^d = (-1)^d (2 + K)^d
            m = (a, b, c, j)
            poly[m] = poly.get(m, 0) + (-1) ** d * math.comb(d, j) * \
                2 ** (d - j) * v
    poly = {m: v for m, v in poly.items() if v}
    if len({v > 0 for v in poly.values()}) > 1:
        return None
    cut = sum(abs(v) << (a + b + c - 1 if a else b + c - 2)
              for (a, b, c, d), v in poly.items() if not d and (a or b and c))
    return cut if cut >= 2 else None


# ---------------------------------------------------------------------------
# orbit searches: twist families over triples, a pruned BFS over classes


def _bits(digits: float) -> int:
    """Binary places that carry `digits` decimal digits."""
    return math.ceil(digits * math.log2(10))


def _kappa_fixed(t, k: int) -> int:
    """kappa of a node scaled by 2^k, in the node's arithmetic."""
    x, y, z = t
    return (x * x + y * y + z * z - (x * y >> k) * z >> k) - (2 << k)


def _pruned_bfs(root, key, children, lengths, L: float, prune_c: float,
                max_nodes: int, edge=None):
    """BFS from root; returns (lengths <= L, node count, pruned count).

    lengths(nodes) gives the lengths of a list of nodes: each BFS level,
    and the children of the validation pass, in one call.  A node is
    expanded while its length is <= prune_c * L and counted when it is
    <= L; nodes are deduplicated on key(node).  Every pruned node is
    expanded one extra level, and a new child re-entering the counting
    range fails the search (the pruning constant is too small).

    The validation pass keys each child of a pruned node before it takes
    any length, as the main pass does: right when a key costs less than a
    length.  When the key is the dearer part, edge(pruned) gives instead,
    from the pruned nodes paired with their lengths, their children that
    may lie within L, found by a length or a lower bound taken before the
    key (a superset of those that do), and only those are keyed; each is
    then decided as before, by lengths, so the violation count is the
    same.
    """
    seen = {key(root)}
    frontier = [root]
    counted = []
    pruned = []
    nodes = 0
    cL = prune_c * L

    def fresh(kids):
        out = []
        for child in kids:
            ck = key(child)
            if ck not in seen:
                seen.add(ck)
                out.append(child)
        return out
    while frontier:
        if nodes > max_nodes:
            raise ArithmeticError(
                "orbit search exceeded %d nodes: the word may be non-filling "
                "(unbounded twist families stay below the pruning threshold)"
                % max_nodes)
        nodes += len(frontier)
        inner = []
        for node, lv in zip(frontier, lengths(frontier)):
            if lv <= L:
                counted.append(lv)
            if lv > cL:
                pruned.append((node, lv))
            else:
                inner.append(node)
        frontier = fresh(c for node in inner for c in children(node))
    kids = edge(pruned) if edge else (c for node, _ in pruned
                                      for c in children(node))
    violations = sum(lv <= L for lv in lengths(fresh(kids)))
    if violations:
        raise ArithmeticError(
            "pruning validation failed: %d node(s) beyond the pruned frontier "
            "re-entered the counting range; rerun with a larger prune "
            "constant" % violations)
    return counted, nodes, len(pruned)


# a non-empty twist family of a slope this close to L fails the count (the
# slopes beyond L are not walked); the step cap bounds each family's walk
_TOP_BAND = 1.0
_FAMILY_STEPS = 100_000


def _family_bits(gamma: str, L: float) -> int:
    """The triple-orbit engine's binary places at a float X: they carry the
    digits that gamma's trace cancellation digs (~deg * log10(coord)) in
    its group-algebra plan.  The twist walk evaluates the normal-form plan
    (_twist_walk), which drops most of that cancellation, so the rule now
    provisions more bits than that plan needs; no bound certifies either
    (ROADMAP direction 4)."""
    return _bits(60 + int(0.25 * len(gamma) * 1.5 * L))


def _twist_walk(marks, gamma: str, L: float, k: int, kappa: int,
                twist_fixed: bool):
    """Walk the twist families of the marks in lockstep: (the traces
    |tr gamma| <= T = _trace_bound(L, k) of each family, its two outermost
    nodes (lo, hi), and the counters {evaluations, steps}).  A node holds
    a curve of length <= L when |tr| <= T, the rule of the Farey walk.

    The family of the marking triple (x, y_0, y_1) is the nodes
    node(n) = T^n(mark) = (x, y_n, y_(n+1)): T takes s' to s + s', so
    y_n = tr(s' + n s) and y_(n+1) = x y_n - y_(n-1), extended in 2^-k
    fixed point one node at a time from each end, so that each y_n is
    rounded along one path.  A family keeps its evaluated interval
    [lo, hi], with the node pair at each end, from [0, 1] on (n = 0 alone
    when T fixes gamma, twist_fixed: l_gamma is constant).  Each step
    extends every live end by one node, and one pass of the trace plan
    over lists (_plan_eval_fixed) evaluates all the new nodes of the
    step; steps counts the passes.  The plan is gamma's normal form
    (fricke._normal_plan) at kappa, the point's own (_kappa_fixed of its
    node, exact at an integral X) clamped at -2 (_family_lengths): T
    preserves kappa, so every node of every family shares it, up to the
    rounding the walk checks for drift.

    With tr(n) = |tr gamma| at node(n), the right end is live while
    tr(hi) < tr(hi - 1) or tr(hi) <= T, and the left end while
    tr(lo) <= T or the trace still falls toward it: tr(lo) < tr(lo + 1)
    when lo < 0, tr(1) >= tr(0) when lo = 0.  This evaluates the nodes of
    the walk downhill from 0 to the minimum of the convex l_gamma and
    outward from there until l_gamma > L, and finds the same lengths.
    Proof: that walk goes right to the first m >= 1 with
    tr(m + 1) >= tr(m) when tr(1) < tr(0), else left to the last m <= 0
    with tr(m - 1) >= tr(m); so it evaluates [min(0, m - 1),
    max(1, m + 1)], then walks out from m and from m - 1 to the first
    node with l > L on each side, and finds the nodes between those two.
    By convexity, the fall clause holds exactly on the way down to m: at
    hi <= m on the right, at lo >= m on the left (at lo = 0 iff m <= 0).
    So the right end stops at the first hi >= max(1, m + 1) with
    l(hi) > L, which, as l does not fall from m on, is the last node of
    the walk on the right; the left end likewise.  And the nodes of
    [lo, hi] with l <= L are, by convexity, those between the two
    nodes beyond L.
    """
    plan = _normal_plan(gamma)
    bound = _trace_bound(L, k)
    n = len(marks)
    xs = [m[0] for _, m in marks]
    ys = [m[1] for _, m in marks]
    zs = [m[2] for _, m in marks]
    if not twist_fixed:  # node 1 of every family beside node 0
        xs, ys, zs = (xs + xs, ys + zs,
                      zs + [(x * z >> k) - y for x, y, z in zip(xs, ys, zs)])
    trs = [abs(t) for t in _plan_eval_fixed(plan, xs, ys, zs, kappa, k)]
    found = [[t for t in trs[f::n] if t <= bound] for f in range(n)]
    counts = [1 if twist_fixed else 2] * n
    # an end is [x, y, y', |tr| at its node, family, right]; its node is
    # (x, y, y') at the right end and (x, y', y) at the left one, and the
    # next node outward has y'' = x y' - y in place of y
    ends, live = [], []
    for f in range(n):
        left = [xs[f], zs[f], ys[f], trs[f], f, False]
        if twist_fixed:
            ends.append((left, [xs[f], ys[f], zs[f], trs[f], f, True]))
            continue
        right = [xs[n + f], ys[n + f], zs[n + f], trs[n + f], f, True]
        ends.append((left, right))
        t0, t1 = trs[f], trs[n + f]
        if t0 <= bound or t0 <= t1:
            live.append(left)
        if t1 <= bound or t1 < t0:
            live.append(right)
    steps = 1
    while live:
        steps += 1
        xs, ys, zs = [], [], []
        for e in live:
            f = e[4]
            if counts[f] >= _FAMILY_STEPS:
                raise ArithmeticError(
                    "twist family walk exceeded %d steps: the word may be "
                    "non-filling" % _FAMILY_STEPS)
            counts[f] += 1
            x, y, y1 = e[0], e[1], e[2]
            y2 = (x * y1 >> k) - y
            e[1], e[2] = y1, y2
            xs.append(x)
            if e[5]:
                ys.append(y1)
                zs.append(y2)
            else:
                ys.append(y2)
                zs.append(y1)
        trs = _plan_eval_fixed(plan, xs, ys, zs, kappa, k)
        nxt = []
        for e, t in zip(live, trs):
            t = abs(t)
            fell = t < e[3]
            e[3] = t
            if t <= bound:
                found[e[4]].append(t)
                nxt.append(e)
            elif fell:
                nxt.append(e)
        live = nxt
    outer = [((lo[0], lo[2], lo[1]), (hi[0], hi[1], hi[2]))
             for lo, hi in ends]
    return found, outer, {"evaluations": sum(counts), "steps": steps}


def _family_lengths(point, word: _Word, L: float):
    """The triple-orbit engine: (the traces |tr gamma| <= T =
    _trace_bound(L, k) of gamma = word.rep over the classes g of PSL(2,Z),
    at g.X, as ints scaled by the point's 2^k, and the work counters
    {families, evaluations, steps, k, cut}).

    A class is a slope s (its image of a, up to sign) and a twist index n.
    The Farey walk gives each s its marking triple (tr s, tr s', tr(s + s')),
    and T, t move it along its family.  l_gamma is convex in n
    (Fenchel-Nielsen twist), so a family is a downhill walk and two outward
    ones, or one node when T fixes gamma; _twist_walk walks all families in
    lockstep.  T fixes gamma exactly when Sym is infinite (word.sym == 0):
    if T fixes the class, the loop of _symmetry through T at it is
    parabolic, so the closure passes 6; if Sym is infinite, _symmetry picks
    a representative that T fixes.

    Only the slopes whose family can hold a curve of length <= L are
    walked: those with cut * tr s <= T + T 2^-20 + 1 (_farey_walk), where
    cut = word.cut, the c of the lemma below, or 1, the slopes with
    l_s <= L, for a word without one.

    Lemma.  At a torus point K = -2 - kappa >= 0.  Write the normal form of
    rho = word.rep (fricke._normal_poly) as a polynomial in x, y, z and K,
    and suppose all its coefficients have one sign.  Then at every node
    (x, y, z) of every twist family, |tr rho| >= c x, where c sums |coef| w
    over the monomials x^a y^b z^c that hold no K: w = 2^(a+b+c-1) if
    a >= 1, w = 2^(b+c-2) if a = 0 and b, c >= 1, w = 0 otherwise
    (_slope_cut).
    Proof.  x, y and z are traces of simple curves at the positive reduced
    point, so each is > 2.  xyz = x^2 + y^2 + z^2 + K >= x^2 + 2yz, so
    yz >= x^2 / (x - 2) > x.  So a monomial with a >= 1 is
    >= 2^(a-1) 2^b 2^c x, and y^b z^c with b, c >= 1 is
    yz y^(b-1) z^(c-1) >= 2^(b+c-2) x; no normal-form monomial is
    divisible by xyz, so no other bound is lost.  The monomials that hold
    K are >= 0, and as the coefficients share a sign, |tr rho| sums the
    terms' absolute values, so it is >= c x.  QED.  Hence a family of a
    slope with c tr s > 2 cosh(L/2) holds no curve of length <= L.  aabAb
    = yz + (3 + K) x gives c = 4: l_s <= L - 4 ln 2 as l_s grows, the
    least l_rho - l_a that ROADMAP direction 8 measured over the
    representatives of <= 8 letters, so the cut is sharp.  The lemma is
    about the representative: at (3.2, 3.5, 4.1) and L = 9, aabbabb (orbit
    of aabAb) has curves of length <= 9 in the families of slopes of
    length 10.02, 11.07 and 12.29.

    Floats.  At a float X the walk's ints round the exact values at its
    point, and its count, |tr| <= T, rests on their lying close to them
    (the digit rule of _family_bits; the drift check below guards it).
    K0 = -2 - kappa0 can lie below 0 by rounding, so the plan reads
    K+ = max(K0, 0), kappa0 clamped at -2, where every K-monomial of a
    one-signed form is >= 0.  The lemma then holds on the walk's own
    values: the nodes of a family share the mark's x~, their y~, z~ are
    > 2 and their own K~ > -2 x~, all that yz > x needs, so the normal
    form P (coefficients > 0, else negate it) has P(x~, y~, z~, K+) >=
    c x~.  Only the plan's rounding, within a relative 2^-22 (the digit
    rule's premise), separates the walk's tr~ from that value.  A slope
    left out has c x~ > T + T 2^-20 + 1, so tr~ >= (1 - 2^-22) c x~ > T,
    as (1 - 2^-22)(1 + 2^-20) > 1: the walk would count no node of its
    family.  At an integral X (k = 0) all of it is exact and K+ = K0.

    A non-empty family of a slope with l_s > L - _TOP_BAND raises
    ArithmeticError, a guard for the words without a certificate: with
    c >= 2 every walked slope has l_s <= 2 ln(tr s) < L - 2 ln 2 + 2 e^-L
    + 2^-19, below the band wherever a non-simple curve fits (|tr| >= 3,
    Yamada).  kappa is checked at both ends of every non-empty family,
    where the recursion has rounded most.

    Nodes are ints scaled by the point's 2^k (_point): k = 0 for an
    integral X, else _family_bits.  kappa0 is the point's own; the walk
    reads it clamped at -2, the drift check as it is.
    """
    node, _, k = point
    kappa0 = _kappa_fixed(node, k)
    cut = word.cut or 1
    marks = _farey_walk(point, L, cut)
    found, outer, work = _twist_walk(marks, word.rep, L, k,
                                     min(kappa0, -(2 << k)), word.sym == 0)
    top = _trace_bound(max(L - _TOP_BAND, 0.0), k)
    ends = []
    for (_, mark), got, nodes in zip(marks, found, outer):
        if got:
            if mark[0] > top:
                raise ArithmeticError(
                    "the twist family of a slope of length %.6g > L - %g is "
                    "non-empty: slopes beyond L may carry curves of length "
                    "<= L" % (length_trace(mark[0] / (1 << k)), _TOP_BAND))
            ends += nodes
    # kappa at the two outermost nodes of each non-empty family, in one list
    # pass (_kappa_fixed written out)
    base, drift = kappa0 + (2 << k), max(1 << k, abs(kappa0))
    if ends and max([abs((x * x + y * y + z * z - (x * y >> k) * z >> k)
                         - base) for x, y, z in ends]) * 10 ** 7 > drift:
        raise ArithmeticError("kappa drifted along the orbit")
    return ([t for got in found for t in got],
            {"families": len(marks), **work, "k": k, "cut": cut})


def _rep_fixed(t, k: int) -> dict:
    """Realizing matrices of the node t (ints scaled by 2^k) and their
    inverses, in the normal form of fricke.rep_from_fricke: A diagonal,
    B = [[p, q], [1, s]].  The orbit holds many long words, so their traces
    are matrix products rather than one compiled plan per word."""
    x, y, z = t
    one = 1 << k
    if abs(x) <= 2 * one:
        raise ValueError("first coordinate trace %.8g not hyperbolic"
                         % (x / one))
    lam = (x + math.isqrt(x * x - (4 << 2 * k))) >> 1
    lam_inv = (one << k) // lam
    p = ((z - (y << k) // lam) << k) // (lam - lam_inv)
    s = y - p
    q = (p * s >> k) - one
    return {"a": (lam, 0, 0, lam_inv), "A": (lam_inv, 0, 0, lam),
            "b": (p, q, one, s), "B": (s, -q, -one, p)}


# letters per block of _word_length: the blocks and their prefixes are the
# reduced words of 1-6 letters, at most 4 (3^6 - 1) / 2 = 1456 of them
_BLOCK = 6


def _word_length(mats: dict, w: str, k: int) -> float:
    """l_w from the fixed-point trace of w's realizing-matrix product, taken
    over its blocks of _BLOCK letters (the last one shorter).  mats holds
    the letters' matrices, and each block and each prefix of a block is
    multiplied once and kept there."""
    m = _block(mats, w[:_BLOCK], k)
    for i in range(_BLOCK, len(w), _BLOCK):
        m = _mat_mul(m, _block(mats, w[i:i + _BLOCK], k), k)
    return _trace_length(m[0] + m[3], k, w)


def _block(mats: dict, b: str, k: int):
    """The product of the non-empty word b, from its longest known prefix."""
    m = mats.get(b)
    if m is None:
        m = mats[b] = _mat_mul(_block(mats, b[:-1], k), mats[b[-1]], k)
    return m


def _twist_floor(w: str, lw: float, g: str, la: float, lb: float) -> float:
    """A lower bound on the length of the class w (of length lw) moved by
    the generator g, from the lengths la, lb of a and b.

    T and t fix a, so they act on classes as the two Dehn twists about the
    curve a (an automorphism of F2 is known up to conjugation by its action
    on homology, Nielsen), and U and u as those about b.  The twist of a
    curve c about a is freely homotopic to c with a copy of a spliced in
    at each of its i(a, c) crossings with a, and c is the twist back of
    its twist, which crosses a as often; so the two lengths differ by at
    most i(a, c) la.  The cyclically reduced word w crosses a copy of a
    pushed off the base point once per letter b or B, which bounds
    i(a, c): the image under T or t is at least lw - #b(w) la long, under
    U or u at least lw - #a(w) lb.  The bound is sharp (a^6 B under T is
    a^5 B)."""
    nb = w.count("b") + w.count("B")
    return lw - (nb * la if g in "Tt" else (len(w) - nb) * lb)


# the oracle BFS expands a class while its length is <= _ORACLE_PRUNE * L,
# and gives up beyond _ORACLE_NODES nodes
_ORACLE_PRUNE = 3.0
_ORACLE_NODES = 2_000_000


def _word_orbit_lengths(X, gamma: str, L: float):
    """The oracle of count_orbit_word: a pruned BFS over canonical
    conjugacy classes under the generator substitutions; returns
    (lengths <= L, node count, pruned count).  Counts curves directly,
    with no bookkeeping.

    A node is a class and the generator g that first reached it (None at
    the root), keyed on the class.  Its image under g's inverse is the
    class it was reached from (a generator moves unoriented classes, so
    g^-1 undoes g on them), which the search has already seen; so only
    the other three images are taken, and the search visits the same
    classes in the same order as one that takes all four.

    The canonical form is the dear part of a child, and almost no child of
    a pruned class comes back within L; so the validation pass (edge)
    first bounds each such child's length from below (_twist_floor; a
    child whose bound is above L (1 + 2^-30), about half of them, is not
    measured), then takes its length on its cyclically reduced substituted
    word, and canonicalizes only a child within L (1 + 2^-30).  That word
    is conjugate to the canonical one, or to its inverse: the same trace,
    whose two fixed-point products differ by far less than the slack, as
    do the bound's float roundings; so every child within L passes both,
    and it is decided by its canonical word's length as in the main pass.

    Lengths are taken at the reduced triple of X's point (the counts
    are mapping-class invariant, and a search from a far-moved X prunes
    classes it needs), in 2^-k fixed point with k carrying
    60 + 0.5 * _ORACLE_PRUNE * L digits; the realizing matrices are
    irrational, so integral triples are scaled up to that k too.  The dict
    of those matrices is also the memo of _word_length's blocks, so it
    lives and dies with the search.
    """
    k = _bits(60 + int(0.5 * _ORACLE_PRUNE * L))
    node, _, k0 = _point(X, k)
    mats = _rep_fixed(tuple(v << (k - k0) for v in node), k)
    near = L * (1.0 + 2.0 ** -30)

    def moves(g):  # the generators that do not undo g
        return GENS.replace(g.swapcase(), "") if g else GENS

    def children(node):
        w, g = node
        gens = moves(g)
        return zip(_word_images(w, gens), gens)

    la, lb = (_word_length(mats, c, k) for c in "ab")

    def edge(pruned):
        kids = ((cyclic_reduce(w.translate(_AUTOS[g])), g)
                for (w, h), lw in pruned for g in moves(h)
                if _twist_floor(w, lw, g, la, lb) <= near)
        return [(canonical_cyclic(v), g) for v, g in kids
                if _word_length(mats, v, k) <= near]
    return _pruned_bfs((canonical_cyclic(gamma), None), lambda n: n[0],
                       children,
                       lambda ns: [_word_length(mats, w, k) for w, _ in ns],
                       L, _ORACLE_PRUNE, _ORACLE_NODES, edge)


def count_orbit_word_bruteforce(X, gamma: str, L: float) -> int:
    """Direct curve count: the oracle of count_orbit_word, with its checks
    (ValueError for a peripheral gamma, for an L that is not finite and
    > 0, or unless X is a torus point)."""
    return len(_word_orbit_lengths(X, _countable(gamma, L).gamma, L)[0])


# ---------------------------------------------------------------------------
# count report


@dataclass
class CountReport:
    schema: str
    X: tuple
    gamma: str
    L_grid: list[float]
    counts: list[int]
    normalized: list[float]
    a1: int
    a3: int
    sym_order: int
    aut_order: int
    orbit_nodes: int
    pruned: int
    prune_constant: float
    prune_violations: int
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def count_orbit_word(X, gamma: str, L: float, prune_c: float = 3.0,
                     grid: list[float] | None = None) -> CountReport:
    """Count curves in the mapping-class orbit of gamma with length <= L.

    Simple gamma routes through the slope count (the orbit of a simple
    curve is all simple curves).  Any other gamma is counted at its orbit
    representative by the triple-orbit engine: the classes g of PSL(2,Z)
    with l_gamma(g.X) <= L, one per slope when Sym(gamma) is infinite,
    over the slopes whose family can hold one (_family_lengths: metadata
    cut is the c of its lemma at the point, 1 when every slope with
    l_s <= L is walked).  -I
    fixes every triple but maps gamma to another curve of the same length
    unless iota = 1, so A1 = iota * #classes / |Sym(gamma)| (ArithmeticError
    unless Sym divides the count) and A3 = sym * A1 (A1 if Sym is
    infinite).  |Aut(X)| is reported, not used, off the one point (_point)
    of the count.  prune_c is ignored, only echoed as prune_constant
    (count_orbit_word_bruteforce prunes).  The
    constant of the counting theorem is a1 / (L^2 thurston_ball_B(X)).
    ValueError for a peripheral gamma, for an L that is not finite and > 0,
    or unless X is a torus point.
    """
    word = _countable(gamma, L)
    t = _triple(X)
    if grid is None:
        grid = [L / 2.0, 0.75 * L, L]
    grid = sorted(set(float(g) for g in grid if 0 < g <= L)) or [L]
    if grid[-1] != L:
        grid.append(L)
    sym, k = word.sym, word.power
    point, kappa = _point_kappa(t, 64 if k else _family_bits(word.rep, L))
    if k:
        # orbit of the k-th power of a simple curve = k-th powers of all
        # simple curves; length scales by k.  Traces grow outward, so the
        # marks of one walk to L / k within g's bound are those of g / k
        marks = _farey_walk(point, L / k)
        counts = [sum(m[0] <= b for _, m in marks)
                  for b in [_trace_bound(g / k, point[2]) for g in grid]]
        nodes = counts[-1]
        meta = {"engine": "simple-slope", "simple_power": k}
    else:
        counts, work = _family_count(word, point, L, grid)
        nodes = work["evaluations"]
        meta = {"engine": "triple-orbit", "representative": word.rep,
                "iota": word.iota, **work}
    a1 = counts[-1]
    return CountReport(
        schema="ORB1", X=t, gamma=word.gamma, L_grid=grid, counts=counts,
        normalized=[c / g / g for c, g in zip(counts, grid)],
        a1=a1, a3=sym * a1 if sym else a1, sym_order=sym,
        aut_order=_aut_order(point),
        orbit_nodes=nodes, pruned=0, prune_constant=prune_c,
        prune_violations=0, metadata={"kappa": kappa, **meta})


def _countable(gamma: str, L: float) -> _Word:
    """gamma's record (_word), after a ValueError unless L is finite, > 0
    and within the float trace bound."""
    if not 0 < L < math.inf:
        raise ValueError("L=%r: the length bound must be finite and > 0" % L)
    _trace_bound(L, 0)  # before any precision is sized from L
    return _word(gamma)


def _family_count(word: _Word, point, L: float, grid):
    """count_orbit_word's count, which an MC sample shares: (for each g of
    grid, iota * the classes of length <= g at the point, built at
    _family_bits(word.rep, L), over |Sym| (1 if infinite); the work).  A
    class counts at g when its |trace| is <= _trace_bound(g, k); the
    traces are ints wider than 64 bits, so they are sorted as a list."""
    traces, work = _family_lengths(point, word, L)
    traces.sort()
    k = point[2]
    return [_per_curve(bisect_right(traces, _trace_bound(g, k)),
                       word.sym or 1, word.iota) for g in grid], work


def _per_curve(n: int, sym: int, iota: int) -> int:
    """iota * n / sym curves from n classes of PSL(2,Z), or orbit points
    from n slopes when sym is |Aut(X)|."""
    quotient, rest = divmod(n, sym)
    if rest:
        raise ArithmeticError("%d classes are not a multiple of the "
                              "symmetry order %d" % (n, sym))
    return iota * quotient


def _torus_kappa(t) -> float:
    """kappa of the triple t, after checking that t is a torus point: every
    |trace| > 2 and kappa <= -2, up to the rounding of the cubic at float
    coordinates.  Raises ValueError otherwise."""
    kappa, slack = _kappa_slack(t)
    if not (min(map(abs, t)) > 2 and kappa <= -2 + slack < math.inf):
        raise ValueError("X=%r is not a torus point (kappa=%g; a torus point "
                         "has kappa <= -2 and every |trace| > 2)" % (t, kappa))
    return float(kappa)


# ---------------------------------------------------------------------------
# Thurston unit-ball area


def thurston_ball_B(X) -> float:
    """Area of the unit length ball {lam in ML ~ R^2 : l_lam(X) <= 1}.

    B is a function on moduli space: the area is unchanged by GL(2,Z), by
    permuting the coordinates and by even sign flips.  So it is computed
    from the point of X (_point; ValueError unless X is a torus point):
    the reduced triple of its orbit, in 2^-64 fixed point at a float X.
    """
    return _ball_area(_point(X))


def _ball_area(point) -> float:
    """B at the point: half the area of the unit ball, the normalization
    in which lattice points mod +-1 are the integral multicurves.

    Length extends to a norm on ML ~ R^2, so every s / l_s lies on the
    boundary of the ball, and Farey neighbours s, s' span with 0 a triangle
    of area 1 / (2 l_s l_s').  Over the slopes of the Farey walk to length
    l_top + 40 (l_top: the longest coordinate curve of the node), in order
    of angle, these triangles make up the star polygon through them, which
    misses area of order e^-40.  ArithmeticError unless consecutive slopes
    are Farey neighbours, the convexity premise of the sum.
    """
    node, _, k = point
    top = max(node) / (1 << k) if k else max(node)
    marks = _farey_walk(point, length_trace(top) + 40.0)
    # by angle in [0, pi): (+-1, 0) first, then p/q decreasing; a pair the
    # float key ties or misorders fails the neighbour check, never moves B
    marks.sort(key=lambda m: (m[0][1] != 0, -m[0][0] / (m[0][1] or 1)))
    for (s, _), (s2, _) in zip(marks, marks[1:] + marks[:1]):
        if abs(s[0] * s2[1] - s[1] * s2[0]) != 1:
            raise ArithmeticError(
                "slopes %r and %r are not Farey neighbours" % (s, s2))
    ells = [length_trace(m[0] / (1 << k) if k else m[0]) for _, m in marks]
    return math.fsum(0.5 / (a * b) for a, b in zip(ells, ells[1:] + ells[:1]))


def integral_multicurve_count(X, L: float) -> int:
    """#{integral multicurves k*slope with length <= L} = sum floor(L/l_s);
    grows like B(X) * L^2."""
    _, _, k = point = _point(X)
    return sum(int(L / length_trace(m[0] / (1 << k) if k else m[0]))
               for _, m in _farey_walk(point, L))


# ---------------------------------------------------------------------------
# cone counts


def cone_count(X, m: int, L: float) -> int:
    """Orbit points g.X with coordinate-curve length <= L and twist in the
    cone m*l <= tau <= (m+1)*l.

    Each slope s with l_s(X) <= L carries the twist family of points with
    Fenchel-Nielsen coordinates (l_s, tau0 + j l_s), j in Z, and its
    marking triple from the Farey walk, (x, y, z) = (tr s, tr s', tr(s+s')),
    determines tau0 up to the twist maps T, t (tau -> tau +- l), which
    _twist_reduced removes, down to |tau0| <= l/2.  A family meets every
    width-l cone once, or twice when tau0 = 0 (z = xy - z, up to _aut_tol)
    puts both ends in it.  Aut(X) acts freely on slopes (no elliptic
    element of PSL(2,Z) fixes a rational slope), so each family of orbit
    points comes from |Aut(X)| slopes: the count is (slopes + families with
    tau0 = 0) / |Aut(X)|, from the point of X (_point; ValueError unless X
    is a torus point), whose reduced triple gives |Aut(X)| (_aut_order,
    by the same _aut_tol rule), and one walk from it (ArithmeticError
    unless the division is exact).  So the count is the same for every m;
    m stays in the signature because the CLI and perfbench pass it.
    """
    _, _, k = point = _point(X)
    marks = _farey_walk(point, L)
    n = len(marks)
    for _, mark in marks:
        x, y, z = _twist_reduced(mark, k)
        n += abs(2 * z - (x * y >> k)) <= _aut_tol(max(x, y, z), k)
    return _per_curve(n, _aut_order(point), 1)


def _twist_reduced(mark, k: int):
    """A family's marking triple moved by T, t until |y| stops falling, to
    |tau0| <= l/2; at a tie tau0 = +-l/2 either neighbour comes out."""
    x, y, z = mark
    while True:
        xy = x * y >> k
        if z < y:
            y, z = z, (x * z >> k) - y
        elif xy - z < y:
            y, z = xy - z, y
        else:
            return (x, y, z)


# ---------------------------------------------------------------------------
# ball volume and Weil-Petersson average

SYSTOLE_TOP = 1.93  # the maximal systole of a cusped torus is 2 arccosh(3/2)


# _twist_lipschitz and the ignored K of _tau_measure are kept only for the
# benchmark's twist_measure op, which passes one to the other by name; both
# go with ROADMAP P0
def _twist_lipschitz(gamma: str) -> float:
    """Certified Lipschitz constant of tau -> l_gamma: the twist derivative
    is a sum of cosines over the crossings with the twist curve, one for
    each letter of the transverse generator (with margin)."""
    nb = gamma.count("b") + gamma.count("B")
    return 2.0 + 2.0 * max(1, nb)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _bisect(pred, inside, outside, steps: int) -> float:
    """The end of an interval where pred holds, between a point inside it
    and one outside: the last midpoint inside after `steps` halvings."""
    for _ in range(steps):
        m = 0.5 * (inside + outside)
        if pred(m):
            inside = m
        else:
            outside = m
    return inside


_SECANT_STEPS = 32  # a cap only: Illinois reaches 2^-44 in 1-14 steps


def _end_predicate(g, L, inside, outside, known):
    """The predicate g(tau) <= L for bisecting one end of the sublevel set
    from inside (g <= L) toward outside (g > L), answered without g on the
    far side of the tightest known inside point lo or outside point hi.
    known maps each tau where g was already evaluated, inside and outside
    among them, to its value.

    [lo, hi] starts as the tightest pair of known points between inside
    and outside, and Illinois (bracketed secant) steps on g - L shrink it
    until g == L or it is below 2^-44 of w = |outside - inside|; two probes
    at the last estimate +-2^-50 w then tighten it.  The sublevel set is
    one interval, so a point between inside and lo lies in it and one at
    or beyond hi does not: the predicate answers every midpoint as g itself
    would."""
    s = 1.0 if outside > inside else -1.0
    w = s * (outside - inside)
    ahead = [t for t in known if s * t >= s * inside]
    lo = max((t for t in ahead if known[t] <= L), key=lambda t: s * t)
    hi = min((t for t in ahead if known[t] > L), key=lambda t: s * t)
    h_lo, h_hi = known[lo] - L, known[hi] - L
    moved = 0  # 1 when the last step moved lo, -1 when it moved hi
    for _ in range(_SECANT_STEPS):
        x = lo - h_lo * (hi - lo) / (h_hi - h_lo)
        if not s * lo < s * x < s * hi or s * (hi - lo) < w * 2.0 ** -44:
            break
        h = g(x) - L
        if h <= 0:
            lo, h_lo = x, h
            if h == 0:
                break
            if moved > 0:  # the Illinois step: hi stayed twice
                h_hi *= 0.5
            moved = 1
        else:
            hi, h_hi = x, h
            if moved < 0:
                h_lo *= 0.5
            moved = -1
    for p in (x - s * w * 2.0 ** -50, x + s * w * 2.0 ** -50):
        if s * lo < s * p < s * hi:
            if g(p) <= L:
                lo = p
            else:
                hi = p

    def below(tau):
        if s * tau <= s * lo:
            return True
        return s * tau < s * hi and g(tau) <= L
    return below


# the relative error each known length is widened by in _chord_floor: far
# above a certified length's float rounding and the bound's own arithmetic
_CHORD_SLACK = 2.0 ** -40


def _chord_floor(known, a, b) -> float:
    """A lower bound on a convex g over [a, b], from the values known maps
    each evaluated tau to (a and b among them).

    By convexity g lies above the chord of every pair of points outside
    the pair's interval: on each gap [p, q] between consecutive points,
    above the line through the two points left of it and the line through
    the two right of it, both extended into the gap, so above their
    maximum.  The maximum of two lines on [p, q] is least at an end, or
    at their crossing when one falls and the other rises there; then the
    lower of the two anywhere in the gap is at most that least value, so
    the lower one at the computed crossing bounds it, whatever that
    crossing's rounding.  Each known value is taken _CHORD_SLACK of itself
    low or high, whichever lowers a line, which covers its rounding."""
    ts = sorted(known)
    lo, hi = ts.index(a), ts.index(b)

    def line(i, t):  # the line through points i and i + 1, at t outside
        u, v = ts[i], ts[i + 1]
        gu, gv = known[u], known[v]
        eu, ev = abs(gu) * _CHORD_SLACK, abs(gv) * _CHORD_SLACK
        if t >= v:
            r = (t - v) / (v - u)
            return (gv - ev) * (1.0 + r) - (gu + eu) * r
        r = (u - t) / (v - u)
        return (gu - eu) * (1.0 + r) - (gv + ev) * r
    floor = math.inf
    for i in range(lo, hi):
        p, q = ts[i], ts[i + 1]
        lines = [(line(i - 1, p), line(i - 1, q))] if i else []
        if i + 2 < len(ts):
            lines.append((line(i + 1, p), line(i + 1, q)))
        if not lines:
            return -math.inf
        (l0, l1), (r0, r1) = lines[0], lines[-1]
        floor = min(floor, max(l0, r0), max(l1, r1))
        d0, d1 = l0 - r0, l1 - r1
        if d0 * d1 < 0.0:
            s = d0 / (d0 - d1)
            floor = min(floor, l0 + s * (l1 - l0), r0 + s * (r1 - r0))
    return floor


def _tau_measure(f, ell, L, K=None):
    """Lebesgue measure of {tau : f(ell, tau) <= L}.

    The length of every closed geodesic is strictly convex along a
    Fenchel-Nielsen twist (Wolpert, The Fenchel-Nielsen deformation, Ann.
    of Math. 115, 1982; Kerckhoff, The Nielsen realization problem, Ann. of
    Math. 117, 1983), and a certified length is a monotone function of the
    true trace, so the sublevel set of f is one interval.  A symmetric
    shell [-T, T] is doubled until f > L at both ends and rises outward
    there (f(+-T) > f(+-T/2)), which by convexity puts the whole set
    inside; golden-section search for the minimum then looks for one tau
    with f <= L (the set is empty once the bracket is below 2^-20 T, or
    as soon as the chords through the points evaluated so far, extended
    past their ends, bound f over the bracket above L (_chord_floor): the
    search could then find no such tau, so the measure is 0 either way).
    Each end is bisected 53 times from that tau toward +-T, to float
    resolution.  The bisection is replayed through _end_predicate: a
    bracketed secant first pins the end to about 2^-50 of its bracket, and
    only midpoints inside that bracket evaluate f, so the measure is the
    one the plain bisection gives, bit for bit, from about a third of the
    length evaluations.  Each end's secant starts from the tightest
    bracket that the shell and the search have already evaluated.
    """
    known = {}

    def g(tau):
        known[tau] = v = f(ell, tau)
        return v

    T = max(4.0 * ell, 8.0)
    f_lo, f_hi = g(-T / 2.0), g(T / 2.0)
    for _ in range(40):
        out_lo, out_hi = g(-T), g(T)
        if out_lo > max(L, f_lo) and out_hi > max(L, f_hi):
            break
        f_lo, f_hi = out_lo, out_hi
        T *= 2.0
    else:
        raise ArithmeticError("twist sublevel set unbounded: gamma not filling")
    a, b = -T, T
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = g(c), g(d)
    while fc > L and fd > L:  # one new point per step
        if b - a < T * 2.0 ** -20 or \
                _chord_floor(known, a, b) > L * (1.0 + _CHORD_SLACK):
            return 0.0
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = g(d)
    inside = c if fc <= L else d
    # each end is less than 2T away, so 53 halvings end below T 2^-52
    return (_bisect(_end_predicate(g, L, inside, T, known), inside, T, 53)
            - _bisect(_end_predicate(g, L, inside, -T, known), inside, -T, 53))


def require_filling(gamma: str) -> _Word:
    """gamma's record (_word); ValueError unless gamma fills: a simple
    power or an infinite Sym has a length ball of infinite volume."""
    word = _word(gamma)
    if word.power or not word.sym:
        raise ValueError("gamma=%r %s: not filling" % (gamma, (
            "is a power of a simple curve" if word.power
            else "has an infinite twist stabilizer")))
    return word


def ball_length_region_volume(gamma: str, L: float, l1: float = 0.0,
                              grid_n: int = 200) -> float:
    """FN-area of {(l,tau) : l_gamma <= L} times iota / |Sym(gamma)|, i.e.
    the volume of a Sym-fundamental region of the length ball, taken twice
    when -I maps gamma to another curve (see count_orbit_word); taken at
    the orbit representative, as every image of gamma gives the same."""
    word = require_filling(gamma)
    f = _gamma_length_fn(word.rep, l1)

    def nonempty(e):
        return _tau_measure(f, e, L) > 0.0

    # coarse bracket in ell: widths vanish for very short and very long ell
    ell = next((2.0 ** k for k in range(-12, 8) if nonempty(2.0 ** k)), None)
    if ell is None:
        return 0.0
    ell_lo = ell_hi = ell
    while ell_lo > 1e-8 and nonempty(ell_lo * 0.5):
        ell_lo *= 0.5
    while ell_hi < 64 * L:
        if not nonempty(ell_hi * 2.0):
            break
        ell_hi *= 2.0
    else:
        raise ArithmeticError("length region unbounded in ell: gamma not filling")
    # refine the support endpoints by bisection
    ell_min = _bisect(nonempty, ell_lo, ell_lo * 0.5, 20)
    ell_max = _bisect(nonempty, ell_hi, ell_hi * 2.0, 20)

    xs = np.linspace(ell_min, ell_max, grid_n)
    ws = np.array([_tau_measure(f, float(e), L) for e in xs])
    # trapezoid rule in numpy's own operation order; np.trapz is gone in
    # numpy 2.4 and np.trapezoid is absent before 2.0
    area = float((np.diff(xs) * (ws[1:] + ws[:-1]) / 2.0).sum())
    return area * word.iota / word.sym


def _systole_cap(l1: float) -> float:
    """The top of the MC's draw of ell at boundary length l1: the maximal
    systole of such a torus, or SYSTOLE_TOP if that is larger.

    Take the reduced triple x <= y <= z <= xy/2, x the systole's trace,
    with xyz = x^2 + y^2 + z^2 + c and c = 2 cosh(l1/2) - 2 >= 0.
    z(xy - z) grows in z on [y, xy/2], so
    x^2 + y^2 + c = z(xy - z) >= y^2 (x - 1).  Hence
    x^2 + c >= y^2 (x - 2) >= x^2 (x - 2), that is x^3 - 3x^2 <= c, and
    the systole is at most 2 arccosh(x*/2), x* >= 3 the root of
    x^3 - 3x^2 = c.  With x = 1 + 2 cosh(theta) the cubic reads
    2 cosh(3 theta) = 2 cosh(l1/2), so x* = 1 + 2 cosh(l1/6), the trace of
    the equilateral triple x = y = z, which attains the bound.  At l1 = 0
    the bound is 2 arccosh(3/2) = 1.9248 and the cap is SYSTOLE_TOP.
    """
    return max(SYSTOLE_TOP, length_trace(1.0 + 2.0 * math.cosh(l1 / 6.0)))


def ball_volume_and_average(gamma: str, L: float, mc_samples: int = 2000,
                            seed: int = 0, l1: float = 0.0, workers: int = 1):
    """(vol, avg, stderr): the FN-area of a Sym(gamma)-fundamental region of
    the length ball {l_gamma <= L}, and the Monte Carlo estimate of
    Integral over moduli of s_X(L, gamma) dX, which the unfolding identity
    makes equal; the contract is agreement within 3 standard errors.

    Moduli fundamental domain: coordinate curve is the shortest simple
    curve, twist in [0, l); each sample is its own draw (_mc_draw, keyed
    by seed and sample index), so the result is independent of worker
    scheduling.  A sample counts the curves of the orbit of gamma at X by
    count_orbit_word's recipe (_family_count), from gamma's one record.
    """
    if mc_samples < 1000:
        raise ValueError("mc_samples must be >= 1000")
    gamma = require_filling(gamma).gamma
    vol = ball_length_region_volume(gamma, L, l1=l1)
    args = [(i, seed, gamma, L, l1) for i in range(mc_samples)]
    vals = np.array(parallel_map(_mc_sample_value, args, workers), dtype=float)
    region_area = _systole_cap(l1) ** 2 / 2.0
    avg = region_area * float(np.mean(vals))
    stderr = region_area * float(np.std(vals, ddof=1)) / math.sqrt(mc_samples)
    return vol, avg, stderr


def _mc_draw(i: int, seed: int, l1: float) -> tuple[float, float]:
    """(ell, tau) of MC sample i of seed at boundary length l1, from its own
    counter-based stream (Philox keyed by [seed, i]): ell has density ~ ell
    on (0, _systole_cap(l1)], and tau is uniform on [0, ell)."""
    u1, u2, u3 = np.random.Generator(np.random.Philox(key=[seed, i])).random(3)
    ell = _systole_cap(l1) * max(u1, u2)
    return ell, u3 * ell


def _mc_sample_value(args):
    """Sample i of seed: count_orbit_word's count (_family_count) of gamma
    at the drawn (ell, tau) (_mc_draw), or 0 outside the fundamental domain,
    where the coordinate curve is not the systole (the least coordinate of
    the reduced triple).  Both read one point: the draw charted once at the
    count's k (_chart_fixed), reduced (_reduced), with no conversion."""
    i, seed, gamma, L, l1 = args
    ell, tau = _mc_draw(i, seed, l1)
    word = _word(gamma)
    k = _family_bits(word.rep, L)
    point = _reduced(_chart_fixed(l1, ell, tau, k, {})[0], k)
    if min(point[0]) / (1 << k) < 2.0 * math.cosh(ell / 2.0) * (1.0 - 1e-12):
        return 0.0
    return _family_count(word, point, L, [L])[0][0]
