"""Orbit counting on the once-punctured (or one-holed) torus.

Counts mapping-class-group orbits of curves by length, computes the Thurston
unit-ball area B(X), twist-cone counts, and length-ball volumes with their
Weil-Petersson Monte Carlo averages.

The mapping class group acts on trace coordinates through the four generator
substitutions (twists along the two basis curves and their inverses); on
triples these are the polynomial maps

    T:  (x,y,z) -> (x, z, xz - y)        T^-1: (x,y,z) -> (x, xy - z, y)
    U:  (x,y,z) -> (z, y, yz - x)        U^-1: (x,y,z) -> (xy - z, y, x)

which preserve the boundary invariant kappa exactly.  Both orbit searches
(over triples, and over the conjugacy classes of the direct word-orbit
enumeration that cross-validates it) run in 2^-k fixed point, exact at
k = 0 for integral triples, and share one pruned BFS.  The simple-slope
and cone counts share one Farey walk in the same fixed point.  The lengths
along twist lines and rays (length-ball volumes, APL) are fixed point end
to end as well: the (ell, tau) torus chart is built from two exponentials
as ints scaled by 2^k and handed to the same node-length code as orbit
nodes.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from mpmath.libmp import from_float, mpf_exp, round_nearest

from . import farey
from .fricke import (FrickeTriple, canonical_cyclic, cyclic_reduce,
                     length_trace, reduce_word, trace_word_fixed)
from .fn_surface import S11, SurfacePoint, fricke_triple


def _triple(X) -> tuple:
    if isinstance(X, FrickeTriple):
        return (X.x, X.y, X.z)
    return tuple(X)


# ---------------------------------------------------------------------------
# simple curves: one Farey walk


def _farey_walk(X, L: float):
    """(marks, k): for every slope s with trace <= 2 cosh(L/2) at X, the
    pair (s, (tr s, tr s', tr(s + s'))) with det(s, s') = 1, the marking
    triple of s, as ints scaled by 2^k (k = 0 for an integral X, else 64).

    Descends to the minimal triangle, then walks the Farey tree outward
    from it: across an edge (u, v) with opposite vertex u - v lies u + v,
    of trace t_u t_v - t_(u-v).  Traces grow outward at a torus point, and
    a child below its opposite vertex raises ArithmeticError.  X must be a
    torus point (ValueError otherwise): elsewhere the traces need not grow
    outward and the walk would not end.
    """
    t = _triple(X)
    _torus_kappa(t)
    (ta, tb, tab), k = _fixed_root([abs(v) for v in t], 64)
    bound = int(math.ldexp(2.0 * math.cosh(L / 2.0), k))
    # descend to the minimal triangle: basis (sa, sb), vertices sa, sb, sa+sb
    sa, sb = (1, 0), (0, 1)
    for _ in range(10_000):
        top = max(ta, tb, tab)
        if tab == top:
            # flip the sum vertex to sa - sb; rebase as (sa-sb, sb), sum sa
            new = (ta * tb >> k) - tab
            if new >= top:
                break
            sa, ta, tab = (sa[0] - sb[0], sa[1] - sb[1]), new, ta
        elif ta == top:
            # flip vertex sa to sa + 2sb; rebase as (sb, sa+sb)
            new = (tb * tab >> k) - ta
            if new >= top:
                break
            sa, sb, ta, tb, tab = sb, (sa[0] + sb[0], sa[1] + sb[1]), tb, tab, new
        else:
            new = (ta * tab >> k) - tb
            if new >= top:
                break
            sb, tb, tab = (sa[0] + sb[0], sa[1] + sb[1]), tab, new
    else:
        raise RuntimeError("minimal-triangle descent did not terminate")

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
    return marks, k


def simple_slopes(X, L: float):
    """All slopes with geodesic length <= L at X, with their traces, from
    the Farey walk (exact ints at an integral X, else floats); ValueError
    unless X is a torus point."""
    marks, k = _farey_walk(X, L)
    return sorted((farey.normalize_slope(*s), tr / (1 << k) if k else tr)
                  for s, (tr, _, _) in marks)


def count_simple(X, L: float) -> int:
    """Number of simple closed geodesics of length <= L at X."""
    return len(simple_slopes(X, L))


# ---------------------------------------------------------------------------
# mapping-class generators: word substitutions, slope matrices, triple maps

_AUTOS = {
    "T": str.maketrans({"b": "ba", "B": "AB"}),
    "t": str.maketrans({"b": "bA", "B": "aB"}),
    "U": str.maketrans({"a": "ab", "A": "BA"}),
    "u": str.maketrans({"a": "aB", "A": "bA"}),
}
_GEN_MATS = {
    "T": (1, 1, 0, 1), "t": (1, -1, 0, 1),
    "U": (1, 0, 1, 1), "u": (1, 0, -1, 1),
}
GENS = "TtUu"


def _images(t, k: int, xy=None):
    """The node t (ints scaled by 2^k; k = 0: an exact integral triple)
    moved by each generator map, in GENS order.  xy = x*y >> k, which two
    of the maps share, may come from a caller that has it already."""
    x, y, z = t
    if xy is None:
        xy = x * y >> k
    return ((x, z, (x * z >> k) - y), (x, xy - z, y),
            (z, y, (y * z >> k) - x), (xy - z, y, x))


def apply_auto(w: str, g: str) -> str:
    return reduce_word(w.translate(_AUTOS[g]))


def _mat_mul(m, n, k: int):
    """Product of 2x2 matrices of ints scaled by 2^k (k = 0: exact)."""
    return ((m[0] * n[0] + m[1] * n[2]) >> k, (m[0] * n[1] + m[1] * n[3]) >> k,
            (m[2] * n[0] + m[3] * n[2]) >> k, (m[2] * n[1] + m[3] * n[3]) >> k)


def _mat_key(m):
    """Canonical representative in PSL(2,Z): fix the sign of the first
    nonzero entry (the elliptic involution acts trivially on curves)."""
    for v in m:
        if v != 0:
            return m if v > 0 else tuple(-e for e in m)
    raise ValueError("zero matrix")


def curve_symmetry_order(gamma: str, radius: int = 8) -> int:
    """|Sym(gamma) & Gamma|: order of the mapping-class stabilizer of the
    unoriented class of gamma, found by ball search in the generators.

    Finite for non-simple, non-peripheral classes (the finite subgroups of
    the group have order <= 3, so a modest radius suffices); returns 1 for
    simple classes by convention (their stabilizer contains the infinite
    twist subgroup, which is exactly the redundancy quotiented out by the
    slope parametrization).
    """
    return _symmetry_order(canonical_cyclic(gamma), radius)


@functools.lru_cache(maxsize=1024)
def _symmetry_order(key: str, radius: int) -> int:
    if simple_power(key):
        return 1
    ident = (1, 0, 0, 1)
    seen = {ident: key}
    frontier = [(ident, key)]
    stab = {ident}
    for _ in range(radius):
        nxt = []
        for (m, w) in frontier:
            for g in GENS:
                # applying g to the image word is left composition, so the
                # matrix product is taken in the same order
                m2 = _mat_key(_mat_mul(_GEN_MATS[g], m, 0))
                if m2 in seen:
                    continue
                w2 = canonical_cyclic(apply_auto(w, g))
                seen[m2] = w2
                nxt.append((m2, w2))
                if w2 == key:
                    stab.add(m2)
        frontier = nxt
    order = len(stab)
    for m in stab:
        if m != ident and abs(m[0] + m[3]) >= 2:
            # a parabolic or hyperbolic stabilizer element: Sym is infinite
            # (gamma is a decorated simple class); 0 is the sentinel
            order = 0
            break
    return order


def _fixed_root(X, bits: int):
    """(node, k): the triple X as ints scaled by 2^k, where k = 0 when every
    coordinate is an integer (exact arithmetic) and k = bits otherwise.
    Ints convert exactly at any size, anything else as a double."""
    qs = [Fraction(v if isinstance(v, int) else float(v)) for v in _triple(X)]
    k = 0 if all(q.denominator == 1 for q in qs) else bits
    return tuple((q.numerator << k) // q.denominator for q in qs), k


def _reduced(t, k: int):
    """Descend the orbit of a node: apply the generator map that lowers
    max|coord| the most, until none lowers it."""
    size = max(map(abs, t))
    while True:
        low, u = min((max(map(abs, c)), c) for c in _images(t, k))
        if low >= size:
            return t
        t, size = u, low


def _reduced_root(X):
    """(node, k): X as ints scaled by 2^k (k = 0 for an integral X, else
    64) descended to the reduced triple of its orbit."""
    root, k = _fixed_root(X, 64)
    return _reduced(root, k), k


def point_symmetry_order(X, radius: int = 6, tol: float = 1e-9) -> int:
    """|Aut(X)|: mapping classes in a generator ball fixing the triple.

    The ball is centred at the reduced triple of the orbit of X (|Aut| is
    invariant under conjugation), where a small radius finds every
    automorphism; a ball around a far-moved X would miss them.
    """
    root, k = _reduced_root(X)
    ident = (1, 0, 0, 1)
    seen = {ident}
    frontier = [(ident, root)]
    aut = 1
    scale = max(abs(v) for v in root)
    for _ in range(radius):
        nxt = []
        for (m, t) in frontier:
            for g, t2 in zip(GENS, _images(t, k)):
                m2 = _mat_key(_mat_mul(m, _GEN_MATS[g], 0))
                if m2 in seen:
                    continue
                seen.add(m2)
                nxt.append((m2, t2))
                if max(abs(a - b) for a, b in zip(t2, root)) <= tol * scale:
                    aut += 1
        frontier = nxt
    return aut


# ---------------------------------------------------------------------------
# word classification


def word_abelianization(w: str) -> tuple[int, int]:
    w = reduce_word(w)
    return (w.count("a") - w.count("A"), w.count("b") - w.count("B"))


def is_peripheral_word(w: str) -> bool:
    w = cyclic_reduce(w)
    if word_abelianization(w) != (0, 0) or len(w) % 4 != 0 or not w:
        return False
    k = len(w) // 4
    return canonical_cyclic(w) == canonical_cyclic("abAB" * k)


def simple_power(w: str) -> int:
    """k > 0 if w is conjugate to the k-th power of a slope word, else 0."""
    p, q = word_abelianization(w)
    if (p, q) == (0, 0):
        return 0
    k = math.gcd(p, q)
    base = farey.slope_word(p // k, q // k)
    if canonical_cyclic(w) == canonical_cyclic(base * k):
        return k
    return 0


# ---------------------------------------------------------------------------
# orbit searches: one pruned BFS over triples or conjugacy classes


def _bits(digits: float) -> int:
    """Binary places that carry `digits` decimal digits."""
    return math.ceil(digits * math.log2(10))


def _kappa_fixed(t, k: int, xy=None) -> int:
    """kappa of a node scaled by 2^k, in the node's arithmetic (xy as for
    _images)."""
    x, y, z = t
    if xy is None:
        xy = x * y >> k
    return (x * x + y * y + z * z - xy * z >> k) - (2 << k)


def _trace_length(tr: int, k: int, w: str) -> float:
    """l = 2 arccosh(|tr|/2) for the trace of w held as an int scaled by
    2^k; a trace within 1e-9 of parabolic is rounding at a cusp-like node."""
    tr = abs(tr)
    if tr < 2 << k:
        if tr * 10 ** 9 > (2 * 10 ** 9 - 1) << k:
            return 0.0
        raise ArithmeticError("non-hyperbolic trace %.8g for %r along the "
                              "orbit" % (tr / (1 << k), w))
    if tr.bit_length() - k < 1000:
        return length_trace(tr / (1 << k))
    return length_trace(tr >> k)  # beyond the float range: 2 log t


def _node_length(t, gamma: str, k: int) -> float:
    """l_gamma at a node held as ints scaled by 2^k (k = 0: an integral
    triple, exact), from the fixed-point trace of gamma's compiled plan."""
    return _trace_length(trace_word_fixed(t, gamma, k), k, gamma)


class PruningError(ArithmeticError):
    """A node beyond the pruned frontier of an orbit search re-entered the
    counting range: the pruning constant was too small for this search."""


def _pruned_bfs(root, key, children, length, L: float, prune_c: float,
                max_nodes: int):
    """BFS from root; returns (lengths <= L, node count, pruned count).

    A node is expanded while length(node) <= prune_c * L and counted when
    length(node) <= L; nodes are deduplicated on key(node).  Every pruned
    node is expanded one extra level, and a new child re-entering the
    counting range fails the search (the pruning constant is too small).
    """
    seen = {key(root)}
    frontier = [root]
    counted = []
    pruned = []
    nodes = 0
    cL = prune_c * L
    while frontier:
        if nodes > max_nodes:
            raise ArithmeticError(
                "orbit search exceeded %d nodes: the word may be non-filling "
                "(unbounded twist families stay below the pruning threshold)"
                % max_nodes)
        nxt = []
        for node in frontier:
            lv = length(node)
            nodes += 1
            if lv <= L:
                counted.append(lv)
            if lv > cL:
                pruned.append(node)
                continue
            for child in children(node):
                ck = key(child)
                if ck not in seen:
                    seen.add(ck)
                    nxt.append(child)
        frontier = nxt
    violations = 0
    for node in pruned:
        for child in children(node):
            ck = key(child)
            if ck not in seen:
                seen.add(ck)
                if length(child) <= L:
                    violations += 1
    if violations:
        raise PruningError(
            "pruning validation failed: %d node(s) beyond the pruned frontier "
            "re-entered the counting range; rerun with a larger prune "
            "constant" % violations)
    return counted, nodes, len(pruned)


def _orbit_bfs(X, gamma: str, L: float, prune_c: float = 3.0,
               max_nodes: int = 5_000_000):
    """The pruned BFS over the triple orbit of X; returns (lengths <= L,
    node count, pruned count).

    Nodes are ints scaled by 2^k: k = 0 for an integral X, else k binary
    places carry the digits that the trace cancellation at the pruning
    frontier digs (~deg * log10(coord)).  Paths to one node round
    differently in the last places, so nodes are keyed on 64 binary places.
    """
    root, k = _fixed_root(
        X, _bits(60 + int(0.25 * len(gamma) * prune_c * L)))
    shift = max(0, k - 64)

    def key(t):
        return (t[0] >> shift, t[1] >> shift, t[2] >> shift)

    kappa0 = _kappa_fixed(root, k)
    drift = max(1 << k, abs(kappa0))  # 10^7 times the allowed drift

    def children(t):
        # the drift check runs at every node expanded or validated, and
        # shares x*y with the maps
        xy = t[0] * t[1] >> k
        if abs(_kappa_fixed(t, k, xy) - kappa0) * 10 ** 7 > drift:
            raise ArithmeticError("kappa drifted along the orbit")
        return _images(t, k, xy)

    return _pruned_bfs(root, key, children,
                       lambda t: _node_length(t, gamma, k),
                       L, prune_c, max_nodes)


def _rep_fixed(t, k: int) -> dict:
    """Realizing matrices of the node t (ints scaled by 2^k) and their
    inverses, in the normal form of fricke.rep_from_fricke: A diagonal,
    B = [[p, q], [1, s]].  Words in the orbit get long, so their traces are
    matrix products (linear cost) rather than Fricke plans."""
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


def _word_length(mats: dict, w: str, k: int) -> float:
    """l_w from the fixed-point trace of w's realizing-matrix product."""
    m = mats[w[0]]
    for ch in w[1:]:
        m = _mat_mul(m, mats[ch], k)
    return _trace_length(m[0] + m[3], k, w)


def _word_orbit_lengths(X, gamma: str, L: float, prune_c: float = 3.0,
                        max_nodes: int = 2_000_000):
    """The pruned BFS over canonical conjugacy classes under the generator
    substitutions; returns (lengths <= L, node count, pruned count).
    Counts curves directly with no bookkeeping, so it also handles classes
    with infinite symmetry.

    Lengths are taken at the reduced triple of the orbit of X (the counts
    are mapping-class invariant, and a search from a far-moved X prunes
    classes it needs), in 2^-k fixed point with k carrying
    60 + 0.5 * prune_c * L digits; the realizing matrices are irrational,
    so integral triples are scaled up to that k too.
    """
    k = _bits(60 + int(0.5 * prune_c * L))
    root, k0 = _fixed_root(X, k)
    mats = _rep_fixed(tuple(v << (k - k0) for v in _reduced(root, k0)), k)

    def children(w):
        return [canonical_cyclic(apply_auto(w, g)) for g in GENS]

    return _pruned_bfs(canonical_cyclic(gamma), lambda w: w, children,
                       lambda w: _word_length(mats, w, k),
                       L, prune_c, max_nodes)


def count_orbit_word_bruteforce(X, gamma: str, L: float,
                                prune_c: float = 3.0) -> int:
    """Direct curve count used to validate the triple engine."""
    return len(_word_orbit_lengths(X, gamma, L, prune_c)[0])


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
    B: float | None = None
    fitted_constant: float | None = None
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "CountReport":
        d = json.loads(s)
        d["X"] = tuple(d["X"])
        return cls(**d)


def count_orbit_word(X, gamma: str, L: float, prune_c: float = 3.0,
                     grid: list[float] | None = None,
                     compute_B: bool = False) -> CountReport:
    """Count curves in the mapping-class orbit of gamma with length <= L.

    Simple gamma routes through the slope count (the orbit of a simple
    curve is all simple curves).  Otherwise the triple-orbit BFS counts
    orbit nodes and converts to a curve count A1 via the exact relation
    #elements = #nodes * |Aut(X)| = #curves * |Sym(gamma)|; A3 = sym * A1.
    """
    gamma = cyclic_reduce(gamma)
    if is_peripheral_word(gamma) or not gamma:
        raise ValueError("gamma is peripheral; its orbit is not counted")
    t = _triple(X)
    kappa = _torus_kappa(t)
    if grid is None:
        grid = [L / 2.0, 0.75 * L, L]
    grid = sorted(set(float(g) for g in grid if 0 < g <= L)) or [L]
    if grid[-1] != L:
        grid.append(L)
    sym = curve_symmetry_order(gamma)
    aut = point_symmetry_order(t)
    k = simple_power(gamma)
    if k:
        # orbit of the k-th power of a simple curve = k-th powers of all
        # simple curves; length scales by k
        counts = [count_simple(t, g / k) for g in grid]
        nodes, pruned = counts[-1], 0
        meta = {"engine": "simple-slope", "simple_power": k}
    else:
        if sym == 0:
            # infinite symmetry (gamma is simple with decoration, e.g. a
            # power times a boundary conjugate): the node bookkeeping breaks
            # down, so count curves directly over conjugacy classes
            lengths, nodes, pruned = _word_orbit_lengths(t, gamma, L, prune_c)
            meta = {"engine": "word-orbit",
                    "note": "Sym(gamma) infinite; a3 reported equal to a1"}
        else:
            lengths, nodes, pruned = _orbit_bfs(t, gamma, L, prune_c)
            meta = {"engine": "triple-orbit"}
        arr = np.sort(np.array(lengths))
        counts = []
        for g in grid:
            a2 = int(np.searchsorted(arr, g, side="right"))
            a1g = a2 * aut / sym if sym else a2
            if abs(a1g - round(a1g)) > 1e-6:
                raise ArithmeticError(
                    "node count %d not divisible by sym/aut bookkeeping "
                    "(aut=%d sym=%d)" % (a2, aut, sym))
            counts.append(int(round(a1g)))
    a1 = counts[-1]
    report = CountReport(
        schema="ORB1", X=t, gamma=gamma, L_grid=grid, counts=counts,
        normalized=[c / g / g for c, g in zip(counts, grid)],
        a1=a1, a3=sym * a1 if sym else a1, sym_order=sym, aut_order=aut,
        orbit_nodes=nodes, pruned=pruned, prune_constant=prune_c,
        prune_violations=0, metadata={"kappa": kappa, **meta})
    if compute_B:
        report.B = thurston_ball_B(t, 1e-6)
        report.fitted_constant = report.a1 / (L * L * report.B)
    return report


def _torus_kappa(t) -> float:
    """kappa of the triple t, after checking that t is a torus point: every
    |trace| > 2 and kappa <= -2, up to the rounding of the cubic at float
    coordinates.  Raises ValueError otherwise."""
    x, y, z = t
    s = x * x + y * y + z * z
    kappa = s - x * y * z - 2
    # exact for ints; at float coordinates the cubic is rounded to a few
    # units in the last place of s, and beyond the float range it is void
    slack = 0 if isinstance(kappa, int) else 1e-9 * max(1.0, s)
    if not (min(abs(x), abs(y), abs(z)) > 2 and kappa <= -2 + slack < math.inf):
        raise ValueError("X=%r is not a torus point (kappa=%g; a torus point "
                         "has kappa <= -2 and every |trace| > 2)" % (t, kappa))
    return float(kappa)


# ---------------------------------------------------------------------------
# Thurston unit-ball area


def _adaptive_simpson(f, a, b, tol, fa, fm, fb, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    whole = (b - a) / 6.0 * (fa + 4 * fm + fb)
    left = (m - a) / 6.0 * (fa + 4 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4 * frm + fb)
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    if depth <= 0:
        raise ArithmeticError(
            "sector integral not converged (achieved %g)" % abs(left + right - whole))
    # halved tolerance floored at integrand noise level, else the recursion
    # chases roundoff to the depth limit
    sub = max(tol / 2, 1e-14)
    return (_adaptive_simpson(f, a, m, sub, fa, flm, fm, depth - 1)
            + _adaptive_simpson(f, m, b, sub, fm, frm, fb, depth - 1))


def thurston_ball_B(X, tol: float = 1e-6) -> float:
    """Area of the unit length ball {lam in ML ~ R^2 : l_lam(X) <= 1}.

    B is a function on moduli space: the area is unchanged by GL(2,Z), by
    permuting the coordinates and by even sign flips.  So it is integrated
    at the canonical triple of the orbit of X (ValueError unless X is a
    torus point): the reduced triple, as absolute values in ascending
    order.  The order is chosen by cost: the quadrature takes 153 direction
    walks at (3, 4, 5) and 477 at (5, 4, 3).
    """
    _torus_kappa(_triple(X))
    root, k = _reduced_root(X)
    return _ball_area(sorted(abs(v) / (1 << k) for v in root), tol)


def _ball_area(t, tol: float) -> float:
    """B at the marking t: (1/2) Integral_0^pi r(theta)^2 dtheta with
    r = 1 / (homogeneous length of the unit direction), matching the
    normalization where lattice points mod +-1 are the integral
    multicurves."""
    def f(theta):
        rate = farey.direction_length_rate(t, math.cos(theta), math.sin(theta))
        return 0.5 / (rate * rate)

    a, b = 0.0, math.pi
    m = 0.5 * (a + b)
    return _adaptive_simpson(f, a, b, tol, f(a), f(m), f(b), 40)


def integral_multicurve_count(X, L: float) -> int:
    """#{integral multicurves k*slope with length <= L} = sum floor(L/l_s);
    grows like B(X) * L^2."""
    total = 0
    for (_, tr) in simple_slopes(X, L):
        ls = length_trace(tr)
        total += int(L / ls)
    return total


# ---------------------------------------------------------------------------
# cone counts


def cone_count(X, m: int, L: float) -> int:
    """Orbit points g.X with coordinate-curve length <= L and twist in the
    cone m*l <= tau <= (m+1)*l.

    Each slope s with l_s(X) <= L carries the twist family of points with
    Fenchel-Nielsen coordinates (l_s, tau0 + j l_s), j in Z, and its
    marking triple from the Farey walk, (x, y, z) = (tr s, tr s', tr(s+s')),
    determines tau0 up to the twist maps T, t (tau -> tau +- l).  They
    reduce it until |y| stops falling, to |tau0| <= l/2, with the tie
    tau0 = +-l/2 (|xy - z| = |y|) taken in the form y = z.  Slopes that an
    automorphism of X exchanges reduce to one triple, so families are keyed
    on the reduced triple, in the walk's fixed point (64 binary places off
    the integers).  A family meets every width-l cone once, or twice when
    tau0 = 0 (z = xy - z) puts both ends in it.  So the count is the same
    for every m; m stays in the signature because the CLI and perfbench
    pass it.
    """
    marks, k = _farey_walk(X, L)
    families = {}
    for _, (x, y, z) in marks:
        while True:
            xy = x * y >> k
            if z < y:
                y, z = z, (x * z >> k) - y
            elif xy - z < y:
                y, z = xy - z, y
            else:
                break
        if xy - z == y:
            z = y
        families[(x, y, z)] = 2 if 2 * z == xy else 1
    return sum(families.values())


# ---------------------------------------------------------------------------
# ball volume and Weil-Petersson average

SYSTOLE_TOP = 1.93  # the maximal systole of a cusped torus is 2 arccosh(3/2)
_MC_PRUNE_ESCALATION = (2.0, 3.0)


def _exp_fixed(h: float, k: int) -> tuple[int, int]:
    """(e^h, e^-h) as ints scaled by 2^k, each within two units of 2^-k.

    e^|h| comes from mpmath's pure mpf_exp with the bits that 2^-k absolute
    accuracy needs (no global precision state is read or set), and its
    inverse from one integer division."""
    a = abs(h)
    _, man, exp, _ = mpf_exp(from_float(a),
                             k + 8 + math.ceil(a / math.log(2)), round_nearest)
    s = exp + k
    big = man << s if s >= 0 else man >> -s
    small = (1 << 2 * k) // big
    return (big, small) if h >= 0 else (small, big)


def _chart_fixed(l1: float, ell: float, tau: float, k: int):
    """Trace coordinates (x, y, z) of the torus chart at (ell, tau), as ints
    scaled by 2^k: with v = e^(ell/2) and u = e^(tau/2),

        x = v + 1/v,  y = m (u + 1/u),  z = m (uv + 1/(uv)),
        m = sqrt(2 cosh(l1/2) + v^2 + v^-2) / (v - 1/v)

    (m = coth(ell/2) at a cusp).  uv is the product of the two fixed-point
    exponentials, never e^((ell+tau)/2) of the rounded float sum, which
    would break the kappa identity that ties z to x and y.

    Near the reducible locus the trace of a word is sensitive to the triple
    far beyond double precision (the polynomial cancels through ~deg *
    log10(coord) digits), so the chart is evaluated at the precision the
    downstream trace needs.  In the thin part m ~ 2/ell divides by
    v - 1/v ~ ell, so the chart works 2 log2(1/ell) bits finer than 2^-k.
    """
    g = 2 * max(0, -math.frexp(ell)[1])
    n = k + g
    v, vi = _exp_fixed(float(ell) / 2, n)
    u, ui = _exp_fixed(float(tau) / 2, n)
    if l1 == 0.0:
        r = v + vi  # the square root is exact at a cusp
    else:
        c1 = sum(_exp_fixed(float(l1) / 2, n))
        r = math.isqrt((c1 + (v * v + vi * vi >> n)) << n)
    m = (r << n) // (v - vi)
    return (v + vi >> g, m * (u + ui) >> n + g,
            m * (u * v + ui * vi >> n) >> n + g)


def _gamma_length_fn(gamma: str, l1: float):
    deg = len(gamma)

    def f(ell, tau):
        # precision to survive the trace cancellation at these coordinates
        extra = int(0.25 * deg * (abs(ell) + abs(tau))) + 20
        k = _bits(60 + extra)
        return _node_length(_chart_fixed(l1, ell, tau, k), gamma, k)
    return f


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


def _tau_measure(f, ell, L, K=None):
    """Lebesgue measure of {tau : f(ell, tau) <= L}.

    The length of every closed geodesic is strictly convex along a
    Fenchel-Nielsen twist (Wolpert, The Fenchel-Nielsen deformation, Ann.
    of Math. 115, 1982; Kerckhoff, The Nielsen realization problem, Ann. of
    Math. 117, 1983), so the sublevel set is one interval.  A symmetric
    shell [-T, T] is doubled until f > L at both ends and rises outward
    there (f(+-T) > f(+-T/2)), which by convexity puts the whole set
    inside; golden-section search for the minimum then looks for one tau
    with f <= L (the set is empty once the bracket is below 2^-20 T), and
    each end is bisected to float resolution.
    """
    def g(tau):
        return f(ell, tau)

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
        if b - a < T * 2.0 ** -20:
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

    def crossing(a, b):
        # from g(a) <= L < g(b), |b - a| < 2T, down to below T 2^-52
        for _ in range(53):
            m = 0.5 * (a + b)
            if g(m) <= L:
                a = m
            else:
                b = m
        return a

    return crossing(inside, T) - crossing(inside, -T)


def require_filling(gamma: str):
    gamma = cyclic_reduce(gamma)
    if is_peripheral_word(gamma):
        raise ValueError("gamma=%r is peripheral: length ball has infinite volume"
                         % gamma)
    if simple_power(gamma):
        raise ValueError(
            "gamma=%r is a power of a simple curve: not filling" % gamma)
    if curve_symmetry_order(gamma) == 0:
        raise ValueError(
            "gamma=%r has an infinite twist stabilizer: not filling" % gamma)
    return gamma


def ball_length_region_volume(gamma: str, L: float, l1: float = 0.0,
                              grid_n: int = 200) -> float:
    """FN-area of {(l,tau) : l_gamma <= L} divided by |Sym(gamma)|, i.e.
    the volume of a Sym-fundamental region of the length ball."""
    gamma = require_filling(gamma)
    f = _gamma_length_fn(gamma, l1)

    def w(e):
        return _tau_measure(f, e, L)

    # coarse bracket in ell: widths vanish for very short and very long ell
    ell = None
    for k in range(-12, 8):
        cand = 2.0 ** k
        if w(cand) > 0.0:
            ell = cand
            break
    if ell is None:
        return 0.0
    ell_lo = ell
    while ell_lo > 1e-8 and w(ell_lo * 0.5) > 0.0:
        ell_lo *= 0.5
    ell_hi = ell
    while ell_hi < 64 * L:
        if w(ell_hi * 2.0) == 0.0:
            break
        ell_hi *= 2.0
    else:
        raise ArithmeticError("length region unbounded in ell: gamma not filling")
    # refine the support endpoints by bisection
    lo_a, lo_b = ell_lo * 0.5, ell_lo
    for _ in range(20):
        m = 0.5 * (lo_a + lo_b)
        if w(m) == 0.0:
            lo_a = m
        else:
            lo_b = m
    hi_a, hi_b = ell_hi, ell_hi * 2.0
    for _ in range(20):
        m = 0.5 * (hi_a + hi_b)
        if w(m) == 0.0:
            hi_b = m
        else:
            hi_a = m
    ell_min, ell_max = lo_b, hi_a

    xs = np.linspace(ell_min, ell_max, grid_n)
    ws = np.array([w(float(e)) for e in xs])
    # trapezoid rule in numpy's own operation order; np.trapz is gone in
    # numpy 2.4 and np.trapezoid is absent before 2.0
    area = float((np.diff(xs) * (ws[1:] + ws[:-1]) / 2.0).sum())
    return area / curve_symmetry_order(gamma)


def ball_volume_and_average(gamma: str, L: float, mc_samples: int = 2000,
                            seed: int = 0, l1: float = 0.0,
                            grid_n: int = 200, prune_c: float = 1.5,
                            workers: int = 1):
    """(vol, avg, stderr): the FN-area of a Sym(gamma)-fundamental region of
    the length ball {l_gamma <= L}, and the Monte Carlo estimate of
    Integral over moduli of s_X(L, gamma) dX, which the unfolding identity
    makes equal; the contract is agreement within 3 standard errors.

    Moduli fundamental domain: coordinate curve is the shortest simple
    curve, twist in [0, l); samples are drawn with density proportional to
    l on the wedge below the maximal systole, each from its own
    counter-based RNG stream keyed by (seed, sample index) so the result is
    independent of worker scheduling.
    """
    if mc_samples < 1000:
        raise ValueError("mc_samples must be >= 1000")
    gamma = require_filling(gamma)
    vol = ball_length_region_volume(gamma, L, l1=l1, grid_n=grid_n)
    sym = curve_symmetry_order(gamma)

    idx = list(range(mc_samples))
    if workers > 1:
        from ._util import parallel_map
        vals = parallel_map(_mc_sample_value,
                            [(i, seed, gamma, L, l1, sym, prune_c) for i in idx],
                            workers)
    else:
        vals = [_mc_sample_value((i, seed, gamma, L, l1, sym, prune_c))
                for i in idx]
    vals = np.array(vals, dtype=float)
    region_area = SYSTOLE_TOP ** 2 / 2.0
    avg = region_area * float(np.mean(vals))
    stderr = region_area * float(np.std(vals, ddof=1)) / math.sqrt(mc_samples)
    return vol, avg, stderr


def _mc_sample_value(args):
    i, seed, gamma, L, l1, sym, prune_c = args
    rng = np.random.Generator(np.random.Philox(key=[seed, i]))
    u1, u2, u3 = rng.random(3)
    ell = SYSTOLE_TOP * max(u1, u2)  # density ~ ell on (0, top]
    tau = u3 * ell
    X = SurfacePoint(S11, (l1,), ell, tau)
    t = fricke_triple(X)
    # fundamental domain: the coordinate curve must be the systole
    xbound = 2.0 * math.cosh(ell / 2.0)
    shortest = min(tr for (_, tr) in simple_slopes(t, ell + 1e-6))
    if shortest < xbound * (1.0 - 1e-12):
        return 0.0
    # a sample whose pruning validation fails is rerun at the next larger
    # constant; the ladder depends on the sample alone, so results stay the
    # same across worker counts
    ladder = [prune_c] + [c for c in _MC_PRUNE_ESCALATION if c > prune_c]
    for c in ladder[:-1]:
        try:
            return len(_orbit_bfs((t.x, t.y, t.z), gamma, L, c)[0]) / sym
        except PruningError:
            pass
    return len(_orbit_bfs((t.x, t.y, t.z), gamma, L, ladder[-1])[0]) / sym
