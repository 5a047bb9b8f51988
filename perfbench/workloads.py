"""The benchmark's three workloads: seeded inputs, ops and output checks.

An op is one public estimator call, as a user would issue it, except the
twist line of twist-length (see VOLUME_DEFECT_L).  Every op succeeds at the
seed code; each workload's known_defects() reproduces, outside the batch,
the defects that kept other inputs out of it.  Ops look up
teichlab functions through their modules at call time, so the traced run's
wrappers see them.  Batch sizes scale with ``seconds`` so that a batch takes
about that long on a 2-core x86 box at the seed code; the batch for a given
(seed, seconds) is fixed, so a faster program finishes it sooner.

Each workload checks every op's output after the timed region against an
oracle that does not use the code path under test: mapping-class
invariance, a brute-force count, a dense grid, or a second estimator call
that must agree.
"""

from __future__ import annotations

import math
import random

import numpy as np

from teichlab import apl, fn_surface, fricke, markoff, orbit

# generator maps on trace triples (the orbit module's T, t, U, u), applied
# here to make moved inputs without calling the program
MOVES = {
    "T": lambda x, y, z: (x, z, x * z - y),
    "t": lambda x, y, z: (x, x * y - z, y),
    "U": lambda x, y, z: (z, y, y * z - x),
    "u": lambda x, y, z: (x * y - z, y, x),
}
_INVERSE = {"T": "t", "t": "T", "U": "u", "u": "U"}


def move(t, word):
    for g in word:
        t = MOVES[g](*t)
    return t


def reduced_word(rng, length):
    """A random freely reduced word of the given length in T, t, U, u."""
    w = ""
    while len(w) < length:
        g = rng.choice("TtUu")
        if not w or _INVERSE[g] != w[-1]:
            w += g
    return w


class Op:
    __slots__ = ("kind", "fn", "args", "kwargs", "ref")

    def __init__(self, kind, fn, *args, ref=None, **kwargs):
        self.kind = kind
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.ref = ref   # what the check compares against

    def __call__(self):
        return self.fn(*self.args, **self.kwargs)


def call(module, name, *args, **kwargs):
    return getattr(module, name)(*args, **kwargs)


# ---------------------------------------------------------------------------
# mc-orbit: the Monte Carlo side of the unfolding identity (criterion 11)

MC_GAMMA = "aabAb"
MC_L = 16.0
MC_PRUNE = 1.5
# At MC_PRUNE the pruning validation of count_orbit_word fails on samples
# deep in the thin part (ell ~ 0.01), where criterion 11 would raise.  A
# sample then reruns at larger prune constants, as the error asks, so every
# op gives a validated count; THIN_SAMPLE reproduces the failure beside the
# result (known_defects).
PRUNE_LADDER = (MC_PRUNE, 2.0, 3.0)
THIN_SAMPLE = (917568896, 4)
MC_OPS_PER_S = 10.0
MC_CHECKED = 4


def mc_draw(seed, i):
    """(ell, tau) of sample i, drawn as orbit._mc_sample_value draws it."""
    rng = np.random.Generator(np.random.Philox(key=[seed, i]))
    u1, u2, u3 = rng.random(3)
    ell = orbit.SYSTOLE_TOP * max(u1, u2)
    return float(ell), float(u3 * ell)


def mc_sample(ell, tau):
    """One sample: chart, fundamental-domain test, orbit count.

    Returns None when the sample falls outside the fundamental domain
    (the coordinate curve is not the systole), else the count report.
    """
    t = fn_surface.fricke_triple(
        fn_surface.SurfacePoint(fn_surface.S11, (0.0,), ell, tau))
    xbound = 2.0 * math.cosh(ell / 2.0)
    slopes = orbit.simple_slopes(t, ell + 1e-6)
    if min(tr for _, tr in slopes) < xbound * (1.0 - 1e-12):
        return None
    return mc_count((t.x, t.y, t.z))


def mc_count(X):
    """count_orbit_word at the first prune constant of PRUNE_LADDER whose
    pruning validation passes."""
    for c in PRUNE_LADDER:
        try:
            return orbit.count_orbit_word(X, MC_GAMMA, MC_L, prune_c=c)
        except ArithmeticError as e:
            if "pruning validation failed" not in str(e) or \
                    c == PRUNE_LADDER[-1]:
                raise


class McOrbit:
    name = "mc-orbit"

    def __init__(self, seed, seconds):
        self.seed = seed
        n = max(2, math.ceil(MC_OPS_PER_S * seconds))
        self.draws = [mc_draw(seed, i) for i in range(n)]
        rng = random.Random(seed)
        self.check_idx = set(rng.sample(range(n), min(n, 2 * MC_CHECKED)))
        self.check_moves = {i: rng.choice("TtUu") for i in self.check_idx}

    def warm_up(self):
        # one accepted sample from a stream the batch does not use; it pays
        # the single curve_symmetry_order search.  The stream does not depend
        # on the seed, so set-up is the same work on every seed
        i = 2 ** 32
        while mc_sample(*mc_draw(0, i)) is None:
            i += 1

    def ops(self):
        return [Op("mc_sample", mc_sample, ell, tau) for ell, tau in self.draws]

    def accept(self, outcomes):
        done = [o for o in outcomes if not isinstance(o, BaseException)]
        return len(done), sum(o is not None for o in done)

    def known_defects(self):
        ell, tau = mc_draw(*THIN_SAMPLE)
        t = fn_surface.fricke_triple(
            fn_surface.SurfacePoint(fn_surface.S11, (0.0,), ell, tau))
        try:
            got = orbit.count_orbit_word((t.x, t.y, t.z), MC_GAMMA, MC_L,
                                         prune_c=MC_PRUNE).counts
        except ArithmeticError as e:
            got = "raised ArithmeticError: %s" % e
        return {"count_orbit_word at prune_c=%g in the thin part" % MC_PRUNE: {
            "input": "sample %d of seed %d (ell=%.4g, tau=%.4g), %s, L=%g"
                     % (THIN_SAMPLE[1], THIN_SAMPLE[0], ell, tau, MC_GAMMA,
                        MC_L),
            "result": got,
            "reproduces": isinstance(got, str)
            and "pruning validation failed" in got}}

    def check(self, ops, outcomes):
        """A sample's count is unchanged when X is moved by one generator
        map, checked on a seeded subset of the accepted samples."""
        bad = {}
        moved = 0
        for i, out in enumerate(outcomes):
            if out is None or isinstance(out, BaseException):
                continue
            if i in self.check_idx and moved < MC_CHECKED:
                moved += 1
                t = move(out.X, self.check_moves[i])
                ref = mc_count(t)
                if ref.counts != out.counts:
                    bad[i] = "count %s, moved %s" % (out.counts, ref.counts)
        return bad


# ---------------------------------------------------------------------------
# orbit-count: counting-theorem battery (criteria 1, 8, 9, 10, 12)

BASES = [(3, 3, 3), (3, 4, 5), (4, 4, 4), (5, 5, 5)]
# (word, L, smaller L compared with the brute-force count); the words route
# through all three engines: triple-orbit, word-orbit and simple-slope
COUNT_WORDS = [
    ("aabAb", 12.0, 7.0),
    ("aabbAB", 10.0, None),
    ("abaB", 9.0, 6.0),
    ("aabAB", 7.0, None),
    ("aab", 24.0, None),
]
BRUTE_WORDS = ["aabAb", "abaB"]
SIMPLE_L = 40.0
# B(X) is an adaptive-Simpson integral of Farey-walk length rates; values at
# a moved triple differ from the base value by ~1e-5 relative from that
# quadrature alone
B_RTOL = 1e-4
CONE_L = 30.0
OC_ROUNDS_PER_S = 0.6
# At the seed code, count_orbit_word at a triple moved by three generators
# can disagree with the count at the base triple, or raise a pruning error:
# the symmetry search and the pruned BFS start from X and miss part of the
# orbit when X is far from its base.  Every op of a workload must succeed,
# so moves stop at two generators (no mismatch over all moves of length 1
# and 2 at every base and word), and FAR_MOVE reproduces the defect beside
# the result instead (known_defects).
MAX_MOVE = 2
FAR_MOVE = ((3, 3, 3), "ttt", "aabAb", 12.0, [7.0, 12.0])


class OrbitCount:
    name = "orbit-count"

    def __init__(self, seed, seconds):
        rng = random.Random(seed)
        self.rounds = []
        for r in range(max(1, round(OC_ROUNDS_PER_S * seconds))):
            # bases and move lengths follow a fixed pattern, so only the
            # letters of the moves depend on the seed.  Each count word has
            # a triple of its own, so the batch's cost and its tail average
            # over many moved triples; the rest of the round uses the first
            base = BASES[r % len(BASES)]
            lengths = [1 + (r // len(BASES) + j) % MAX_MOVE
                       for j in range(len(COUNT_WORDS))]
            self.rounds.append({
                "base": base,
                "X": [move(base, reduced_word(rng, n)) for n in lengths],
                "brute": BRUTE_WORDS[(r // len(BASES)) % len(BRUTE_WORDS)],
                # four cone indices per triple, as criterion 12 uses
                "cone_m": rng.sample(range(-2, 4), 4),
                "markoff": (int(10 ** rng.uniform(3.0, 4.0)),
                            rng.choice(["unordered", "ordered"])),
            })

    def warm_up(self):
        # per-word caches stay cold: the first count of each word pays its
        # symmetry search, as it does in every `teichlab count-word` process
        pass

    def ops(self):
        out = []
        for rd in self.rounds:
            X, base = rd["X"][0], rd["base"]
            for (w, L, Ls), Xw in zip(COUNT_WORDS, rd["X"]):
                grid = (Ls, L) if Ls else None
                out.append(Op("count_orbit_word", call, orbit,
                              "count_orbit_word", Xw, w, L,
                              grid=grid and list(grid),
                              ref=("base", base, w, L, grid)))
            w, L, Ls = next(c for c in COUNT_WORDS if c[0] == rd["brute"])
            out.append(Op("count_orbit_word_bruteforce", call, orbit,
                          "count_orbit_word_bruteforce", base, w, Ls,
                          ref=("brute", base, w, L, (Ls, L))))
            out.append(Op("count_simple", call, orbit, "count_simple", X,
                          SIMPLE_L, ref=("simple", base)))
            out.append(Op("thurston_ball_B", call, orbit, "thurston_ball_B",
                          X, ref=("B", base)))
            first_cone = len(out)
            for m in rd["cone_m"]:
                out.append(Op("cone_count", call, orbit, "cone_count", X, m,
                              CONE_L, ref=("cone", first_cone)))
            b, ordering = rd["markoff"]
            out.append(Op("enumerate_count", call, markoff, "enumerate_count",
                          b, ordering=ordering, ref=("markoff", b, ordering)))
        return out

    def accept(self, outcomes):
        return None

    def known_defects(self):
        base, mv, w, L, grid = FAR_MOVE
        want = orbit.count_orbit_word(base, w, L, grid=grid).counts
        try:
            got = orbit.count_orbit_word(move(base, mv), w, L,
                                         grid=grid).counts
        except Exception as e:
            got = "raised %s: %s" % (type(e).__name__, e)
        return {"count_orbit_word at a triple moved by three generators": {
            "input": "%s moved by %s, %s, grid %s" % (base, mv, w, grid),
            "counts": got, "at_base": want, "reproduces": got != want}}

    def check(self, ops, outcomes):
        """Counts and B(X) at a moved triple equal those at its base triple
        (mapping classes leave them invariant); the brute-force count equals
        the orbit count at the smaller grid L, both at the base triple
        (criterion 10); cone counts agree across m (criterion 12); Markoff
        counts equal the quadratic scan (criterion 1)."""
        memo = {}

        def at_base(kind, base, *rest):
            key = (kind, base) + rest
            if key not in memo:
                if kind == "base":
                    w, L, grid = rest
                    memo[key] = orbit.count_orbit_word(
                        base, w, L, grid=grid and list(grid)).counts
                elif kind == "simple":
                    memo[key] = orbit.count_simple(base, SIMPLE_L)
                else:
                    memo[key] = orbit.thurston_ball_B(base)
            return memo[key]

        top = max(o.ref[1] for o in ops if o.ref[0] == "markoff")
        triples = markoff.brute_force_triples(top)
        bad = {}
        for i, (op, out) in enumerate(zip(ops, outcomes)):
            if isinstance(out, BaseException):
                continue
            kind = op.ref[0]
            if kind == "base":
                want = at_base(*op.ref)
                ok = out.counts == want
            elif kind == "brute":
                want = at_base("base", *op.ref[1:])[0]
                ok = out == want
            elif kind == "simple":
                want = at_base(*op.ref)
                ok = out == want
            elif kind == "B":
                want = at_base(*op.ref)
                ok = abs(out - want) <= B_RTOL * abs(want)
            elif kind == "cone":
                want = outcomes[op.ref[1]]
                ok = out == want
            else:
                _, b, ordering = op.ref
                want = sum(markoff_perms(s) if ordering == "ordered" else 1
                           for s in triples if s[2] <= b)
                ok = out == want
            if not ok:
                bad[i] = "%s: got %s, oracle %s" % (
                    op.kind, getattr(out, "counts", out), want)
        return bad


def markoff_perms(s):
    """Distinct coordinate orders of a triple."""
    return {1: 1, 2: 3, 3: 6}[len(set(s))]


# ---------------------------------------------------------------------------
# twist-length: the (ell, tau) -> triple chart plus node lengths

TWIST_GAMMA = "aabAb"
# twist lines at ell across the length ball's ell-support for each L in
# TWIST_L
TWIST_ELL = (0.5, 6.0)
TWIST_L = (7.5, 8.0, 8.5, 9.0)
LINES_PER_S = 17.0
TWIST_CHECKED = 3
# midpoint grid of the twist-line oracle: spacing and half-width (the
# sublevel sets at these ell and L lie within |tau| < 6)
GRID_H = 0.02
GRID_T = 16.0
# ball_length_region_volume does its integration work and then raises on
# numpy 2 (np.trapz, ROADMAP P0), so it cannot be an op; the workload times
# its twist lines instead, and this call reproduces the defect beside the
# result (the smallest L found whose ell-support is not empty, for speed)
VOLUME_DEFECT_L = 5.8
APL_WORDS = ["aab", "abaB", "aabAb"]
RADII = [5.0 * 10 ** (2.0 * i / 7.0) for i in range(8)]
RAYS_PER_WORD_PER_S = 7.0
WALL_MARGIN = 0.15


def twist_measure(gamma, ell, L):
    """One twist line of the length ball: the measure of
    {tau : l_gamma(ell, tau) <= L}, as ball_length_region_volume integrates
    it over ell."""
    f = orbit._gamma_length_fn(gamma, 0.0)
    return orbit._tau_measure(f, ell, L, orbit._twist_lipschitz(gamma))


def float_length(gamma, ell, tau):
    """l_gamma from the float chart of fn_surface and the trace reduction of
    fricke: a second path to the value the twist lines evaluate."""
    t = fn_surface.fricke_triple(
        fn_surface.SurfacePoint(fn_surface.S11, (0.0,), ell, tau))
    tr = fricke.trace_word_fricke((t.x, t.y, t.z), gamma)
    return 2.0 * math.acosh(abs(tr) / 2.0)


def grid_measure(gamma, ell, L):
    """(measure, threshold crossings, edge values) of the sublevel set on
    a midpoint grid over [-GRID_T, GRID_T]."""
    f = orbit._gamma_length_fn(gamma, 0.0)
    n = round(2.0 * GRID_T / GRID_H)
    inside = [f(ell, -GRID_T + GRID_H * (k + 0.5)) <= L for k in range(n)]
    crossings = sum(a != b for a, b in zip(inside, inside[1:]))
    return GRID_H * sum(inside), crossings, (inside[0], inside[-1])


def allowed(walls, lo=-2.3, hi=2.3):
    """[lo, hi] minus WALL_MARGIN around each wall, as sorted intervals."""
    out, a = [], lo
    for w in sorted(walls):
        if w - WALL_MARGIN > a:
            out.append((a, min(w - WALL_MARGIN, hi)))
        a = max(a, w + WALL_MARGIN)
    if a < hi:
        out.append((a, hi))
    return [(a, b) for a, b in out if b > a]


def point_at(intervals, s):
    """The point at distance s into the union of the intervals."""
    for a, b in intervals:
        if s < b - a:
            return a + s
        s -= b - a
    return intervals[-1][1]


class TwistLength:
    name = "twist-length"

    def __init__(self, seed, seconds):
        self.rng = random.Random(seed)
        # ell is stratified over TWIST_ELL, as the region-volume grid is
        # spread over the ell-support, and L cycles through TWIST_L, so the
        # number of costly lines near the edge of the support, and so the
        # batch time and its tail, vary little from seed to seed
        n = max(1, round(LINES_PER_S * seconds))
        lo, hi = TWIST_ELL
        self.lines = [(lo + (hi - lo) * (k + self.rng.random()) / n,
                       TWIST_L[k % len(TWIST_L)]) for k in range(n)]
        self.check_idx = set(self.rng.sample(range(n), min(n, TWIST_CHECKED)))
        self.n_rays = max(1, round(RAYS_PER_WORD_PER_S * seconds))
        self.rays = None

    def warm_up(self):
        # rays are seeded as criterion 13 seeds them, direction (1, u) with u
        # uniform on [-2.3, 2.3] minus WALL_MARGIN around the walls of a
        # grid-64 scan; u is stratified so the mix of ray costs, and so the
        # batch time, varies little from seed to seed
        self.rays = []
        for w in APL_WORDS:
            free = allowed(s.u_mid for s in apl.wall_scan(w).walls)
            width = sum(b - a for a, b in free)
            for k in range(self.n_rays):
                u = point_at(free, width * (k + self.rng.random()) / self.n_rays)
                x0 = (self.rng.uniform(0.0, 1.0), self.rng.uniform(-1.0, 1.0))
                self.rays.append((w, x0, (1.0, u)))

    def ops(self):
        out = [Op("twist_measure", twist_measure, TWIST_GAMMA, ell, L,
                  ref=("line", i in self.check_idx))
               for i, (ell, L) in enumerate(self.lines)]
        for w in APL_WORDS:
            first = len(out)
            for n in (64, 128):
                out.append(Op("wall_scan", call, apl, "wall_scan", w,
                              grid_n=n, ref=("walls", first)))
        out += [Op("ray_fit", call, apl, "ray_fit", w, x0, d, RADII,
                   ref=("ray",)) for w, x0, d in self.rays]
        return out

    def accept(self, outcomes):
        return None

    def known_defects(self):
        try:
            got = orbit.ball_length_region_volume(TWIST_GAMMA, VOLUME_DEFECT_L,
                                                  grid_n=2)
            shows = False
        except Exception as e:
            got = "raised %s: %s" % (type(e).__name__, e)
            shows = isinstance(e, AttributeError) and "trapz" in str(e)
        return {"ball_length_region_volume on numpy 2": {
            "input": "%s, L=%g, grid_n=2" % (TWIST_GAMMA, VOLUME_DEFECT_L),
            "result": got, "reproduces": shows}}

    def check(self, ops, outcomes):
        """Ray-fit gradients snap to small-denominator rationals; wall
        counts agree at grid_n 64 and 128; twist-line measures are finite
        and non-negative, and on a seeded subset they agree with a midpoint
        grid to within one grid step and one subdivision tolerance per
        threshold crossing, with lengths at three points of the line
        matching the float chart and trace reduction."""
        bad = {}
        for i, (op, out) in enumerate(zip(ops, outcomes)):
            if isinstance(out, BaseException):
                continue
            kind = op.ref[0]
            if kind == "ray":
                r = out.rational
                if not (r["grad_ell"]["ok"] and r["grad_tau"]["ok"]):
                    bad[i] = "gradient %s not rational" % (out.gradient,)
            elif kind == "walls":
                first = outcomes[op.ref[1]]
                if isinstance(first, BaseException) or \
                        first.wall_count != out.wall_count:
                    bad[i] = "wall count %d, other grid %s" % (
                        out.wall_count, getattr(first, "wall_count", first))
            elif not (math.isfinite(out) and out >= 0.0):
                bad[i] = "twist measure %r" % (out,)
            elif op.ref[1]:
                gamma, ell, L = op.args
                want, crossings, edges = grid_measure(gamma, ell, L)
                tol = (crossings + 1) * (GRID_H + 1e-3 * max(1.0, ell))
                f = orbit._gamma_length_fn(gamma, 0.0)
                worst = max(abs(f(ell, tau) - float_length(gamma, ell, tau))
                            / float_length(gamma, ell, tau)
                            for tau in (-4.0, -0.5, 3.0))
                if any(edges) or abs(out - want) > tol or worst > 1e-9:
                    bad[i] = ("twist measure %r, grid %r (tol %.3g, grid "
                              "edges inside %s), length rel. error %.2e"
                              % (out, want, tol, edges, worst))
        return bad


WORKLOADS = {w.name: w for w in (McOrbit, OrbitCount, TwistLength)}
