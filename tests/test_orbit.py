"""Mapping-class orbit counting: simple curves, general words, volumes."""

import collections
import itertools
import json
import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from teichlab import farey
from teichlab import fn_surface as fs
from teichlab import orbit as ob
from teichlab.fn_surface import S11, SurfacePoint, fricke_triple
from teichlab.fricke import (_plan_eval_bounded, _plan_eval_fixed,
                             _trace_length, _trace_plan, canonical_cyclic,
                             is_peripheral_word, length_trace, reduce_word,
                             trace_word_fricke)


MODULAR = (3.0, 3.0, 3.0)
GENERIC = (3.2, 3.5, 4.1)
# the generator maps on triples, written out apart from the module's
# fixed-point ones
MOVES = {"T": lambda x, y, z: (x, z, x * z - y),
         "t": lambda x, y, z: (x, x * y - z, y),
         "U": lambda x, y, z: (z, y, y * z - x),
         "u": lambda x, y, z: (x * y - z, y, x)}
INVERSE = {"T": "t", "t": "T", "U": "u", "u": "U"}


def moved(t, word):
    for g in word:
        t = MOVES[g](*t)
    return t


def node_lengths(ts, gamma, k):
    """l_gamma at each of the triples ts of ints scaled by 2^k (k = 0:
    exact), from one pass of the trace plan over them."""
    trs = _plan_eval_fixed(_trace_plan(gamma),
                           *([t[i] for t in ts] for i in range(3)), k)
    return [_trace_length(tr, k, gamma) for tr in trs]


def node_length(t, gamma, k):
    """l_gamma at a triple of ints scaled by 2^k (k = 0: exact)."""
    return node_lengths([t], gamma, k)[0]


def fixed_moved(t, word, k):
    """The module's fixed-point maps applied along word."""
    for g in word:
        t = ob._images(t, k)[ob.GENS.index(g)]
    return t


class TestSimpleCounting:
    def test_modular_systole_count(self):
        # systole 2 arccosh(3/2) ~ 1.9248; the three trace-3 slopes realize it
        sys_len = 2.0 * math.acosh(1.5)
        assert ob.count_simple(MODULAR, sys_len + 1e-6) == 3
        assert ob.count_simple(MODULAR, sys_len - 1e-6) == 0

    def test_slopes_sorted_unique(self):
        slopes = ob.simple_slopes(GENERIC, 12.0)
        keys = [s for (s, _) in slopes]
        assert len(keys) == len(set(keys))
        bound = 2.0 * math.cosh(6.0)
        assert all(tr <= bound for (_, tr) in slopes)

    def test_quadratic_growth(self):
        c1 = ob.count_simple(GENERIC, 25.0)
        c2 = ob.count_simple(GENERIC, 50.0)
        assert 3.5 <= c2 / c1 <= 4.5

    def test_brute_force_small(self, slope_trace):
        assert_matches_box(slope_trace, GENERIC, 8.0, 60, 60)

    def test_brute_force_far_moved(self, slope_trace):
        # (567, 52, 29473): the descent to the minimal triangle is 4 flips
        assert_matches_box(slope_trace, moved((3, 4, 5), "TUTU"), 12.0, 40, 40)

    def test_brute_force_thin_part(self, slope_trace):
        # MC draw 4 of seed 917568896: the coordinate curve has l ~ 0.0097,
        # and 1098 slopes up to |p| = 549 lie within L = 16 of it
        ell, tau = mc_draw(917568896, 4)
        assert ell == pytest.approx(0.0097289, rel=1e-4)
        t = fricke_triple(SurfacePoint(S11, (0.0,), ell, tau))
        got = assert_matches_box(slope_trace, (t.x, t.y, t.z), 16.0, 700, 2)
        assert len(got) == 1098

    def test_tie_at_minimal_triangle(self):
        # at (4, 8, 4) the flip of the largest vertex gives the same trace
        # 8, and the first child of the walk equals its opposite vertex;
        # the counts are the ones at the permutation (4, 4, 8)
        perms = list(itertools.permutations((4, 4, 8)))
        for L in (6.0, 20.0):
            assert len({ob.count_simple(X, L) for X in perms}) == 1, L
        assert {ob.cone_count(X, 1, 20.0) for X in perms} == {25}

    def test_trace_bound_beyond_float_range(self, slope_trace):
        # at a float X the bound 2 cosh(L/2) scaled by 2^64 leaves the float
        # range from L ~ 1331; 2 cosh(L/2) itself leaves it past L ~ 1419.57
        got = assert_matches_box(slope_trace, (12345.5,) * 3, 1340.0, 75, 75)
        assert len(got) == ob.count_simple((12345.5,) * 3, 1340.0) == 4692
        for f in (ob.count_simple, lambda X, L: ob.cone_count(X, 0, L)):
            with pytest.raises(ValueError, match="at most 1419.5654"):
                f(MODULAR, 2000.0)

    @pytest.mark.parametrize("X", [GENERIC, (3, 4, 5)])
    @pytest.mark.parametrize("L", [2000.0, 2e307, 1e308])
    def test_count_rejects_L_past_trace_bound(self, X, L):
        # L is checked before any precision is sized from it: at a float X
        # the count once sized k from L = 1e10 to ~6e10 bits, and raised
        # OverflowError from L ~ 2e307 on
        for f in (ob.count_orbit_word, ob.count_orbit_word_bruteforce):
            with pytest.raises(ValueError, match="at most 1419.5654"):
                f(X, "aabAb", L)


def mc_draw(seed, i):
    """(ell, tau) of MC sample i of seed, as orbit._mc_sample_value draws."""
    rng = np.random.Generator(np.random.Philox(key=[seed, i]))
    u1, u2, u3 = rng.random(3)
    ell = ob.SYSTOLE_TOP * max(u1, u2)
    return ell, u3 * ell


def assert_matches_box(slope_trace, X, L, pmax, qmax):
    """simple_slopes(X, L) against the exact traces (Fractions of the
    coordinates, by the slope_trace fixture) of every primitive slope in
    |p| <= pmax, 0 <= q <= qmax; the box must strictly contain the
    returned slopes."""
    bound = Fraction(2.0 * math.cosh(L / 2.0))
    exact = tuple(Fraction(v) for v in X)
    memo = {}
    want = {}
    for p in range(-pmax, pmax + 1):
        for q in range(0, qmax + 1):
            if (q == 0 and p <= 0) or math.gcd(p, q) != 1:
                continue
            tr = abs(slope_trace(exact, (p, q), memo))
            if tr <= bound:
                want[(p, q)] = tr
    got = dict(ob.simple_slopes(X, L))
    assert sorted(got) == sorted(want)
    assert all(abs(p) < pmax and q < qmax for (p, q) in got)
    for s, tr in got.items():
        if all(isinstance(v, int) for v in X):
            assert tr == want[s], s
        else:
            assert tr == pytest.approx(float(want[s]), rel=1e-14), s
    return got


class TestWordClassification:
    def test_simple_power(self):
        assert ob.simple_power("a") == 1
        assert ob.simple_power("aa") == 2
        assert ob.simple_power("abab") == 2
        assert ob.simple_power("abaB") == 0

    def test_peripheral(self):
        assert is_peripheral_word("abAB")
        assert not is_peripheral_word("ab")

    def test_symmetry_order_infinite_for_nonfilling(self):
        # tr(abaB) = x^2 + 2 is twist invariant: infinite stabilizer
        assert ob.curve_symmetry_order("abaB") == 0
        assert ob.curve_symmetry_order("aabb") == 0

    def test_symmetry_order_finite_for_filling(self):
        # aabbAABB is fixed by S (a -> b, b -> A); an element of order 3
        # fixes the other four (TestShortWords pins a count of aaBABAbb)
        assert ob.curve_symmetry_order("aabAb") == 1
        assert ob.curve_symmetry_order("aabbAABB") == 2
        for w in ("aaBABAbb", "aaBBAbAb", "aabAbABB", "aabbABAB"):
            assert ob.curve_symmetry_order(w) == 3, w
        assert ob.curve_symmetry_order("abaB") == 0
        assert ob.curve_symmetry_order("aabAB") == 0
        assert ob.curve_symmetry_order("aabbAB") == 1
        assert ob._orbit_rep("aabbAB")[1] == 2

    def test_require_filling(self):
        with pytest.raises(ValueError):
            ob.require_filling("a")
        with pytest.raises(ValueError):
            ob.require_filling("abAB")
        with pytest.raises(ValueError):
            ob.require_filling("abaB")
        ob.require_filling("aabAb")


class TestOrbitCount:
    @pytest.mark.parametrize("gamma", ["abaB", "aabAb"])
    def test_matches_brute_force(self, gamma):
        for X in (MODULAR, GENERIC):
            for L in [6.0, 9.0]:
                rep = ob.count_orbit_word(X, gamma, L)
                brute = ob.count_orbit_word_bruteforce(X, gamma, L)
                assert rep.counts[-1] == brute
                assert rep.prune_violations == 0

    @pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf])
    def test_length_bound_rejected(self, L):
        # L = 0 divided by zero in the normalized counts and nan failed
        # deep in the fixed-point search; the Farey walk takes L = 0, and
        # at a negative L counted the slopes of length <= |L| (cosh is even)
        for f in (ob.count_orbit_word, ob.count_orbit_word_bruteforce):
            with pytest.raises(ValueError, match="L="):
                f(MODULAR, "aabAb", L)
        if L == 0:
            assert ob.count_simple(GENERIC, L) == 0
        else:
            with pytest.raises(ValueError, match="L="):
                ob.count_simple(GENERIC, L)

    @pytest.mark.parametrize("gamma", ["", "aA", "abAB"])
    def test_peripheral_word_rejected(self, gamma):
        # the empty class and the boundary are not counted, by the engine or
        # by its oracle (which raised IndexError or counted 1 before)
        for f in (ob.count_orbit_word, ob.count_orbit_word_bruteforce):
            with pytest.raises(ValueError, match="peripheral"):
                f(MODULAR, gamma, 9.0)

    def test_simple_word_via_slopes(self):
        L = 10.0
        rep = ob.count_orbit_word(GENERIC, "a", L)
        assert rep.counts[-1] == ob.count_simple(GENERIC, L)

    def test_power_rescales_length(self):
        L = 10.0
        rep = ob.count_orbit_word(GENERIC, "aa", L)
        assert rep.counts[-1] == ob.count_simple(GENERIC, L / 2.0)

    def test_report_json_round_trip(self):
        rep = ob.count_orbit_word(MODULAR, "aabAb", 8.0)
        assert json.loads(rep.to_json()) == {**vars(rep), "X": list(rep.X)}

    def test_far_moved_triple_counts_as_base(self):
        # (3, 39, 15) is (3, 3, 3) moved by t^3; |Aut| = 3 at both, so the
        # counts agree only when the symmetry search finds all of Aut there
        base = ob.count_orbit_word((3, 3, 3), "aabAb", 12.0, grid=[7, 12])
        far = ob.count_orbit_word((3, 39, 15), "aabAb", 12.0, grid=[7, 12])
        assert far.aut_order == base.aut_order == 3
        assert far.counts == base.counts == [12, 48]
        # (87, 6, 15) is (3, 3, 3) moved by tuu; abaB has infinite symmetry,
        # so the twist families count it at its T-fixed representative,
        # one node per slope of the walk from the far triple
        assert moved((3, 3, 3), "tuu") == (87, 6, 15)
        base = ob.count_orbit_word((3, 3, 3), "abaB", 9.0)
        far = ob.count_orbit_word((87, 6, 15), "abaB", 9.0)
        assert far.counts == base.counts == [0, 3, 6]

    @pytest.mark.parametrize("base", [(3, 3, 3), (3, 4, 5)])
    def test_word_orbit_invariant_under_moves(self, base):
        # mapping classes leave the counts unchanged: every freely reduced
        # move by three generators (aabAB: infinite Sym and iota = 2)
        for gamma in ("abaB", "aabAB"):
            want = ob.count_orbit_word(base, gamma, 9.0).counts
            for w in itertools.product("TtUu", repeat=3):
                if INVERSE[w[0]] == w[1] or INVERSE[w[1]] == w[2]:
                    continue
                got = ob.count_orbit_word(moved(base, w), gamma, 9.0).counts
                assert got == want, (gamma, "".join(w))

    def test_marked_count_relation(self):
        rep = ob.count_orbit_word(MODULAR, "aabAb", 10.0)
        assert rep.sym_order >= 1
        assert rep.a3 == rep.sym_order * rep.a1


def ball_aut_order(X, radius=6, tol=1e-9):
    """The oracle of point_symmetry_order: the mapping classes in a
    generator ball around the reduced triple of the orbit of X that fix
    it."""
    root, _, k = ob._point(X)
    ident = (1, 0, 0, 1)
    seen = {ident}
    frontier = [(ident, root)]
    aut = 1
    scale = max(abs(v) for v in root)
    for _ in range(radius):
        nxt = []
        for (m, t) in frontier:
            for g, t2 in zip(ob.GENS, ob._images(t, k)):
                m2 = ob._mat_mul(m, ob._GEN_MATS[g], 0)
                m2 = max(m2, tuple(-e for e in m2))  # its class in PSL(2,Z)
                if m2 in seen:
                    continue
                seen.add(m2)
                nxt.append((m2, t2))
                if max(abs(a - b) for a, b in zip(t2, root)) <= tol * scale:
                    aut += 1
        frontier = nxt
    return aut


class TestPointSymmetry:
    # six bases moved by seven words (the float moves of (3.3, 3.3, 3.3)
    # round, so its automorphisms match only within the tolerance), then
    # GENERIC and a triple with |Aut| = 2
    TRIPLES = [moved(base, w)
               for base in [(3, 3, 3), (3, 4, 5), (4, 4, 4), (6, 6, 6),
                            (3, 6, 15), (3.3, 3.3, 3.3)]
               for w in ["", "T", "u", "tU", "UUt", "tuT", "TTTu"]] + \
        [GENERIC, (4, 4, 8)]

    @pytest.mark.parametrize("X", TRIPLES)
    def test_matches_generator_ball(self, X):
        assert ob.point_symmetry_order(X) == ball_aut_order(X)

    def test_even_sign_flip(self):
        # X and its even sign flips are one hyperbolic surface
        for X in [(3, 3, 3), (3, 6, 15), GENERIC]:
            x, y, z = X
            assert ob.point_symmetry_order((-x, -y, z)) == \
                ob.point_symmetry_order((x, -y, -z)) == \
                ob.point_symmetry_order(X)

    def test_every_small_integral_triple(self):
        # every reduced integral torus triple x <= y <= z <= 12 (2z <= xy,
        # x^2 + y^2 + z^2 <= xyz) against the generator ball, as it is and
        # moved: x = y = z has order 3 and (4, 4, 8) (x = y, 2z = xy) order 2
        triples = [(x, y, z) for x in range(3, 13) for y in range(x, 13)
                   for z in range(y, 13)
                   if 2 * z <= x * y and x * x + y * y + z * z <= x * y * z]
        assert len(triples) == 190
        orders = []
        for X in triples:
            orders.append(ball_aut_order(X))
            for w in ["", "T", "tU", "UUt"]:
                assert ob.point_symmetry_order(moved(X, w)) == orders[-1], \
                    (X, w)
        assert [orders.count(n) for n in (1, 2, 3)] == [179, 1, 10]

    @pytest.mark.parametrize("l1", [2.0, 4.0])
    def test_equilateral_with_boundary(self, l1):
        # x = 1 + 2 cosh(l1/6), the torus of maximal systole at boundary
        # length l1 (TestMonteCarlo), is the hexagonal one
        x = 1.0 + 2.0 * math.cosh(l1 / 6.0)
        for w in ["", "T", "tU", "UUt"]:
            assert ob.point_symmetry_order(moved((x, x, x), w)) == 3, w

    def test_walks(self, monkeypatch):
        # |Aut| is read off the canonical triple with no Farey walk, so the
        # cone count walks once
        walks = []
        walk = ob._farey_walk

        def spy(*args):
            walks.append(args)
            return walk(*args)
        monkeypatch.setattr(ob, "_farey_walk", spy)
        for X in [(3, 3, 3), (4, 4, 8), (3, 4, 5), GENERIC, (3.3, 3.3, 3.3),
                  (3.3, 3.3, 5.445)]:
            walks.clear()
            ob.point_symmetry_order(X)
            assert not walks, X
            ob.cone_count(X, 0, 30.0)
            assert len(walks) == 1, X


def count_conversions(monkeypatch):
    """A list that gets one entry for each _fixed_root call made from now
    on: each conversion of a triple to fixed point."""
    calls = []
    root = ob._fixed_root

    def spy(*args):
        calls.append(args)
        return root(*args)
    monkeypatch.setattr(ob, "_fixed_root", spy)
    return calls


class TestOnePoint:
    @pytest.mark.parametrize("X", [GENERIC, (3, 4, 5)])
    @pytest.mark.parametrize("call", [
        lambda X: ob.count_orbit_word(X, "aabAb", 9.0),
        lambda X: ob.count_orbit_word(X, "aab", 9.0),
        lambda X: ob.cone_count(X, 0, 20.0),
        ob.thurston_ball_B,
        ob.point_symmetry_order,
        lambda X: ob.count_orbit_word_bruteforce(X, "aabAb", 6.0)])
    def test_one_conversion_per_call(self, X, call, monkeypatch):
        # each entry point converts and reduces X once (_point) and passes
        # the point on to its walks, its |Aut| and its count
        calls = count_conversions(monkeypatch)
        call(X)
        assert len(calls) == 1

    @pytest.mark.parametrize("args, accepted", [
        ((54, 1, "aabAb", 16.0, 0.0, 1), True),
        ((41, 0, "aabAb", 16.0, 0.0, 1), False)])
    def test_one_conversion_per_mc_draw(self, args, accepted, monkeypatch):
        # the fundamental-domain test and the count share the draw's point
        calls = count_conversions(monkeypatch)
        assert (ob._mc_sample_value(args) > 0) == accepted
        assert len(calls) == 1

    @pytest.mark.parametrize("X", [(3, 3, 3), (4, 4, 8), GENERIC,
                                   (3.3, 3.3, 3.3), (3.3, 3.3, 5.445)])
    def test_point_is_reduced_with_its_basis(self, X, slope_trace):
        # the node is the minimal triangle's traces (tr sa, tr sb,
        # tr(sa + sb)), a reduced triple x <= y <= z <= xy/2 once sorted,
        # and the basis (sa, sb) spans it in the marking of X
        for w in ["", "T", "tU", "UUt"]:
            Y = moved(X, w)
            node, (sa, sb), k = ob._point(Y)
            x, y, z = sorted(node)
            assert x * y >> k >= 2 * z - ob._aut_tol(x * y >> k, k)
            assert sa[0] * sb[1] - sa[1] * sb[0] == 1
            want = [slope_trace(Y, s) for s in
                    (sa, sb, (sa[0] + sb[0], sa[1] + sb[1]))]
            got = [v / (1 << k) if k else v for v in node]
            assert got == pytest.approx(want, rel=1e-12), w


def short_words(n):
    """The canonical words of length <= n that are neither peripheral nor
    powers of a simple curve."""
    words = set()
    for m in range(1, n + 1):
        for w in map("".join, itertools.product("abAB", repeat=m)):
            if canonical_cyclic(w) == w and not is_peripheral_word(w) \
                    and not ob.simple_power(w):
                words.add(w)
    return sorted(words, key=lambda w: (len(w), w))


class TestShortWords:
    @pytest.mark.parametrize("X, L", [(MODULAR, 8.0), (GENERIC, 10.0)])
    def test_every_short_word_matches_brute_force(self, X, L):
        # one engine for every non-simple word: the twist families at the
        # orbit representative, infinite Sym included
        words = short_words(6)
        assert len(words) == 74
        assert sum(ob.curve_symmetry_order(w) == 0 for w in words) == 36
        bad = {}
        for w in words:
            got = ob.count_orbit_word(X, w, L).counts[-1]
            want = ob.count_orbit_word_bruteforce(X, w, L)
            if got != want:
                bad[w] = (got, want)
        assert not bad

    @pytest.mark.parametrize("X, gamma, L, want", [
        # -I maps aabbAB to another curve: the families count half the orbit
        (MODULAR, "aabbAB", 9.0, 36),
        # in the orbit of aabAb; counted at aabbabb itself, the families of
        # slopes longer than L hold curves of length <= L
        (GENERIC, "aabbabb", 9.0, 10),
        (GENERIC, "ababAb", 10.0, 14),
        # |Sym| = 3 and iota = 2: 12 PSL(2,Z) classes make 2 * 12 / 3
        # curves (|Sym| = 1 in a search ball of radius 8 counted 24)
        (MODULAR, "aaBABAbb", 12.0, 8)])
    def test_pinned_counts(self, X, gamma, L, want):
        assert ob.count_orbit_word(X, gamma, L).counts[-1] == want
        assert ob.count_orbit_word_bruteforce(X, gamma, L) == want

    def test_representative(self):
        # the image crossing a least; for infinite Sym one fixed by T
        assert ob._orbit_rep("aabbabb") == ("aaBAB", 1)
        assert ob._orbit_rep("aabbAB") == ("aabbAB", 2)
        for w, iota in (("abaB", 1), ("aabAB", 2)):
            assert ob._orbit_rep(w) == (w, iota)
            tw = reduce_word(w.translate(ob._AUTOS["T"]))
            assert canonical_cyclic(tw) == w


def pushed(gamma, phi):
    """The canonical class of gamma moved by the substitutions of phi."""
    for g in phi:
        gamma = reduce_word(gamma.translate(ob._AUTOS[g]))
    return canonical_cyclic(gamma)


class TestPushInvariance:
    # words of 12 to 1224 letters; a generator ball of radius 8 around the
    # pushed word missed the symmetry of aabbAABB ([0, 0, 6]) and, from
    # (TU)^5 on, the shortest images of aabAb ([3, 24, 36] at (3, 3, 3)).
    # A power of one twist descends by doubling powers.
    PUSHES = ["TUTU", "TU" * 3, "TU" * 4, "TU" * 5, "TTUU" * 3, "TU" * 6,
              "TuTTUtuTTUtU", "T" * 40, "u" * 40]

    @pytest.mark.parametrize("X, gamma, want", [
        (MODULAR, "aabAb", [3, 24, 48]),
        (MODULAR, "aabbAABB", [0, 0, 3]),
        (MODULAR, "aabbAB", [0, 36, 96]),
        (GENERIC, "aabAb", [0, 10, 28]),
        (GENERIC, "aabbAABB", [0, 0, 0]),
        (GENERIC, "aabbAB", [0, 0, 28]),
    ])
    def test_counts(self, X, gamma, want):
        base = ob.count_orbit_word(X, gamma, 12.0, grid=[6, 9, 12])
        assert base.counts == want
        for phi in self.PUSHES:
            word = pushed(gamma, phi)
            t0 = time.perf_counter()
            rep = ob.count_orbit_word(X, word, 12.0, grid=[6, 9, 12])
            assert time.perf_counter() - t0 < 1.0, phi
            assert (rep.counts, rep.sym_order, rep.metadata["iota"]) == \
                (want, base.sym_order, base.metadata["iota"]), phi

    def test_long_twist_power(self, monkeypatch, time_bound):
        # aabAb pushed by T^4998 (9999 letters) descends by the powers
        # t^(2^j) in O(log n) steps of _twist_images, not one per power
        n = 4998
        word = canonical_cyclic("aabAb".translate(
            {ord("b"): "b" + "a" * n, ord("B"): "A" * n + "B"}))
        assert len(word) == 2 * n + 3
        steps = []
        images = ob._twist_images
        monkeypatch.setattr(ob, "_twist_images",
                            lambda w: steps.append(w) or images(w))
        assert ob._symmetry.__wrapped__(word) == (1, "aaBAB")
        assert len(steps) <= n.bit_length()
        with time_bound(5):
            rep = ob.count_orbit_word((3, 3, 3), word, 12.0, grid=[6, 9, 12])
        assert rep.counts == [3, 24, 48]

    @pytest.mark.parametrize("gamma, L", [("aabAb", 10.0),
                                          ("aabbAABB", 12.0)])
    def test_volume(self, gamma, L):
        # the area is taken at the representative: aaBAB for pushed aabAb
        assert ob.ball_length_region_volume(pushed(gamma, "TU" * 5), L) == \
            ob.ball_length_region_volume(gamma, L)


def orbit_bfs_lengths(X, gamma, L, prune_c):
    """The oracle of the twist-family count: a pruned BFS over the triple
    orbit of X, one pass of the trace plan per level; returns
    (lengths <= L, node count).  Nodes are ints scaled by 2^k, keyed on 64
    binary places; the count of mapping classes is the node count times
    |Aut(X)|."""
    root, k = ob._fixed_root(
        X, ob._bits(60 + int(0.25 * len(gamma) * prune_c * L)))
    shift = max(0, k - 64)
    kappa0 = ob._kappa_fixed(root, k)

    def children(t):
        if abs(ob._kappa_fixed(t, k) - kappa0) * 10 ** 7 > \
                max(1 << k, abs(kappa0)):
            raise ArithmeticError("kappa drifted along the orbit")
        return ob._images(t, k)

    lengths, nodes, _ = ob._pruned_bfs(
        root, lambda t: tuple(v >> shift for v in t), children,
        lambda ts: node_lengths(ts, gamma, k), L, prune_c, 5_000_000)
    return lengths, nodes


def bfs_counts(X, gamma, L, grid, prune_c):
    """Curve counts at each grid length from the BFS oracle: the triple
    orbit counts PSL(2,Z) classes, and -I maps gamma to a second curve of
    the same length unless it fixes gamma (iota = 1)."""
    lengths, _ = orbit_bfs_lengths(X, gamma, L, prune_c)
    aut = ob.point_symmetry_order(X)
    sym = ob.curve_symmetry_order(gamma)
    iota = ob._orbit_rep(gamma)[1]
    return [sum(v <= g for v in lengths) * aut * iota // sym for g in grid]


def mc_triple(seed, i):
    ell, tau = mc_draw(seed, i)
    t = fricke_triple(SurfacePoint(S11, (0.0,), ell, tau))
    return (t.x, t.y, t.z)


def walk_family(node, gamma, L, k, twist_fixed):
    """The oracle of the lockstep twist walk: one family walked on its own,
    downhill from n = 0 to the minimum of the convex l_gamma, then outward
    on both sides until l_gamma > L (n = 0 alone when T fixes gamma);
    returns (lengths <= L, {n: node(n)} for every node evaluated).  Each
    node's trace comes from the scalar _plan_eval_bounded, its bound
    unused, apart from the walk's list passes."""
    plan = _trace_plan(gamma)
    nodes, trs = {}, {}

    def tr(n):
        if n not in trs:
            nodes[n] = node(n)
            trs[n] = abs(_plan_eval_bounded(plan, *nodes[n], (0, 0, 0),
                                            k)[0])
        return trs[n]

    if twist_fixed:
        ell = _trace_length(tr(0), k, gamma)
        return [ell] if ell <= L else [], nodes
    m = 0
    for step in (1, -1):  # downhill to the right, else to the left
        while tr(m + step) < tr(m):
            m += step
        if m:
            break
    found = []
    for n, step in ((m, 1), (m - 1, -1)):
        while (ell := _trace_length(tr(n), k, gamma)) <= L:
            found.append(ell)
            n += step
    return found, nodes


def chart_triple(ell, tau):
    t = fricke_triple(SurfacePoint(S11, (0.0,), ell, tau))
    return (t.x, t.y, t.z)


# integral points, where ties of the trace are exact (aabbAABB has
# tr(0) = tr(1) beyond L = 9 in families at (3, 3, 3), (4, 4, 4), (4, 4, 8)
# and (6, 6, 6)), and chart points with 1080 and 1926 families at L = 16
WALK_POINTS = [(3, 3, 3), (4, 4, 4), (3, 4, 5), (4, 4, 8), (6, 6, 6), GENERIC,
               (3.3, 3.3, 5.445), chart_triple(1e-2, 0.3 * 1e-2),
               chart_triple(3e-3, 0.3 * 3e-3)]
WALK_WORDS = ["aabAb", "aabbabb"] + [
    ob._orbit_rep(w)[0] for w in ("aabbAB", "aaBabb", "aabAbAbb")] + [
    "aabbAABB", "abaB"]


class TestTwistFamilies:
    def test_matches_bfs_on_mc_draws(self):
        # the first 20 accepted MC draws of seed 0 at L = 16, the BFS at the
        # prune constant of the MC samples
        L, grid = 16.0, [8.0, 12.0, 16.0]
        done = 0
        for i in itertools.count():
            args = (i, 0, "aabAb", L, 0.0, 1)
            if ob._mc_sample_value(args) == 0.0:
                continue
            X = mc_triple(0, i)
            got = ob.count_orbit_word(X, "aabAb", L, grid=grid)
            assert got.counts == bfs_counts(X, "aabAb", L, grid, 1.5), i
            done += 1
            if done == 20:
                break

    @pytest.mark.parametrize("draw, L, want", [
        ((917568896, 4), 16.0, 753), ((917568896, 4), 30.0, 8106),
        ((1, 54), 16.0, 756), ((1, 54), 30.0, 8047)])
    def test_matches_bfs_at_thin_draws(self, draw, L, want):
        # draws in the thin part (l ~ 0.01), where the BFS needs prune_c = 2
        X = mc_triple(*draw)
        grid = [L / 2.0, 0.75 * L, L]
        got = ob.count_orbit_word(X, "aabAb", L)
        assert got.counts == bfs_counts(X, "aabAb", L, grid, 2.0)
        assert got.counts[-1] == want

    @pytest.mark.parametrize("X", [(3, 3, 3), (3, 4, 5), (4, 4, 4), (5, 5, 5),
                                   (87, 6, 15), (3, 39, 15), GENERIC])
    def test_matches_bfs_triple_by_word(self, X):
        # (87, 6, 15) and (3, 39, 15) are (3, 3, 3) moved by tuu and t^3,
        # with |Aut| = 3: the family count takes no Aut conversion
        L, grid = 14.0, [7.0, 10.5, 14.0]
        for gamma in ["aabAb", "aabbAB", "aaBabb", "abbaBAAb", "aabAbAbb"]:
            got = ob.count_orbit_word(X, gamma, L, grid=grid)
            assert got.metadata["engine"] == "triple-orbit"
            assert got.counts == bfs_counts(X, gamma, L, grid, 3.0), gamma

    def test_far_node_matches_mpmath(self, slope_trace, twist_node):
        # the node T^n of a marking triple at n = +-25, against traces of
        # the slopes s' + n s in mpmath; the word is chiral, so the test
        # tells T from t
        L, gamma = 16.0, "aabAbAbb"
        k = ob._bits(60 + int(0.25 * len(gamma) * 1.5 * L))
        marks, k = ob._farey_walk(ob._point(GENERIC, k), L)
        s, mark = max(marks, key=lambda m: m[0][1])
        p, q = s
        assert q >= 2
        with mpmath.workdps(400):
            tm = tuple(mpmath.mpf(v) for v in GENERIC)
            memo = {}

            def tr(v):
                return slope_trace(tm, v, memo)
            # the completion s' of the mark: det(s, s') = 1, tr s' = y_0
            u = pow(p, -1, q)
            sp = ((p * u - 1) // q, u)
            sp = min(((sp[0] + j * p, sp[1] + j * q) for j in range(-9, 10)),
                     key=lambda v: abs(tr(v) - mpmath.ldexp(mark[1], -k)))
            assert s[0] * sp[1] - s[1] * sp[0] == 1
            node = twist_node(mark, k)
            for n in (25, -25):
                t = tuple(tr((sp[0] + j * p, sp[1] + j * q))
                          for j in (n, n + 1))
                want = 2 * mpmath.acosh(
                    abs(trace_word_fricke((tr(s),) + t, gamma)) / 2)
                assert want > 3 * L
                assert node_length(node(n), gamma, k) == pytest.approx(
                    float(want), rel=1e-13), n

    @pytest.mark.parametrize("X", WALK_POINTS)
    def test_lockstep_walk_matches_family_oracle(self, X, twist_node,
                                                 monkeypatch):
        # per family: the found lengths and the outermost nodes; over all
        # families: the multiset of the nodes evaluated, and the passes
        evaluated = []

        def spy(plan, xs, ys, zs, k):
            evaluated.extend(zip(xs, ys, zs))
            return _plan_eval_fixed(plan, xs, ys, zs, k)
        monkeypatch.setattr(ob, "_plan_eval_fixed", spy)
        for gamma, L in itertools.product(WALK_WORDS, (9.0, 12.5, 16.0)):
            twist_fixed = gamma == "abaB"
            assert twist_fixed == (ob._word_images(gamma, "T")
                                   == [canonical_cyclic(gamma)])
            marks, k = ob._farey_walk(ob._point(
                X, ob._bits(60 + int(0.25 * len(gamma) * 1.5 * L))), L)
            evaluated.clear()
            found, outer, work = ob._twist_walk(marks, gamma, L, k,
                                                twist_fixed)
            want = collections.Counter()
            widest = 0
            for (_, mark), got, ends in zip(marks, found, outer):
                lengths, nodes = walk_family(twist_node(mark, k), gamma, L,
                                             k, twist_fixed)
                assert sorted(got) == sorted(lengths), (gamma, L, mark)
                assert ends == (nodes[min(nodes)], nodes[max(nodes)])
                want.update(nodes.values())
                widest = max(widest, max(nodes) - 1, -min(nodes))
            assert collections.Counter(evaluated) == want, (gamma, L)
            assert work == {"evaluations": len(evaluated),
                            "steps": 1 + widest}

    @pytest.mark.parametrize("k", [0, 299])
    @pytest.mark.parametrize("L", [7.0, 9.0, 12.0, 16.0, 30.0])
    def test_trace_cut_decides_as_the_length(self, k, L):
        # the walk's decision, t <= cut and then the length, at the trace
        # bound and one unit inside and outside each edge of the relative
        # 2^-20 band around it and of the cut
        n, d = (2.0 * math.cosh(L / 2.0)).as_integer_ratio()
        bound = (n << k) // d
        cut = ob._trace_cut(L, k)
        band = bound >> 20
        traces = [bound + j for j in range(-3, 4)]
        for edge in (bound - band, bound + band, cut):
            traces += [edge - 1, edge, edge + 1]
        assert min(traces) <= cut < max(traces)
        for t in traces:
            within = _trace_length(t, k, "aabAb") <= L
            assert (t <= cut and within) == within, t - bound

    def test_top_band_family_raises(self, monkeypatch):
        # a non-empty family of a slope with l_s > L - band fails the count
        monkeypatch.setattr(ob, "_TOP_BAND", 9.0)
        with pytest.raises(ArithmeticError, match="non-empty"):
            ob.count_orbit_word(GENERIC, "aabAb", 9.0)

    def test_work_counters(self):
        rep = ob.count_orbit_word(GENERIC, "aabAb", 9.0)
        meta = rep.metadata
        assert meta["families"] == ob.count_simple(GENERIC, 9.0)
        assert rep.orbit_nodes == meta["evaluations"] >= 3 * meta["families"]
        assert meta["k"] == ob._bits(60 + int(0.25 * 5 * 1.5 * 9.0))
        assert ob.count_orbit_word(MODULAR, "aabAb", 9.0).metadata["k"] == 0


class TestNodeLength:
    def test_integral_node_beyond_1e15(self):
        # |tr| has ~200 digits here; the exact int trace must give
        # 2 arccosh(|tr|/2), not that minus 2 log 2
        t = fixed_moved((3, 3, 3), "TUTUTUTUTUTU", 0)
        tr = trace_word_fricke(t, "aabAb")
        assert abs(tr) > 10 ** 15
        with mpmath.workdps(60):
            want = float(2 * mpmath.acosh(abs(mpmath.mpf(tr)) / 2))
        assert node_length(t, "aabAb", 0) == pytest.approx(want, rel=1e-12)

    def test_integral_node_any_scale(self):
        # an integral node scaled by 2^256 is exact in fixed point, so it
        # gives the length of the k = 0 node bit for bit
        t = fixed_moved((3, 3, 3), "TUUTTU", 0)
        scaled = tuple(v << 256 for v in t)
        assert node_length(scaled, "aabAb", 256) == \
            node_length(t, "aabAb", 0)

    def test_float_node_matches_mpmath(self):
        # a non-integral node 12 moves deep, in fixed point, against the
        # same moves and trace in mpmath at 60 digits
        k = 256
        t, _ = ob._fixed_root(GENERIC, k)
        with mpmath.workdps(60):
            tm = tuple(mpmath.mpf(v) for v in GENERIC)
            for g in "TUtUUTuTTUTU":
                t = fixed_moved(t, g, k)
                tm = MOVES[g](*tm)
            tr = abs(trace_word_fricke(tm, "aabAb"))
            want = float(2 * mpmath.acosh(tr / 2))
        assert node_length(t, "aabAb", k) == pytest.approx(want, rel=1e-13)


def mp_chart_trace(gamma, l1, ell, tau):
    """The trace of gamma at (ell, tau) from the torus chart of fn_surface
    written in mpmath, at the caller's precision."""
    ell, tau, l1 = mpmath.mpf(ell), mpmath.mpf(tau), mpmath.mpf(l1)
    m = mpmath.sqrt(2 * mpmath.cosh(l1 / 2) + 2 * mpmath.cosh(ell)) \
        / (2 * mpmath.sinh(ell / 2))
    t = (2 * mpmath.cosh(ell / 2), 2 * m * mpmath.cosh(tau / 2),
         2 * m * mpmath.cosh((ell + tau) / 2))
    return trace_word_fricke(t, gamma)


def mp_chart_length(gamma, l1, ell, tau):
    """l_gamma at (ell, tau) from the mpmath chart, at 1000 digits plus
    twice the digits the module's precision rule gives these coordinates."""
    with mpmath.workdps(1000 + int(0.5 * len(gamma) * (ell + abs(tau)))):
        tr = mp_chart_trace(gamma, l1, ell, tau)
        return float(2 * mpmath.acosh(abs(tr) / 2))


# the thin part, twist-line points of the length ball, and APL ray points
# near e^250 where the trace of aab cancels from ~10^650 down to lengths
# 33.5 and 0.25 (tau < -ell: uv = e^((ell+tau)/2) is tiny, 1/(uv) huge)
CHART_POINTS = [(0.002, 0.0), (0.002, -1.3), (0.7, 3.9), (1.5, -12.25),
                (6.0, 27.5), (12.0, -30.0), (497.25, 1150.0),
                (500.0, -1033.5), (500.0, -1000.25)]


# thin-part points: ell = 1e-100 lies below the output scale 2^-k of the
# chart's first try, and the trace of abaB (about 6) cancels from terms of
# order 1/ell^2; the former worst-case precision rule was too coarse here
# for abaB and aaBabb
THIN_POINTS = [(1e-35, 0.3), (1e-40, 0.3), (1e-100, 0.3)]
WORDS = ["aab", "abaB", "aabAb", "aaBabb"]


class TestChart:
    @pytest.mark.parametrize("l1", [0.0, 0.7])
    @pytest.mark.parametrize("gamma", WORDS)
    def test_lengths_match_mpmath_chart(self, gamma, l1):
        f = fs._gamma_length_fn(gamma, l1)
        for ell, tau in CHART_POINTS + THIN_POINTS:
            assert f(ell, tau) == pytest.approx(
                mp_chart_length(gamma, l1, ell, tau), rel=1e-13), (ell, tau)

    @pytest.mark.parametrize("l1", [0.0, 0.7])
    def test_short_simple_curve(self, l1):
        # the length from the exact margin |tr| - 2: a float trace read
        # ell = 1e-5 as 1.000000041e-05 and ell = 1e-8 as 0.0
        f = fs._gamma_length_fn("a", l1)
        for ell, tau in [(1e-5, 0.3), (1e-8, 0.3)] + THIN_POINTS:
            assert f(ell, tau) == pytest.approx(
                mp_chart_length("a", l1, ell, tau), rel=1e-13), ell

    @pytest.mark.parametrize("l1", [0.0, 0.7])
    def test_kappa_identity(self, l1):
        # x^2 + y^2 + z^2 - xyz - 2 = -2 cosh(l1/2) in the chart's own fixed
        # point, to the 60 digits the precision rule starts from (a rounded
        # float ell + tau breaks it from the 16th digit of z on)
        for ell, tau in CHART_POINTS:
            k = ob._bits(80 + int(1.25 * (ell + abs(tau))))
            t, _ = fs._chart_fixed(l1, ell, tau, k, {})
            with mpmath.workprec(k + 64):
                want = int(mpmath.ldexp(
                    -2 * mpmath.cosh(mpmath.mpf(l1) / 2), k))
            err = abs(ob._kappa_fixed(t, k) - want)
            assert err.bit_length() <= k - ob._bits(60), (ell, tau)


def length_at_cap(gamma, l1, ell, tau):
    """l_gamma with the chart and the trace at the worst-case digit rule
    60 + 0.25 deg (|ell| + |tau|) + 20, the one precision the length path
    used before it chose k per trace.  It holds away from the thin part."""
    k = ob._bits(60 + int(0.25 * len(gamma) * (abs(ell) + abs(tau))) + 20)
    return node_length(fs._chart_fixed(l1, ell, tau, k, {})[0], gamma, k)


def ray_points(seed, rays):
    """The points apl.ray_fit evaluates on seeded rays X0 + t (1, u): the
    radii 5 ... 500 and the four +-1/16 gradient offsets at the top one."""
    rng = np.random.default_rng(seed)
    radii = [5.0 * 10 ** (2.0 * i / 7.0) for i in range(8)]
    h, top = 1.0 / 16.0, radii[-1]
    pts = []
    for _ in range(rays):
        x0 = (rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0))
        u = rng.uniform(-2.3, 2.3)
        dirs = [(1.0, u)] * len(radii) + [
            (1.0 + h, u), (1.0 - h, u), (1.0, u + h), (1.0, u - h)]
        ts = radii + [top] * 4
        pts += [(x0[0] + t * d[0], x0[1] + t * d[1])
                for t, d in zip(ts, dirs)]
    return pts


class TestChartPrecision:
    """The chart's error bounds and the per-trace precision they choose."""

    @pytest.mark.parametrize("k", [80, 600, 1300])
    def test_exp_bound_covers_error(self, k):
        # both of _exp_fixed's values, e^h and e^-h scaled by 2^k, lie within
        # their bounds of mpmath's at k + 4000 bits, for |h| from 1e-3 to
        # 900 (e^900 ~ 2^1298: the relative bound grows to ~2^1291 units)
        hs = [10.0 ** (i / 4.0) for i in range(-12, 12)] + [900.0]
        hs += [-h for h in hs]
        with mpmath.workprec(k + 4000):
            for h in hs:
                pair = fs._exp_fixed(h, k, {})
                for (got, err), sign in zip(pair, (1, -1)):
                    want = mpmath.ldexp(mpmath.exp(sign * mpmath.mpf(h)), k)
                    assert abs(got - want) <= err, (h, k, sign)

    @pytest.mark.parametrize("l1", [0.0, 0.7])
    def test_bound_covers_error(self, l1):
        # the bounds of x, y, z and of each word's trace at k hold against
        # an evaluation 4000 bits finer (whose own bound is added), on 500
        # points per l1 with ell log-uniform in [1e-3, 500] and tau = ell u,
        # |u| <= 2.3, and on the chart points
        rng = np.random.default_rng([1400, round(10 * l1)])
        ells = np.exp(rng.uniform(math.log(1e-3), math.log(500.0), 500))
        pts = [(float(e), float(e * rng.uniform(-2.3, 2.3))) for e in ells]
        pts += CHART_POINTS + [(1e-100, 0.3)]
        plans = [_trace_plan(w) for w in WORDS]
        ks = (80, 200, 600)
        K = max(ks) + 4000
        slack = []
        for ell, tau in pts:
            ref, ref_err = fs._chart_fixed(l1, ell, tau, K, {})
            ref_tr = [_plan_eval_bounded(p, *ref, ref_err, K) for p in plans]
            for k in ks:
                s = K - k
                t, errs = fs._chart_fixed(l1, ell, tau, k, {})
                for v, e, w, ew in zip(t, errs, ref, ref_err):
                    assert abs((v << s) - w) <= (e << s) + ew, (ell, tau, k)
                for p, (w, ew) in zip(plans, ref_tr):
                    tr, e = _plan_eval_bounded(p, *t, errs, k)
                    err = abs((tr << s) - w)
                    assert err <= (e << s) + ew, (ell, tau, k)
                    slack.append((e << s).bit_length() - err.bit_length())
        # a bound loose by many bits would raise k for needless tries
        assert np.median(slack) <= 8

    @pytest.mark.parametrize("l1", [0.0, 0.7])
    def test_ray_lengths_equal_cap(self, l1, monkeypatch):
        # on seeded ray points the worst-case rule is certified, and the
        # length the error bound accepts is its length bit for bit, found
        # within two tries (the thin part is TestChart's); the total of
        # tries is pinned, so that a looser chart bound cannot add tries
        # unseen (1055 tries for 960 lengths at both l1, each f starting a
        # point from the k its last point needed)
        pts = ray_points(14, 20)
        ks = []
        tries = 0
        chart = fs._chart_fixed

        def spy(l1, ell, tau, k, memo=None):
            ks.append(k)
            return chart(l1, ell, tau, k, memo)
        for gamma in WORDS:
            f = fs._gamma_length_fn(gamma, l1)
            for ell, tau in pts:
                want = length_at_cap(gamma, l1, ell, tau)
                monkeypatch.setattr(fs, "_chart_fixed", spy)
                ks.clear()
                got = f(ell, tau)
                monkeypatch.setattr(fs, "_chart_fixed", chart)
                assert got == want and len(ks) <= 2, (gamma, ell, tau, ks)
                tries += len(ks)
        assert tries == 1055

    @pytest.mark.parametrize("k", [80, 600])
    def test_exp_memo_shifted_down_covers_error(self, k, monkeypatch):
        # e^|h| stored at 1300 + 8 bits plus the headroom and shifted down
        # to scale 2^k, with no new mpf_exp, lies within _exp_fixed's bounds
        # at k of mpmath's at k + 4000 bits, for both signs of h
        hs = [10.0 ** (i / 4.0) for i in range(-12, 12)] + [900.0]
        memo = {}
        for h in hs:
            fs._exp_fixed(h, 1300, memo)
        assert all(bits == 1308 + fs._EXP_HEADROOM
                   for _, _, bits in memo.values())
        calls = []
        exp = fs.mpf_exp
        monkeypatch.setattr(fs, "mpf_exp",
                            lambda *a: calls.append(a) or exp(*a))
        with mpmath.workprec(k + 4000):
            for h in hs + [-h for h in hs]:
                pair = fs._exp_fixed(h, k, memo)
                for (got, err), sign in zip(pair, (1, -1)):
                    want = mpmath.ldexp(mpmath.exp(sign * mpmath.mpf(h)), k)
                    assert abs(got - want) <= err, (h, k, sign)
        assert not calls

    def test_exp_memo_is_bounded(self):
        # the least recently used entries go: 1000 distinct h leave the cap,
        # and the last h asked is kept
        memo = {}
        for i in range(1000):
            fs._exp_fixed(i / 7.0, 80, memo)
            assert len(memo) <= fs._EXP_MEMO_CAP
        assert len(memo) == fs._EXP_MEMO_CAP and 999 / 7.0 in memo

    @pytest.mark.parametrize("l1", [0.0, 0.7])
    def test_memo_leaves_lengths_alone(self, l1):
        # the lengths of one f do not depend on the order of its points nor
        # on what its memo holds: forward, reverse and a fresh f per point
        # agree by repr
        pts = ray_points(14, 20)
        forward = fs._gamma_length_fn("aabAb", l1)
        backward = fs._gamma_length_fn("aabAb", l1)
        want = [repr(forward(ell, tau)) for ell, tau in pts]
        got = [repr(backward(ell, tau)) for ell, tau in reversed(pts)]
        assert got[::-1] == want
        fresh = [repr(fs._gamma_length_fn("aabAb", l1)(ell, tau))
                 for ell, tau in pts[::12]]
        assert fresh == want[::12]

    @pytest.mark.parametrize("l1", [0.0, 0.7])
    def test_start_leaves_lengths_alone(self, l1, monkeypatch):
        # an order that misleads the start from the last point's k: a far
        # ray point, a thin one, a far one again and a twist-line point;
        # the start set by a far point is too low for the thin one and
        # costs raises, yet every length equals a fresh f's by repr
        pts = [(497.25, 1150.0), (1e-3, 0.3), (500.0, -1033.5),
               (1.5, -12.25)]
        ks = []
        chart = fs._chart_fixed

        def spy(l1, ell, tau, k, memo):
            ks.append(k)
            return chart(l1, ell, tau, k, memo)
        for gamma in WORDS:
            fresh = [repr(fs._gamma_length_fn(gamma, l1)(ell, tau))
                     for ell, tau in pts]
            f = fs._gamma_length_fn(gamma, l1)
            monkeypatch.setattr(fs, "_chart_fixed", spy)
            assert [repr(f(ell, tau)) for ell, tau in pts] == fresh, gamma
            monkeypatch.setattr(fs, "_chart_fixed", chart)
        assert len(ks) > len(pts) * len(WORDS)

    @pytest.mark.parametrize("l1", [0.0, 0.7])
    def test_start_from_last_point_saves_bits(self, l1, monkeypatch):
        # on seeded ray points one f for all points makes no more chart
        # tries than a fresh f per point, whose every point starts at the
        # guess from its coordinates alone, and its tries take at least 20%
        # fewer bits in all
        pts = ray_points(14, 20)
        work = {}
        chart = fs._chart_fixed

        def spy(l1, ell, tau, k, memo):
            work[side][0] += 1
            work[side][1] += k
            return chart(l1, ell, tau, k, memo)
        monkeypatch.setattr(fs, "_chart_fixed", spy)
        for side in ("shared", "fresh"):
            work[side] = [0, 0]
            for gamma in WORDS:
                f = fs._gamma_length_fn(gamma, l1)
                for ell, tau in pts:
                    if side == "fresh":
                        f = fs._gamma_length_fn(gamma, l1)
                    f(ell, tau)
        (tries, k_sum), (fresh_tries, fresh_k_sum) = \
            work["shared"], work["fresh"]
        assert tries <= fresh_tries and k_sum <= 0.8 * fresh_k_sum, work

    def test_length_functions_share_no_memo(self, monkeypatch):
        # a second f pays for the exponentials the first one holds; the
        # first one, asked again, pays nothing
        calls = []
        exp = fs.mpf_exp
        monkeypatch.setattr(fs, "mpf_exp",
                            lambda *a: calls.append(a) or exp(*a))
        f, g = (fs._gamma_length_fn("aabAb", 0.7) for _ in range(2))
        assert f(1.5, -12.25) == g(1.5, -12.25)
        n = len(calls)
        assert n > 0 and n % 2 == 0
        assert calls[:n // 2] == calls[n // 2:]
        assert f(1.5, -12.25) == g(1.5, -12.25) and len(calls) == n

    @pytest.mark.parametrize("gamma", WORDS + ["aabAbAbbaB"])
    def test_plan_bound_covers_rounding(self, gamma):
        # exact dyadic inputs (no chart error): the bound is the products'
        # rounding alone, against the plan evaluated in Fractions
        rng = np.random.default_rng(1401)
        plan = _trace_plan(gamma)
        for k in (0, 1, 7, 64, 200):
            for _ in range(40):
                t = [int(v) for v in rng.integers(-2 ** 62, 2 ** 62, 3)]
                t = [v >> int(rng.integers(0, 60)) for v in t]
                tr, e = _plan_eval_bounded(plan, *t, (0, 0, 0), k)
                exact = trace_word_fricke(
                    tuple(Fraction(v, 2 ** k) for v in t), gamma)
                assert abs(Fraction(tr, 2 ** k) - exact) \
                    <= Fraction(e, 2 ** k), (gamma, k, t)

    def test_certified_length(self):
        # certified only with e 2^60 <= tr - 2 and both ends of tr +- 2e on
        # one float: a trace on a rounding tie of the float 3 is not
        k = 200
        three = 2 * math.acosh(1.5)
        assert fs._certified_length(3 << k, 1, k, "aab") == three
        tie = (3 << k) + (1 << k - 52)  # halfway from 3 to 3 + 2^-51
        assert _trace_length(tie, k, "aab") == three
        assert fs._certified_length(tie, 1, k, "aab") is None
        assert fs._certified_length(tie - 2, 1, k, "aab") == three
        assert fs._certified_length((2 << k) + (1 << 60), 1, k, "aab") \
            is not None
        assert fs._certified_length((2 << k) + (1 << 60) - 1, 1, k,
                                    "aab") is None

    @pytest.mark.parametrize("gamma", ["", "aA", "abAB", "BAba",
                                       "abABabAB"])
    def test_trivial_and_peripheral_words_rejected(self, gamma):
        # trace +-2 at a cusp: no precision certifies a length
        for l1 in (0.0, 0.7):
            with pytest.raises(ValueError, match="peripheral or trivial"):
                fs._gamma_length_fn(gamma, l1)

    @pytest.mark.parametrize("ell,tau,l1", [
        (math.nan, 0.3, 0.0), (1.5, math.inf, 0.0), (-math.inf, 0.3, 0.0),
        (1e300, 0.3, 0.0), (6e4, -6e4, 0.0), (0.0, 0.3, 0.0),
        (5e-324, 0.3, 0.0), (1.5, 0.3, math.nan), (1.5, 0.3, math.inf),
        (1.5, 0.3, 2e5)])
    def test_chart_domain(self, ell, tau, l1):
        # non-finite and far too large coordinates, and an ell whose half
        # rounds to 0 (the chart's m divides by v - 1/v = 0)
        with pytest.raises(ValueError, match="off the chart"):
            fs._gamma_length_fn("aab", l1)(ell, tau)
        # fricke_triple rejects the same points, before it exponentiates
        if math.isfinite(ell + tau + l1) and ell > 0:
            with pytest.raises(ValueError, match="off the chart"):
                fricke_triple(SurfacePoint(S11, (l1,), ell, tau))

    def test_powers_of_a_climb_in_thin_part(self, monkeypatch):
        # the margin |tr| - 2 of a^n is ~ (n ell)^2 / 4, far below the first
        # try's 2^-k: k rises until the bound decides, inside _MAX_RAISES
        # (the length comes from the float trace, so it is 0 here)
        for ell in (1e-100, 1e-300, 1e-323):
            for n in (1, 3):
                f = fs._gamma_length_fn("a" * n, 0.0)
                assert f(ell, 0.3) == pytest.approx(n * ell, abs=1e-15)
        # out of raises, the loop raises rather than return an uncertified
        # length; a fresh f, as the f above starts near the k it needed
        monkeypatch.setattr(fs, "_MAX_RAISES", 4)
        with pytest.raises(ArithmeticError, match="no precision"):
            fs._gamma_length_fn("aaa", 0.0)(1e-100, 0.3)


class TestWordLength:
    def test_long_words_match_mpmath(self):
        # words of 36 to 68 letters in the orbit of abaB at a non-integral
        # triple, in the fixed point of a word-orbit search at L = 12,
        # against the product of the realizing matrices in mpmath at 60
        # digits
        k = ob._bits(60 + int(0.5 * 3.0 * 12.0))
        t, _ = ob._fixed_root(GENERIC, k)
        mats = ob._rep_fixed(t, k)
        with mpmath.workdps(60):
            x, y, z = (mpmath.mpf(v) for v in GENERIC)
            lam = (x + mpmath.sqrt(x * x - 4)) / 2
            p = (z - y / lam) / (lam - 1 / lam)
            s = y - p
            q = p * s - 1
            mp_mats = {"a": mpmath.matrix([[lam, 0], [0, 1 / lam]]),
                       "A": mpmath.matrix([[1 / lam, 0], [0, lam]]),
                       "b": mpmath.matrix([[p, q], [1, s]]),
                       "B": mpmath.matrix([[s, -q], [-1, p]])}
            for moves in ["TUTUTUT", "TUUTUTT", "tutututu"]:
                w = "abaB"
                for g in moves:
                    w = canonical_cyclic(
                        reduce_word(w.translate(ob._AUTOS[g])))
                assert len(w) >= 30
                m = mpmath.eye(2)
                for ch in w:
                    m = m * mp_mats[ch]
                want = float(2 * mpmath.acosh(abs(m[0, 0] + m[1, 1]) / 2))
                assert ob._word_length(mats, w, k) == \
                    pytest.approx(want, rel=1e-13), moves


    def test_blocked_product_matches_letter_product(self):
        # words of 1 to 20 letters cross the six-letter block boundaries;
        # the blocks come from the memo, the reference multiplies letter
        # by letter
        k = ob._bits(60 + int(0.5 * 3.0 * 12.0))
        t, _ = ob._fixed_root(GENERIC, k)
        letters = ob._rep_fixed(t, k)
        mats = dict(letters)
        rng = random.Random(22)
        for n in range(1, 21):
            for _ in range(10):
                w = rng.choice("abAB")
                while len(w) < n:
                    w += rng.choice([c for c in "abAB"
                                     if c != w[-1].swapcase()])
                m = letters[w[0]]
                for ch in w[1:]:
                    m = ob._mat_mul(m, letters[ch], k)
                want = _trace_length(m[0] + m[3], k, w)
                assert ob._word_length(mats, w, k) == \
                    pytest.approx(want, rel=1e-13), w
        assert all(1 <= len(w) <= 6 for w in mats)

    @pytest.mark.parametrize("X", [MODULAR, GENERIC])
    @pytest.mark.parametrize("gamma", ["aabAb", "abaB", "aabbAB"])
    @pytest.mark.parametrize("L", [6.0, 9.0])
    def test_skip_matches_four_image_search(self, X, gamma, L):
        # the search that takes all four images of each class, the way
        # back included, at the same lengths and k: the same lengths in
        # the same order, and the same node and pruned counts
        k = ob._bits(60 + int(0.5 * ob._ORACLE_PRUNE * L))
        node, _, k0 = ob._point(X, k)
        mats = ob._rep_fixed(tuple(v << (k - k0) for v in node), k)
        want = ob._pruned_bfs(
            canonical_cyclic(gamma), lambda w: w, ob._word_images,
            lambda ws: [ob._word_length(mats, w, k) for w in ws], L,
            ob._ORACLE_PRUNE, ob._ORACLE_NODES)
        assert ob._word_orbit_lengths(X, gamma, L) == want

    def test_memo_bounded_per_search(self, monkeypatch):
        # the memo is the search's own dict of realizing matrices: it holds
        # reduced words of 1 to 6 letters, at most 4 * (3^6 - 1) / 2 = 1456
        made = []
        rep = ob._rep_fixed

        def recorded(t, k):
            made.append(rep(t, k))
            return made[-1]
        monkeypatch.setattr(ob, "_rep_fixed", recorded)
        ob.count_orbit_word_bruteforce(GENERIC, "aabAb", 12.0)
        ob.count_orbit_word_bruteforce(GENERIC, "aabAb", 12.0)
        assert len(made) == 2 and made[0] is not made[1]
        for mats in made:
            assert 100 < len(mats) <= 1456
            assert all(1 <= len(w) <= 6 and reduce_word(w) == w
                       for w in mats)


class TestPrecision:
    def test_word_orbit_abort_keeps_dps(self, monkeypatch):
        monkeypatch.setattr(ob, "_ORACLE_NODES", 10)
        dps = mpmath.mp.dps
        with pytest.raises(ArithmeticError, match="exceeded"):
            ob._word_orbit_lengths(MODULAR, "aabAb", 30.0)
        assert mpmath.mp.dps == dps

    def test_kappa_drift_fires(self, monkeypatch):
        # too few binary places for a non-integral X: rounding moves kappa
        # and the check at the ends of the twist families must stop the
        # count
        monkeypatch.setattr(ob, "_bits", lambda digits: 12)
        with pytest.raises(ArithmeticError, match="kappa drifted"):
            ob._family_lengths(ob._point(GENERIC, ob._family_bits(
                "aabAb", 9.0)), "aabAb", 9.0)

    def test_kappa_checked_at_both_family_ends(self, monkeypatch,
                                               twist_node):
        # once at the root, then at the outermost node on each side of
        # every family with a length <= L
        L = 9.0
        k = ob._bits(60 + int(0.25 * 5 * 1.5 * L))
        point = ob._point(GENERIC, k)
        marks, _ = ob._farey_walk(point, L)
        nonempty = sum(
            any(node_length(twist_node(mark, k)(n), "aabAb", k) <= L
                for n in range(-30, 31))
            for _, mark in marks)
        assert 0 < nonempty < len(marks)
        calls = []
        kappa = ob._kappa_fixed

        def counted(*args):
            calls.append(1)
            return kappa(*args)
        monkeypatch.setattr(ob, "_kappa_fixed", counted)
        ob._family_lengths(point, "aabAb", L)
        assert len(calls) == 1 + 2 * nonempty

    def test_triple_orbit_abort_keeps_dps(self, monkeypatch):
        monkeypatch.setattr(ob, "_FAMILY_STEPS", 2)
        dps = mpmath.mp.dps
        with pytest.raises(ArithmeticError, match="exceeded"):
            ob._family_lengths(ob._point(GENERIC, ob._family_bits(
                "aabAb", 30.0)), "aabAb", 30.0)
        assert mpmath.mp.dps == dps


class TestConeCount:
    def test_m_invariance(self):
        # every twist orbit meets each width-l cone exactly once
        counts = [ob.cone_count(MODULAR, m, 20.0) for m in (-2, 0, 5)]
        assert len(set(counts)) == 1

    @pytest.mark.parametrize("X", [(3, 4, 5), GENERIC, (4, 4, 8),
                                   (3.0, 3.0, 4.5)])
    def test_invariant_under_generators(self, X):
        # g.X is the same point of moduli space: the same orbit points land
        # in the cone
        c = ob.cone_count(X, 0, 20.0)
        for g in "TtUu":
            assert ob.cone_count(MOVES[g](*X), 0, 20.0) == c, g

    def test_quadratic_growth(self):
        c1 = ob.cone_count(GENERIC, 0, 30.0)
        c2 = ob.cone_count(GENERIC, 0, 60.0)
        assert 3.4 <= c2 / c1 <= 4.6

    @pytest.mark.parametrize("X", [(4, 4, 8), (3.5, 3.5, 3.5), GENERIC,
                                   (3.0, 3.0, 4.5)])
    def test_matches_chart_inverse(self, slope_trace, X):
        ms = (-2, 0, 3)
        want, zero_twists = chart_inverse_cone_counts(slope_trace, X, 30.0, ms)
        assert [ob.cone_count(X, m, 30.0) for m in ms] == want
        if X in ((4, 4, 8), (3.0, 3.0, 4.5)):
            # families with tau0 = 0 meet every cone at both ends
            assert zero_twists == 1

    @pytest.mark.parametrize("X, aut, words", [
        ((3.3, 3.3, 3.3), 3, ["T", "tU", "TTu", "uuT"]),
        ((3.3, 3.3, 5.445), 2, ["", "t", "UT", "uTT"]),
        ((3.3, 3.5, 5.775), 1, ["", "U", "tT"]),
    ])
    def test_moved_float_triple(self, slope_trace, X, aut, words):
        # at a float triple the families that an automorphism exchanges,
        # and the two ends of a family with tau0 = 0, agree only up to
        # rounding: keyed exactly, (3.3, 3.3, 3.3) moved by T counted 84
        # families at L = 20 instead of 28
        assert ob.point_symmetry_order(X) == aut
        for w in words:
            Y = moved(X, w)
            want, zero_twists = chart_inverse_cone_counts(
                slope_trace, Y, 20.0, (0, 2))
            assert [ob.cone_count(Y, m, 20.0) for m in (0, 2)] == want, w
            # the two rectangular tori have both coordinate curves at twist
            # 0, one family where a rotation exchanges them (the square)
            assert zero_twists == {3: 0, 2: 1, 1: 2}[aut], w

    def test_far_moved_triple(self):
        # (3, 4, 5) moved by eight generators has coordinates of 11 digits
        X = moved((3, 4, 5), "TUTUTUTU")
        assert max(X) > 10 ** 10
        assert ob.cone_count(X, 0, 60.0) == \
            ob.cone_count((3, 4, 5), 0, 60.0) == 590


def chart_inverse_cone_counts(slope_trace, X, L, ms):
    """The cone counts through the Fenchel-Nielsen chart inverse, in mpmath
    at 80 digits, and the number of twist families with tau0 = 0.

    Each slope s = (p, q) with l_s <= L is completed to (u, v) with
    pv - qu = 1 and twist-reduced by trace; (l, tau0) come from inverting
    the torus chart x = 2 cosh(l/2), y = 2 m cosh(tau/2),
    z = 2 m cosh((l + tau)/2); re-markings are merged on (l, tau0/l mod 1)
    rounded to 9 digits, and each family counts the k with
    m <= tau0/l + k <= m + 1."""
    families = set()
    with mpmath.workdps(80):
        tm = tuple(mpmath.mpf(v) for v in X)
        x, y, z = tm
        # 2 cosh(l1/2) = -kappa in mpmath: a float l1, inverted from a cosh
        # near 1, put tau0 = 0 at frac(tau0/l) = 0.999999996
        c1 = max(2, x * y * z + 2 - x * x - y * y - z * z)
        memo = {}

        def tr(s):
            return abs(slope_trace(tm, s, memo))
        for (p, q), _ in ob.simple_slopes(X, L):
            if q:
                v = pow(p % q, -1, q) if q > 1 else 0
                sp = ((p * v - 1) // q, v)
            else:
                sp = (0, 1)
            for step in (1, -1):
                while tr((sp[0] + step * p, sp[1] + step * q)) < tr(sp):
                    sp = (sp[0] + step * p, sp[1] + step * q)
            ell = 2 * mpmath.acosh(tr((p, q)) / 2)
            half = mpmath.sqrt(c1 + 2 * mpmath.cosh(ell)) \
                / (2 * mpmath.sinh(ell / 2))
            c = tr(sp) / (2 * half)
            tau0 = 2 * mpmath.acosh(c) if c > 1 else mpmath.mpf(0)
            # the sign of tau0 from the trace of s + s'
            t3 = tr((p + sp[0], q + sp[1]))
            if abs(2 * half * mpmath.cosh((ell - tau0) / 2) - t3) < \
                    abs(2 * half * mpmath.cosh((ell + tau0) / 2) - t3):
                tau0 = -tau0
            # tau0 = -0 and +0 are one family: frac in [0, 1)
            families.add((round(float(ell), 9),
                           round(float(mpmath.frac(tau0 / ell)), 9) % 1.0))
    counts = [sum(max(0, math.floor(m + 1 - f + 1e-12)
                      - math.ceil(m - f - 1e-12) + 1) for _, f in families)
              for m in ms]
    return counts, sum(f == 0.0 for _, f in families)


def _log_combine(l1, l2, l3):
    """log(t1 t2 - t3) from logs, assuming the result is positive."""
    s = l1 + l2
    if s < 700.0:
        return math.log(math.exp(l1) * math.exp(l2) - math.exp(l3))
    return s + math.log1p(-math.exp(l3 - s))


def _log_trace_length(log_tr):
    """l = 2 arccosh(e^log_tr / 2), with 2 log_tr for huge traces."""
    if log_tr > 40.0:
        return 2.0 * log_tr
    return 2.0 * math.acosh(math.exp(log_tr) / 2.0)


def direction_length_rate(t, ux, uy, steps=10 ** 6):
    """Homogeneous length of the direction (ux, uy) in ML ~ R^2, apart from
    the module's Farey walk: log-traces along the Farey convergents toward
    the direction until |p| or |q| > 1e14, and the difference quotient of
    the last two (it converges one order faster than l(p,q) / |(p,q)|)."""
    x, y, z = t
    if uy < 0 or (uy == 0 and ux < 0):
        ux, uy = -ux, -uy
    lx, ly, lz = math.log(abs(x)), math.log(abs(y)), math.log(abs(z))
    lw = math.log(abs(x * y - z))  # slope (-1, 1)
    if ux >= 0:
        P1, T1, P2, T2, M, TM = (1, 0), lx, (0, 1), ly, (1, 1), lz
    else:
        P1, T1, P2, T2, M, TM = (0, 1), ly, (-1, 0), lx, (-1, 1), lw
    prev = cur = None
    for _ in range(steps):
        # u lies in the sub-cone (P1, M) iff it is on the side of M of P1
        s_u = M[0] * uy - M[1] * ux
        if s_u == 0.0:
            return _log_trace_length(TM) / math.hypot(*M)
        if (s_u > 0) == (M[0] * P1[1] - M[1] * P1[0] > 0):
            P2, T2, Topp = M, TM, T2
        else:
            P1, T1, Topp = M, TM, T1
        prev, cur = cur, (M, TM)
        if max(abs(M[0]), abs(M[1])) > 1e14:
            break
        M = (P1[0] + P2[0], P1[1] + P2[1])
        TM = _log_combine(T1, T2, Topp)
    (M, TM), (Mp, TMp) = cur, prev
    ell = _log_trace_length(TM)
    dn = math.hypot(*M) - math.hypot(*Mp)
    if dn > 0.5 * math.hypot(M[0] - Mp[0], M[1] - Mp[1]):
        return (ell - _log_trace_length(TMp)) / dn
    return ell / math.hypot(*M)


# a thin point, l_sys = 10^-2 and tau = 0.3 l_sys: about 15 000 slopes lie
# below l_top + 40
THIN_DRAW = ob._triple(fricke_triple(SurfacePoint(S11, (0.0,), 1e-2,
                                                 0.3 * 1e-2)))


def exact_angle_key(s):
    p, q = farey.normalize_slope(*s)
    return (q != 0, Fraction(-p, q or 1))


def ball_walk(X, monkeypatch):
    """thurston_ball_B(X) and the marks of the one Farey walk it takes, in
    the order that _ball_area left them."""
    walks = []
    walk = ob._farey_walk

    def spy(*args):
        walks.append(walk(*args))
        return walks[-1]
    monkeypatch.setattr(ob, "_farey_walk", spy)
    b = ob.thurston_ball_B(X)
    monkeypatch.setattr(ob, "_farey_walk", walk)
    (marks, _), = walks
    return b, marks


def mp_ball(X, marks, slope_trace):
    """B's polygon over the slopes of the walk's marks (in the marking of
    X) at 60 digits, its traces from the slope_trace fixture on the mpf
    triple X."""
    slopes = sorted((s for s, _ in marks), key=exact_angle_key)
    with mpmath.workdps(60):
        t = [mpmath.mpf(v) for v in X]
        memo = {}
        ells = [2 * mpmath.acosh(slope_trace(t, s, memo) / 2)
                for s in slopes]
        return mpmath.fsum(0.5 / (u * v)
                           for u, v in zip(ells, ells[1:] + ells[:1]))


class TestThurstonBall:
    @pytest.mark.parametrize("X", [(3, 4, 5), (6, 15, 3)])
    def test_invariant_under_generators(self, X):
        # B depends on the point of moduli space, not on the marking; an
        # integral orbit descends exactly to one canonical triple
        b = ob.thurston_ball_B(X)
        x, y, z = X
        images = [MOVES[g](*X) for g in "TtUu"]
        images += list(itertools.permutations(X))
        images += [(-x, -y, z), (x, -y, -z), (-x, y, -z)]
        for Y in images:
            assert ob.thurston_ball_B(Y) == b, Y

    @pytest.mark.parametrize("X", [GENERIC, (5.0, 3.1, 7.2)])
    def test_moved_float_triple(self, X):
        # the moved doubles descend in 2^-64 fixed point to the canonical
        # triple up to their own rounding
        b = ob.thurston_ball_B(X)
        for n in (1, 2):
            for word in itertools.product("TtUu", repeat=n):
                assert ob.thurston_ball_B(moved(X, word)) == \
                    pytest.approx(b, rel=1e-12), word

    @pytest.mark.parametrize("X", [(3, 4, 5), GENERIC, (6, 15, 3)])
    def test_quadrature_at_own_marking(self, X):
        # independent of the marking: the same polygon sum, run in the
        # basis of the reduced triple in place of X's own, walks and sorts
        # other slopes
        node, _, k = ob._point(X)
        assert ob._ball_area((node, ((1, 0), (0, 1)), k)) == \
            pytest.approx(ob.thurston_ball_B(X), rel=1e-12)

    def test_converges_at_depth_limit(self):
        # the reduced triple of MC sample 0 of seed 0, where the adaptive
        # theta-quadrature that B once was reached its recursion limit and
        # read 0.630621, high by 5e-4; the value agrees with the dense
        # integral of test_dense_integral
        X = (2.0545797218640933, 8.923065622080278, 8.737976656699363)
        assert ob._ball_area(ob._point(X)) == \
            pytest.approx(0.6303030686, rel=1e-9)
        assert ob.thurston_ball_B(X) == pytest.approx(0.6303030686, rel=1e-9)

    @pytest.mark.parametrize("X, rel", [
        ((3, 4, 5), 2e-7),
        ((2.0545797218640933, 8.923065622080278, 8.737976656699363), 3e-6)])
    def test_dense_integral(self, X, rel):
        # B = (1/2) Integral_0^pi r(theta)^2 dtheta, r = 1 / the homogeneous
        # length of the direction, by the midpoint rule
        n = 5000
        h = math.pi / n
        area = h * math.fsum(
            0.5 / direction_length_rate(X, math.cos(th), math.sin(th)) ** 2
            for th in ((i + 0.5) * h for i in range(n)))
        assert ob.thurston_ball_B(X) == pytest.approx(area, rel=rel)

    @pytest.mark.parametrize("t", [1e12, 5.164605048998411e16, 1e20])
    def test_closed_form_huge_traces(self, t):
        # only the three slopes of trace t are shorter than l + 40, and the
        # ball is the hexagon on them up to a relative O(1/t): B = 3/(2 l^2)
        ell = 2.0 * math.acosh(t / 2.0)
        assert ob.thurston_ball_B((t, t, t)) == \
            pytest.approx(3.0 / (2.0 * ell * ell), rel=1e-12)

    @pytest.mark.parametrize("X", [(0, 0, 0), (2, 2, 2), (2.5, 2.5, 2.5),
                                   (-3, 3, 3), (1e200, 1e200, 1e200)])
    def test_non_torus_point_rejected(self, X, time_bound):
        # off the torus points simple_slopes never ends and B divides by 0
        for f in (ob.thurston_ball_B, ob.point_symmetry_order,
                  lambda X: ob.simple_slopes(X, 5.0),
                  lambda X: ob.cone_count(X, 0, 5.0),
                  lambda X: ob.count_orbit_word(X, "aabAb", 5.0),
                  lambda X: ob.count_orbit_word_bruteforce(X, "aabAb", 5.0)):
            with time_bound(3), \
                    pytest.raises(ValueError, match="not a torus point"):
                f(X)

    def test_positive_and_monotone(self):
        b1 = ob.thurston_ball_B(MODULAR)
        b2 = ob.thurston_ball_B((4.0, 4.0, 4.0))
        assert b1 > b2 > 0  # longer systole means smaller unit ball

    @pytest.mark.parametrize("X", [MODULAR, GENERIC, THIN_DRAW])
    def test_angle_order_is_exact(self, X, monkeypatch):
        # the float angle key sorts the walk's marks (in place) as the exact
        # key (+-1, 0) first, then p/q decreasing, does
        _, marks = ball_walk(X, monkeypatch)
        got = [s for s, _ in marks]
        assert len(got) > 10
        assert got == sorted(got, key=exact_angle_key)

    def test_thin_part_matches_mpmath(self, slope_trace, monkeypatch):
        # B's dominant terms hold the short slope, whose trace keeps its
        # digits in the walk's fixed point because the systole is a
        # coordinate of the point's reduced triple
        b, marks = ball_walk(THIN_DRAW, monkeypatch)
        want = mp_ball(THIN_DRAW, marks, slope_trace)
        assert abs(b - want) <= 1e-14 * want

    @pytest.mark.parametrize("base", [GENERIC, (3.3, 3.3, 5.445)])
    @pytest.mark.parametrize("word", ["T", "tU", "UUt"])
    def test_moved_float_base_matches_mpmath(self, base, word, slope_trace,
                                             monkeypatch):
        # B walks from the point's reduced triple in 2^-64 fixed point, not
        # from its rounding to doubles: at a moved float base, against the
        # polygon at 60 digits on the moved doubles themselves
        X = moved(base, word)
        b, marks = ball_walk(X, monkeypatch)
        want = mp_ball(X, marks, slope_trace)
        assert abs(b - want) <= 1e-14 * want

    def test_integral_multicurves_track_B(self):
        X = GENERIC
        B = ob.thurston_ball_B(X)
        L = 40.0
        n = ob.integral_multicurve_count(X, L)
        assert n / (L * L * B) == pytest.approx(1.0, rel=0.1)


def laurent_tau_measure(l1, ell, L):
    """Measure of {tau : l_aabAb(ell, tau) <= L} in closed form.  aabAb has
    two b-letters, so its trace along the line is c2 e^tau + c0 + c-2 e^-tau:
    the c's come from three mpmath chart traces, and the ends of the
    sublevel set |tr| <= 2 cosh(L/2) from two quadratics in e^tau."""
    with mpmath.workdps(60 + int(2 * ell)):
        taus = (-1, 0, 1)
        rows = [[mpmath.exp(t), 1, mpmath.exp(-t)] for t in taus]
        c2, c0, cm2 = mpmath.lu_solve(
            mpmath.matrix(rows),
            mpmath.matrix([mp_chart_trace("aabAb", l1, ell, t) for t in taus]))
        # the three-term form holds off the sample points too
        tr = mp_chart_trace("aabAb", l1, ell, 3)
        assert abs(c2 * mpmath.e ** 3 + c0 + cm2 * mpmath.e ** -3 - tr) \
            <= mpmath.mpf(10) ** -40 * abs(tr)
        # one sign: |tr| is convex in tau
        sign = 1 if c2 > 0 else -1
        c2, c0, cm2 = sign * c2, sign * c0, sign * cm2
        assert cm2 > 0

        def width(C):
            # log-measure of {X > 0 : c2 X + c0 + cm2 / X <= C}
            b = C - c0
            disc = b * b - 4 * c2 * cm2
            if b <= 0 or disc <= 0:
                return 0.0
            return float(2 * mpmath.log(b + mpmath.sqrt(disc))
                         - mpmath.log(4 * c2 * cm2))
        C = 2 * mpmath.cosh(mpmath.mpf(L) / 2)
        return width(C) - width(-C)


def bisection_tau_measure(f, ell, L):
    """The twist measure by plain bisection: the shell and golden-section
    search of ob._tau_measure, then 53 halvings of each end, each of which
    evaluates f (the routine before the secant-bracketed replay)."""
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
        raise ArithmeticError("unbounded")
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = -T, T
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = g(c), g(d)
    while fc > L and fd > L:
        if b - a < T * 2.0 ** -20:
            return 0.0
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = g(d)
    start = c if fc <= L else d
    ends = []
    for outside in (T, -T):
        inside = start
        for _ in range(53):
            m = 0.5 * (inside + outside)
            if g(m) <= L:
                inside = m
            else:
                outside = m
        ends.append(inside)
    return ends[0] - ends[1]


def counted(f):
    """f and a one-element list that counts its calls."""
    calls = [0]

    def g(ell, tau):
        calls[0] += 1
        return f(ell, tau)
    return g, calls


class TestTwistMeasure:
    @pytest.mark.parametrize("l1", [0.0, 0.7])
    @pytest.mark.parametrize("L", [9.0, 12.0, 30.0])
    def test_matches_laurent_closed_form(self, L, l1):
        f = fs._gamma_length_fn("aabAb", l1)
        for ell in (0.5, 1.0, 2.5, 6.0, 12.0, 27.2):
            want = laurent_tau_measure(l1, ell, L)
            assert ob._tau_measure(f, ell, L) == pytest.approx(
                want, abs=1e-9), ell

    @pytest.mark.parametrize("l1", [0.0, 0.7])
    @pytest.mark.parametrize("gamma", ["aaBabb", "aabAbAbb", "abbaBAAb"])
    def test_one_interval_on_grid(self, gamma, l1):
        # a midpoint grid over [-G, G] crosses the threshold at most twice
        # (the sublevel set is one interval) and measures it to one step
        h, G, L = 0.02, 32.0, 20.0
        f = fs._gamma_length_fn(gamma, l1)
        for ell in (1.0, 6.0):
            inside = [f(ell, -G + h * (k + 0.5)) <= L
                      for k in range(round(2 * G / h))]
            assert not (inside[0] or inside[-1])
            assert sum(a != b for a, b in zip(inside, inside[1:])) <= 2
            assert ob._tau_measure(f, ell, L) == pytest.approx(
                h * sum(inside), abs=h)


    @pytest.mark.parametrize("gamma", ["aabAb", "aaBabb", "aabbAB"])
    def test_equals_plain_bisection(self, gamma):
        # the bracketed secant only spares evaluations: every midpoint of
        # the bisection gets the answer f would give, so the measure is
        # the plain bisection's bit for bit, thin, thick and empty lines
        rng = np.random.default_rng(16)
        widths = []
        for l1 in (0.0, 0.7):
            f = fs._gamma_length_fn(gamma, l1)
            ells = [1e-3, 0.02, 15.0, 30.0] + \
                list(10.0 ** rng.uniform(-2.0, 1.3, size=4))
            for ell in ells:
                L = float(rng.uniform(3.0, 40.0))
                want = bisection_tau_measure(f, ell, L)
                assert ob._tau_measure(f, ell, L) == want, (l1, ell, L)
                widths.append(want)
        assert 0.0 in widths and sum(w > 0 for w in widths) >= 6

    def test_evaluation_count(self):
        # the two 53-step bisections were 106 of the ~112 evaluations of a
        # line; the secant leaves a handful of midpoints to evaluate
        f = fs._gamma_length_fn("aabAb", 0.0)
        counts = []
        for L in (9.0, 12.0, 30.0):
            for ell in (0.5, 1.0, 2.5, 6.0):
                g, calls = counted(f)
                assert ob._tau_measure(g, ell, L) > 0
                g_old, calls_old = counted(f)
                bisection_tau_measure(g_old, ell, L)
                assert calls[0] < calls_old[0], (ell, L)
                counts.append(calls[0])
                g, again = counted(f)
                ob._tau_measure(g, ell, L)
                assert again == calls
        assert sorted(counts)[len(counts) // 2] <= 45, counts


class TestBallVolume:
    def test_region_volume_scales(self):
        # boundary effects are still visible at this scale; the tight
        # [3.8, 4.2] window is only demanded at L = 50
        v1 = ob.ball_length_region_volume("aabAb", 12.5)
        v2 = ob.ball_length_region_volume("aabAb", 25.0)
        assert v1 > 0
        assert 3.0 <= v2 / v1 <= 5.5

    def test_non_filling_rejected(self):
        with pytest.raises(ValueError):
            ob.ball_length_region_volume("abaB", 20.0)

    # the volumes as the plain bisection of each twist line gave them
    @pytest.mark.parametrize("gamma, L, l1, want", [
        ("aabAb", 30.0, 0.0, "798.4623437003264"),
        ("aabAb", 10.0, 0.0, "55.75504577374852"),
        ("aaBabb", 12.0, 0.7, "73.38487152864275"),
        ("aabbAB", 10.0, 0.0, "79.71780633726678"),
    ])
    def test_pinned_volumes(self, gamma, L, l1, want):
        assert repr(ob.ball_length_region_volume(gamma, L, l1=l1)) == want

    def test_unfolding_identity_with_involution_factor(self):
        # -I maps aabbAB to another curve (iota = 2): the counts and the
        # volume must both carry the factor, or the sides differ by 2
        vol, avg, se = ob.ball_volume_and_average("aabbAB", 10.0,
                                                  mc_samples=1000, seed=0)
        assert abs(avg - vol) <= 3.0 * se
        assert vol == pytest.approx(79.72, abs=0.01)


class TestMonteCarlo:
    @pytest.mark.parametrize("l1", [2.0, 4.0])
    def test_systole_cap_is_equilateral(self, l1):
        # the cap is the systole of the equilateral triple x = y = z of
        # kappa = -2 cosh(l1/2), the root x >= 3 of x^3 - 3x^2 = c
        c = 2.0 * math.cosh(l1 / 2.0) - 2.0
        x = float(mpmath.findroot(lambda v: v ** 3 - 3 * v ** 2 - c, 3.5))
        assert x > 3.0
        assert ob._torus_kappa((x, x, x)) == \
            pytest.approx(-2.0 * math.cosh(l1 / 2.0), rel=1e-14)
        systole = min(tr for _, tr in ob.simple_slopes((x, x, x), 3.0))
        assert systole == pytest.approx(x, rel=1e-15)
        assert ob._systole_cap(l1) == \
            pytest.approx(length_trace(x), rel=1e-14)
        assert ob._systole_cap(l1) > ob.SYSTOLE_TOP

    def test_systole_cap_at_cusp(self):
        # the cusp's draws stay those of SYSTOLE_TOP, bit for bit
        assert ob._systole_cap(0.0) == ob.SYSTOLE_TOP
        assert length_trace(3.0) < ob.SYSTOLE_TOP

    def test_unfolding_identity_with_boundary(self):
        # at l1 = 4 the maximal systole is 2.29; draws capped at
        # SYSTOLE_TOP = 1.93 missed part of moduli space and read
        # 135.7 +- 0.9 against 163.2 (-30 sigma)
        vol, avg, se = ob.ball_volume_and_average(
            "aabAb", 16.0, mc_samples=1000, seed=0, l1=4.0)
        assert abs(avg - vol) <= 3.0 * se

    @pytest.mark.parametrize("l1", [0.0, 4.0])
    def test_fundamental_domain_as_slope_walk(self, monkeypatch, l1):
        # a sample reads the systole's trace off the canonical triple; the
        # rule written out here walks the slopes up to ell and accepts when
        # none is shorter than the coordinate curve.  An accepted sample
        # counts one family length (iota / 1 > 0), a rejected one 0
        monkeypatch.setattr(ob, "_family_lengths", lambda *args: ([0.0], {}))
        accepted = 0
        for i in range(2000):
            rng = np.random.Generator(np.random.Philox(key=[0, i]))
            u1, u2, u3 = rng.random(3)
            ell = ob._systole_cap(l1) * max(u1, u2)
            t = fricke_triple(SurfacePoint(S11, (l1,), ell, u3 * ell))
            shortest = min(tr for _, tr in ob.simple_slopes(t, ell + 1e-6))
            accept = shortest >= 2.0 * math.cosh(ell / 2.0) * (1.0 - 1e-12)
            value = ob._mc_sample_value((i, 0, "aabAb", 30.0, l1, 1))
            assert (value > 0) == accept, i
            accepted += accept
        assert 0 < accepted < 2000

    def test_sample_count_independent_of_prune_constant(self):
        # sample 54 of seed 1 is a thin draw where a BFS pruned at 1.5 L
        # fails its validation (TestTwistFamilies); the twist-family count
        # has no prune constant
        args = (54, 1, "aabAb", 16.0, 0.0, 1)
        assert ob._mc_sample_value(args) == 756.0

