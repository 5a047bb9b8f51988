"""Mapping-class orbit counting: simple curves, general words, volumes."""

import collections
import hashlib
import importlib.util
import itertools
import json
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from teichlab import farey
from teichlab import fn_surface as fs
from teichlab import fricke
from teichlab import orbit as ob
from teichlab.fn_surface import S11, SurfacePoint, fricke_triple
from teichlab.fricke import (_plan_eval_bounded, _plan_eval_fixed,
                             _trace_length, _trace_plan, canonical_cyclic,
                             cyclic_reduce, is_peripheral_word, length_trace,
                             reduce_word, trace_word_fricke)


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
                           *([t[i] for t in ts] for i in range(3)), None, k)
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
        ell, tau = ob._mc_draw(4, 917568896, 0.0)
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
        assert ob._word("a").power == 1
        assert ob._word("aa").power == 2
        assert ob._word("abab").power == 2
        assert ob._word("abaB").power == 0

    def test_peripheral(self):
        assert is_peripheral_word("abAB")
        assert not is_peripheral_word("ab")

    def test_symmetry_order_infinite_for_nonfilling(self):
        # tr(abaB) = x^2 + 2 is twist invariant: infinite stabilizer
        assert ob._word("abaB").sym == 0
        assert ob._word("aabb").sym == 0

    def test_symmetry_order_finite_for_filling(self):
        # aabbAABB is fixed by S (a -> b, b -> A); an element of order 3
        # fixes the other four (TestShortWords pins a count of aaBABAbb)
        assert ob._word("aabAb").sym == 1
        assert ob._word("aabbAABB").sym == 2
        for w in ("aaBABAbb", "aaBBAbAb", "aabAbABB", "aabbABAB"):
            assert ob._word(w).sym == 3, w
        assert ob._word("abaB").sym == 0
        assert ob._word("aabAB").sym == 0
        assert ob._word("aabbAB").sym == 1
        assert ob._word("aabbAB").iota == 2

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
        # cone count walks once; a simple-power count walks once for its
        # whole grid
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
            walks.clear()
            ob.count_orbit_word(X, "aab", 30.0)
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
        ((54, 1, "aabAb", 16.0, 0.0), True),
        ((41, 0, "aabAb", 16.0, 0.0), False)])
    def test_one_conversion_per_mc_draw(self, args, accepted, monkeypatch):
        # a draw is charted once in fixed point, at the count's k, and
        # converts no triple; the fundamental-domain test and the count
        # share that point
        calls = count_conversions(monkeypatch)
        charts = []
        chart = ob._chart_fixed

        def spy(*args):
            charts.append(args)
            return chart(*args)
        monkeypatch.setattr(ob, "_chart_fixed", spy)
        assert (ob._mc_sample_value(args) > 0) == accepted
        assert not calls
        assert [c[3] for c in charts] == [ob._family_bits("aabAb", args[3])]

    @pytest.mark.parametrize("X", [GENERIC, (3, 4, 5)])
    @pytest.mark.parametrize("gamma", ["aabAb", "abaB", "aab"])
    def test_one_torus_check_per_count(self, X, gamma, monkeypatch):
        # the report's kappa is that of the one check of X (_point_kappa)
        calls = []
        check = ob._torus_kappa
        monkeypatch.setattr(ob, "_torus_kappa",
                            lambda t: calls.append(t) or check(t))
        rep = ob.count_orbit_word(X, gamma, 9.0)
        assert calls == [X]
        assert rep.metadata["kappa"] == check(X)

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
                    and not ob._word(w).power:
                words.add(w)
    return sorted(words, key=lambda w: (len(w), w))


def classes(n):
    """The canonical classes of 1 to n letters that are not peripheral,
    shortest first, then in code-point order."""
    return sorted((w for m in range(1, n + 1)
                   for w in map("".join, itertools.product("abAB", repeat=m))
                   if canonical_cyclic(w) == w and not is_peripheral_word(w)),
                  key=lambda w: (len(w), w))


# sha256 of the JSON list of [class, simple power, |Sym|, representative,
# iota] over classes(8), as simple_power, curve_symmetry_order and the
# representative's own function gave them before one record held all four
CLASSES_8 = "93a3037a3baf6a07e794a7fb2e7658c2e46c46b172911deb398500c113eab633"


class TestOneWord:
    def test_record_matches_the_classification(self):
        rows = []
        for w in classes(8):
            word = ob._word(w)
            assert word.gamma == w
            rows.append([w, word.power, word.sym, word.rep, word.iota])
        assert len(rows) == 691
        assert sum(r[1] > 0 for r in rows) == 72
        assert sum(r[2] == 0 for r in rows) == 120
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
            CLASSES_8
        # bounded: one record per word, at most 1024 words
        assert ob._word.cache_info().maxsize == 1024

    def test_twist_fixed_exactly_when_sym_is_infinite(self):
        # the twist walk reads T-fixedness off the record (sym == 0)
        words = [ob._word(w) for w in classes(8)]
        words = [word for word in words if not word.power]
        assert len(words) == 619
        for word in words:
            fixed = ob._word_images(word.rep, "T") == [word.rep]
            assert (word.sym == 0) == fixed, word

    @pytest.mark.parametrize("gamma", ["aabAb", "abaB", "aab"])
    def test_warm_count_classifies_nothing(self, gamma, monkeypatch):
        # the record is cached: a second count, the twist walk and an MC
        # sample after the first take no canonical form
        ob.count_orbit_word(GENERIC, gamma, 9.0)
        ob._mc_sample_value((54, 1, "aabAb", 16.0, 0.0))
        calls = []
        for module in (ob, fricke):
            monkeypatch.setattr(module, "canonical_cyclic",
                                lambda w, f=canonical_cyclic:
                                calls.append(w) or f(w))
        ob.count_orbit_word(GENERIC, gamma, 9.0)
        assert ob._mc_sample_value((56, 1, "aabAb", 16.0, 0.0)) > 0
        ob._family_lengths(ob._point(GENERIC, ob._family_bits("abaB", 9.0)),
                           ob._word("abaB"), 9.0)
        assert not calls

    @pytest.mark.parametrize("gamma", ["", "aA", "abAB", "BAba", "abABabAB"])
    def test_empty_or_peripheral_rejected(self, gamma):
        for f in (lambda: ob.count_orbit_word(MODULAR, gamma, 9.0),
                  lambda: ob.count_orbit_word_bruteforce(MODULAR, gamma, 9.0),
                  lambda: ob.require_filling(gamma)):
            with pytest.raises(ValueError, match="peripheral"):
                f()

    def test_infinite_sym_needs_a_twist_fixed_image(self, monkeypatch):
        # the twist walk counts one node per family when Sym is infinite,
        # which holds only at an image that T fixes
        monkeypatch.setattr(ob, "_symmetry", lambda key: (0, None))
        with pytest.raises(ArithmeticError, match="fixed by T"):
            ob._word.__wrapped__("abaB")


class TestShortWords:
    @pytest.mark.parametrize("X, L", [(MODULAR, 8.0), (GENERIC, 10.0)])
    def test_every_short_word_matches_brute_force(self, X, L):
        # one engine for every non-simple word: the twist families at the
        # orbit representative, infinite Sym included
        words = short_words(6)
        assert len(words) == 74
        assert sum(ob._word(w).sym == 0 for w in words) == 36
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
        assert ob._word("aabbabb")[3:5] == ("aaBAB", 1)
        assert ob._word("aabbAB")[3:5] == ("aabbAB", 2)
        for w, iota in (("abaB", 1), ("aabAB", 2)):
            assert ob._word(w)[3:5] == (w, iota)
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
        assert ob._symmetry(word) == (1, "aaBAB")
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
    sym = ob._word(gamma).sym
    iota = ob._word(gamma).iota
    return [sum(v <= g for v in lengths) * aut * iota // sym for g in grid]


def mc_triple(seed, i, l1=0.0):
    """The float triple of MC sample i of seed (orbit._mc_draw)."""
    ell, tau = ob._mc_draw(i, seed, l1)
    t = fricke_triple(SurfacePoint(S11, (l1,), ell, tau))
    return (t.x, t.y, t.z)


def walk_family(node, gamma, L, k, kappa, twist_fixed):
    """The oracle of the lockstep twist walk: one family walked on its own,
    downhill from n = 0 to the minimum of the convex l_gamma, then outward
    on both sides until l_gamma > L, that is |tr| > _trace_bound(L, k)
    (n = 0 alone when T fixes gamma); returns (the traces |tr| of the
    nodes with l_gamma <= L, {n: node(n)} for every node evaluated).  Each
    node's trace comes from the scalar _plan_eval_bounded, its bound
    unused, apart from the walk's list passes, by the walk's own
    normal-form plan at the point's kappa: at a symmetric point two nodes
    tie in exact arithmetic, and the walk goes the way its rounding
    decides."""
    plan = fricke._normal_plan(gamma)
    nodes, trs = {}, {}

    def tr(n):
        if n not in trs:
            nodes[n] = node(n)
            trs[n] = abs(_plan_eval_bounded(plan, *nodes[n], kappa,
                                            (0, 0, 0, 0), k)[0])
        return trs[n]

    bound = ob._trace_bound(L, k)
    if twist_fixed:
        return [tr(0)] if tr(0) <= bound else [], nodes
    m = 0
    for step in (1, -1):  # downhill to the right, else to the left
        while tr(m + step) < tr(m):
            m += step
        if m:
            break
    found = []
    for n, step in ((m, 1), (m - 1, -1)):
        while tr(n) <= bound:
            found.append(tr(n))
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
    ob._word(w).rep for w in ("aabbAB", "aaBabb", "aabAbAbb")] + [
    "aabbAABB", "abaB"]


class TestTwistFamilies:
    def test_matches_bfs_on_mc_draws(self):
        # the first 20 accepted MC draws of seed 0 at L = 16, the BFS at the
        # prune constant of the MC samples
        L, grid = 16.0, [8.0, 12.0, 16.0]
        done = 0
        for i in itertools.count():
            args = (i, 0, "aabAb", L, 0.0)
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
        marks = ob._farey_walk(ob._point(GENERIC, k), L)
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
        # per family: the found lengths; over all families: the multiset
        # of the nodes evaluated, their largest coordinate, and the passes
        evaluated = []

        def spy(plan, xs, ys, zs, kappa, k):
            evaluated.extend(zip(xs, ys, zs))
            return _plan_eval_fixed(plan, xs, ys, zs, kappa, k)
        monkeypatch.setattr(ob, "_plan_eval_fixed", spy)
        for gamma, L in itertools.product(WALK_WORDS, (9.0, 12.5, 16.0)):
            twist_fixed = gamma == "abaB"
            assert twist_fixed == (ob._word_images(gamma, "T")
                                   == [canonical_cyclic(gamma)])
            point = ob._point(
                X, ob._bits(60 + int(0.25 * len(gamma) * 1.5 * L)))
            marks, k = ob._farey_walk(point, L), point[2]
            evaluated.clear()
            kappa = ob._kappa_fixed(point[0], k)
            found, top, work = ob._twist_walk(marks, gamma, L, k, kappa,
                                              twist_fixed)
            want = collections.Counter()
            widest = 0
            for (_, mark), got in zip(marks, found):
                traces, nodes = walk_family(twist_node(mark, k), gamma, L,
                                            k, kappa, twist_fixed)
                assert sorted(got) == sorted(traces), (gamma, L, mark)
                want.update(nodes.values())
                widest = max(widest, max(nodes) - 1, -min(nodes))
            assert collections.Counter(evaluated) == want, (gamma, L)
            assert top == max([v for t in evaluated for v in t], default=0)
            assert work == {"evaluations": len(evaluated),
                            "steps": 1 + widest}

    @pytest.mark.parametrize("k", [0, 299])
    @pytest.mark.parametrize("L", [7.0, 9.0, 12.0, 16.0, 30.0])
    def test_trace_cut_decides_as_the_length(self, k, L):
        # the walk decides l <= L as t <= T = _trace_bound(L, k) and takes
        # no length: at T and one unit inside and outside each edge of the
        # relative 2^-20 band around it, whose top T + T 2^-20 + 1 is the
        # slope cut's (_farey_walk), it decides as the length does, but
        # within 2^-40 of T above it at k = 299, where the float length
        # rounds to L
        n, d = (2.0 * math.cosh(L / 2.0)).as_integer_ratio()
        bound = (n << k) // d
        assert ob._trace_bound(L, k) == bound
        band = bound >> 20
        traces = [bound + j for j in range(-3, 4)]
        for edge in (bound - band, bound + band, bound + band + 1):
            traces += [edge - 1, edge, edge + 1]
        for t in traces:
            if (t <= bound) != (_trace_length(t, k, "aabAb") <= L):
                assert k and 0 < t - bound <= bound >> 40, t - bound

    def test_top_band_family_raises(self, monkeypatch):
        # a non-empty family of a slope with l_s > L - band fails the count
        monkeypatch.setattr(ob, "_TOP_BAND", 9.0)
        with pytest.raises(ArithmeticError, match="non-empty"):
            ob.count_orbit_word(GENERIC, "aabAb", 9.0)

    def test_work_counters(self):
        # one family per slope with c tr s <= T_L: aabAb's cut c = 4, so
        # fewer than count_simple; no slope lies in the 2^-20 slack
        L = 9.0
        rep = ob.count_orbit_word(GENERIC, "aabAb", L)
        meta = rep.metadata
        k = meta["k"]
        bound = ob._trace_bound(L, k)
        marks = ob._farey_walk(ob._point(GENERIC, k), L)
        assert meta["cut"] == 4
        assert meta["families"] == sum(4 * m[0] <= bound for _, m in marks)
        assert meta["families"] == sum(
            4 * m[0] <= bound + (bound >> 20) + 1 for _, m in marks)
        assert meta["families"] < len(marks) == ob.count_simple(GENERIC, L)
        assert rep.orbit_nodes == meta["evaluations"] >= 3 * meta["families"]
        assert k == ob._bits(60 + int(0.25 * 5 * 1.5 * L))
        assert ob.count_orbit_word(MODULAR, "aabAb", L).metadata["k"] == 0


# tools/same_results.py's bases: integral ones, where the walk is exact at
# k = 0, and float ones
_SAME_RESULTS = importlib.util.spec_from_file_location(
    "same_results", Path(__file__).resolve().parents[1] / "tools"
    / "same_results.py")
same_results = importlib.util.module_from_spec(_SAME_RESULTS)
_SAME_RESULTS.loader.exec_module(same_results)
# the thin chart points of WALK_POINTS and of the chart's thin row
# (ell = 1e-3), and two MC draws at boundary length l1 = 4
CUT_POINTS = list(same_results.BASES) + WALK_POINTS[-2:] + [
    chart_triple(1e-3, 0.7), mc_triple(0, 0, 4.0), mc_triple(0, 1, 4.0)]


def negative_K0(X, L):
    """Whether K0 = -2 - kappa0 of X's point at aabaaB's bits for L rounds
    below 0."""
    node, _, k = ob._point(X, ob._family_bits("aabaaB", L))
    return ob._kappa_fixed(node, k) > -(2 << k)


def uncut(gamma, word=ob._word):
    """gamma's record with no slope cut: every slope with l_s <= L."""
    return word(gamma)._replace(cut=None)


class TestSlopeCut:
    def test_pinned_cuts(self):
        # aabAb = yz + (3 + K) x, abaB = x^2 + 2 + K, aabAB = -(3 + K) x;
        # aabbAB = z - (4 + K) xy has coefficients of both signs
        assert [ob._word(w).cut for w in ("aabAb", "abaB", "aabAB",
                                          "aabbAB")] == [4, 2, 3, None]
        # 41 of the 246 non-simple representatives of <= 8 letters; six
        # more have coefficients of one sign but c = 0.  aabaaB's K x^2 has
        # no K-free partner, and its cut holds all the same (K+ >= 0)
        reps = {ob._word(w).rep for w in classes(8) if not ob._word(w).power}
        assert len(reps) == 246
        assert sum(bool(ob._word(r).cut) for r in reps) == 41
        assert ob._word("aabaaB").cut == 8
        assert ob._word("aab").cut is None  # a simple word walks no family

    @pytest.mark.parametrize("X", CUT_POINTS)
    def test_no_node_below_the_bound(self, X, monkeypatch):
        # a hunt for counterexamples of the lemma of _family_lengths: every
        # node that the uncut walk evaluates, for every certified
        # representative of <= 8 letters, has |tr| >= c x, exactly at k = 0
        # and within the relative 2^-22 of the proof at a float point.  The
        # walk reads the point's kappa clamped at -2, as the count does:
        # K+ = max(K0, 0), where K0 rounds below 0 at some of the points
        assert any(negative_K0(P, 12.0) for P in CUT_POINTS)
        seen = []

        def spy(plan, xs, ys, zs, kappa, k):
            trs = _plan_eval_fixed(plan, xs, ys, zs, kappa, k)
            seen.extend(zip(xs, trs))
            return trs
        monkeypatch.setattr(ob, "_plan_eval_fixed", spy)
        L = 12.0
        reps = sorted({ob._word(w).rep for w in classes(8)
                       if not ob._word(w).power and ob._word(w).cut})
        for rep in reps:
            word = ob._word(rep)
            point = ob._point(X, ob._family_bits(rep, L))
            k = point[2]
            seen.clear()
            ob._twist_walk(ob._farey_walk(point, L), rep, L, k,
                           min(ob._kappa_fixed(point[0], k), -(2 << k)),
                           word.sym == 0)
            assert seen
            for x, t in seen:
                cx = word.cut * x
                assert abs(t) >= cx - (cx >> 22 if k else 0), (rep, x, t)

    def test_one_more_changes_mc_counts(self, monkeypatch):
        # the cut is sharp: aabAb's c + 1 = 5 drops curves of length <= L
        # from criterion 11's first seed-0 samples
        args = [(i, 0, "aabAb", 30.0, 0.0) for i in range(5)]
        want = [ob._mc_sample_value(a) for a in args]
        word = ob._word("aabAb")
        monkeypatch.setattr(ob, "_word",
                            lambda g: word._replace(cut=word.cut + 1))
        got = [ob._mc_sample_value(a) for a in args]
        assert any(a > 0 for a in want)
        assert all(g <= w for g, w in zip(got, want))
        assert got != want

    @pytest.mark.parametrize("X", same_results.BASES)
    def test_counts_as_uncut(self, X, monkeypatch):
        # the ORB1 report of each word of the table with the cut forced off
        # differs only in its work: fewer families, evaluations and nodes
        reports = {}
        for cut in (True, False):
            if not cut:
                monkeypatch.setattr(ob, "_word", uncut)
            for gamma, L in same_results.ORB_WORDS:
                rep = json.loads(ob.count_orbit_word(X, gamma, L).to_json())
                meta = rep["metadata"]
                reports[cut, gamma] = rep, [meta.pop(key) for key in (
                    "cut", "families", "evaluations")] + \
                    [rep.pop("orbit_nodes")]
        for gamma, _ in same_results.ORB_WORDS:
            (got, work), (want, uncut_work) = (reports[True, gamma],
                                               reports[False, gamma])
            assert got == want, gamma
            assert uncut_work[0] == 1
            assert [a <= b for a, b in zip(work[1:], uncut_work[1:])] == \
                [True] * 3, gamma

    @pytest.mark.parametrize("L, l1", [(16.0, 0.0), (30.0, 0.0),
                                       (16.0, 4.0), (30.0, 4.0)])
    def test_mc_samples_as_uncut(self, L, l1, monkeypatch):
        # seeds 0 and 1, the first 20 samples each
        args = [(i, seed, "aabAb", L, l1) for seed in (0, 1)
                for i in range(20)]
        want = [ob._mc_sample_value(a) for a in args]
        monkeypatch.setattr(ob, "_word", uncut)
        assert [ob._mc_sample_value(a) for a in args] == want
        assert sum(v > 0 for v in want) >= 10

    def test_empty_walk_below_two(self):
        # 2 cosh(L/2) / c < 2: no slope is walked, and no error (a length
        # cut, 2 acosh(cosh(L/2) / c), would raise there)
        for X in (MODULAR, GENERIC):
            rep = ob.count_orbit_word(X, "aabAb", 0.5)
            assert rep.counts == [0, 0, 0]
            assert rep.metadata["families"] == 0
            assert rep.metadata["cut"] == 4

    def test_negative_K0_keeps_the_cut(self, monkeypatch):
        # at float cusp points where K0 = -2 - kappa0 rounds below 0, the
        # first seed-0 MC draws and the thin chart point, aabaaB, whose
        # K x^2 has no K-free partner, keeps its cut 8 and counts as the
        # walk of every slope with l_s <= L
        L = 12.0
        points = [P for P in [mc_triple(0, i) for i in range(5)]
                  + [chart_triple(1e-2, 0.3 * 1e-2)] if negative_K0(P, L)]
        assert len(points) == 5
        reports = [ob.count_orbit_word(P, "aabaaB", L) for P in points]
        assert [r.metadata["cut"] for r in reports] == [8] * 5
        monkeypatch.setattr(ob, "_word", uncut)
        uncut_reports = [ob.count_orbit_word(P, "aabaaB", L) for P in points]
        assert [r.metadata["cut"] for r in uncut_reports] == [1] * 5
        assert [r.counts for r in reports] == \
            [r.counts for r in uncut_reports]
        assert all(r.metadata["families"] < u.metadata["families"]
                   for r, u in zip(reports, uncut_reports))


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
        # the bounds of x, y, z, kappa and of each word's trace at k, by
        # its group-algebra and its normal-form plan, hold against an
        # evaluation 4000 bits finer (whose own bound is added), on 500
        # points per l1 with ell log-uniform in [1e-3, 500] and tau = ell u,
        # |u| <= 2.3, and on the chart points
        rng = np.random.default_rng([1400, round(10 * l1)])
        ells = np.exp(rng.uniform(math.log(1e-3), math.log(500.0), 500))
        pts = [(float(e), float(e * rng.uniform(-2.3, 2.3))) for e in ells]
        pts += CHART_POINTS + [(1e-100, 0.3)]
        plans = [_trace_plan(w) for w in WORDS]
        plans += [fricke._normal_plan(w) for w in WORDS]
        ks = (80, 200, 600)
        K = max(ks) + 4000
        slack = []
        kappas = {k: fs._chart_kappa(l1, k, {}) for k in ks + (K,)}
        for ell, tau in pts:
            ref, ref_err = fs._chart_fixed(l1, ell, tau, K, {})
            ref, ref_err = ref + kappas[K][:1], ref_err + kappas[K][1:]
            ref_tr = [_plan_eval_bounded(p, *ref, ref_err, K) for p in plans]
            for k in ks:
                s = K - k
                t, errs = fs._chart_fixed(l1, ell, tau, k, {})
                t, errs = t + kappas[k][:1], errs + kappas[k][1:]
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
        # unseen (960 tries for 960 lengths at both l1: each f starts a
        # point from the k its last point needed, and none raises)
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
        assert tries == 960

    @pytest.mark.parametrize("l1", [0.0, 0.7])
    def test_normal_form_needs_no_more_bits(self, l1):
        # the least k at which a point's bound certifies its length, as
        # _gamma_length_fn reads it off one evaluation, by the normal-form
        # plan is at most 1 bit above the group-algebra plan's at seeded
        # ray and twist-line points, and below it at most of them; the
        # positive word abababbb and the power (aB)^4 read the most bits
        # above it in forms that keep xyz or expand the power
        pts = ray_points(14, 20)
        rng = np.random.default_rng([1403, round(10 * l1)])
        pts += [(float(e), float(t)) for e in rng.uniform(0.05, 4.0, 8)
                for t in rng.uniform(-32.0, 32.0, 6)]
        saved = []
        for gamma in WORDS + ["abababbb", "aBaBaBaB"]:
            plans = (_trace_plan(gamma), fricke._normal_plan(gamma))
            for ell, tau in pts:
                k = 104 + math.ceil((abs(ell) + abs(tau)) / (2 * math.log(2)))
                while True:
                    t, errs = fs._chart_fixed(l1, ell, tau, k, {})
                    kappa, ek = fs._chart_kappa(l1, k, {})
                    got = [_plan_eval_bounded(p, *t, kappa, (*errs, ek), k)
                           for p in plans]
                    if all(fs._certified_length(abs(tr), e, k, gamma)
                           is not None for tr, e in got):
                        break
                    k += 256
                walk, normal = (e.bit_length() + 62 + k
                                - (abs(tr) - (2 << k)).bit_length()
                                for tr, e in got)
                assert normal <= walk + 1, (gamma, ell, tau, walk, normal)
                saved.append(walk - normal)
        assert np.median(saved) > 0

    @pytest.mark.parametrize("p", [64, 100, 300, 1000, 2000])
    def test_exp_man_relative_error(self, p):
        # the kernel's man 2^exp is at most e^a and within its proven
        # 2^-(p-1) relative of mpmath's e^a at p + 4000 bits (the proof
        # gives 2^-p), for a from 0 and a subnormal up to near CHART_MAX / 2
        args = [0.0, 5e-324, 1e-300]
        args += [10.0 ** (i / 4.0) for i in range(-12, 12)]
        args += [900.0, fs.CHART_MAX / 2 - 0.123456789]
        with mpmath.workprec(p + 4000):
            for a in args:
                man, exp = fs._exp_man(a, p)
                want = mpmath.exp(mpmath.mpf(a))
                err = want - mpmath.ldexp(man, exp)
                assert 0 <= err <= mpmath.ldexp(want, 1 - p), (a, p)

    @pytest.mark.parametrize("k", [80, 600])
    def test_exp_memo_shifted_down_covers_error(self, k, monkeypatch):
        # a first request stores exactly k + 8 bits and one asked again at
        # more bits k + 8 plus the headroom; e^|h| so stored at 1300 + 8
        # bits plus the headroom and shifted down to scale 2^k, with no new
        # kernel call, lies within _exp_fixed's bounds at k of mpmath's at
        # k + 4000 bits, for both signs of h
        hs = [10.0 ** (i / 4.0) for i in range(-12, 12)] + [900.0]
        memo = {}
        for h in hs:
            fs._exp_fixed(h, 1200, memo)
        assert all(bits == 1208 for _, _, bits in memo.values())
        for h in hs:
            fs._exp_fixed(h, 1300, memo)
        assert all(bits == 1308 + fs._EXP_HEADROOM
                   for _, _, bits in memo.values())
        calls = []
        exp = fs._exp_man
        monkeypatch.setattr(fs, "_exp_man",
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

    def test_start_after_a_subnormal_point(self):
        # after a point of subnormal size the ratio of the two sizes
        # overflows; the start stays finite and the lengths equal a fresh
        # f's by repr
        pts = [(1e-320, 0.0), (1e-320, 3.0)]
        f = fs._gamma_length_fn("aabAb", 0.0)
        got = [repr(f(ell, tau)) for ell, tau in pts]
        assert got == [repr(fs._gamma_length_fn("aabAb", 0.0)(ell, tau))
                       for ell, tau in pts]

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
        exp = fs._exp_man
        monkeypatch.setattr(fs, "_exp_man",
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
                tr, e = _plan_eval_bounded(plan, *t, None, (0, 0, 0, 0), k)
                exact = trace_word_fricke(
                    tuple(Fraction(v, 2 ** k) for v in t), gamma)
                assert abs(Fraction(tr, 2 ** k) - exact) \
                    <= Fraction(e, 2 ** k), (gamma, k, t)
        # the normal-form plan, its kappa a free fourth input
        rng = np.random.default_rng(1402)
        plan = fricke._normal_plan(gamma)
        for k in (0, 1, 7, 64, 200):
            for _ in range(40):
                t = [int(v) for v in rng.integers(-2 ** 62, 2 ** 62, 4)]
                t = [v >> int(rng.integers(0, 60)) for v in t]
                tr, e = _plan_eval_bounded(plan, *t, (0, 0, 0, 0), k)
                exact = fricke._plan_eval(
                    plan, *(Fraction(v, 2 ** k) for v in t))
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

    @pytest.mark.parametrize("gamma, L, want", [
        ("aaaBAbb", 9.0, "pruning validation failed: 4 node(s)"),
        ("aabAbAbb", 12.0, "pruning validation failed: 6 node(s)"),
        ("aabAb", 9.0, 24)])
    def test_validation_fires_at_a_small_prune(self, gamma, L, want,
                                               monkeypatch):
        # at prune constant 1.2 the search misses classes of length <= L
        # that the validation pass finds among the pruned classes'
        # children, bounding and taking their lengths before their
        # canonical forms; the four-image search, which keys every child
        # first, finds as many
        monkeypatch.setattr(ob, "_ORACLE_PRUNE", 1.2)
        k = ob._bits(60 + int(0.5 * 1.2 * L))
        node, _, k0 = ob._point(MODULAR, k)
        mats = ob._rep_fixed(tuple(v << (k - k0) for v in node), k)

        def keyed_first():
            return len(ob._pruned_bfs(
                canonical_cyclic(gamma), lambda w: w, ob._word_images,
                lambda ws: [ob._word_length(mats, w, k) for w in ws], L,
                1.2, ob._ORACLE_NODES)[0])
        for count in (keyed_first,
                      lambda: ob.count_orbit_word_bruteforce(MODULAR, gamma,
                                                             L)):
            if isinstance(want, int):
                assert count() == want
            else:
                with pytest.raises(ArithmeticError, match=re.escape(want)):
                    count()

    def test_twist_floor_on_short_words(self):
        # the bound by which the validation pass skips a child holds for
        # every image of every class of <= 7 letters, and is sharp: a
        # stronger one fails here
        words = {canonical_cyclic("".join(t)) for n in range(1, 8)
                 for t in itertools.product("abAB", repeat=n)} - {""}
        k = ob._bits(80)
        worst = 0.0
        for X in (MODULAR, GENERIC, (5.0, 3.1, 7.2)):
            node, _, k0 = ob._point(X, k)
            mats = ob._rep_fixed(tuple(v << (k - k0) for v in node), k)
            la, lb = (ob._word_length(mats, c, k) for c in "ab")
            for w in words:
                lw = ob._word_length(mats, w, k)
                for g in ob.GENS:
                    image = ob._word_length(
                        mats, cyclic_reduce(w.translate(ob._AUTOS[g])), k)
                    low = ob._twist_floor(w, lw, g, la, lb)
                    assert image >= low - 1e-12 * lw, (X, w, g)
                    if low < lw:
                        worst = max(worst, (lw - image) / (lw - low))
        assert worst > 0.9999

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
                "aabAb", 9.0)), ob._word("aabAb"), 9.0)

    def test_drift_bound_covers_every_node(self, twist_node):
        # the Drift lemma of _family_lengths: at every node of every family
        # that aabAb's count at L = 12 walks, the measured drift
        # |_kappa_fixed(node) - kappa0| is below (2nM + 2M + 2) 2^-k, with
        # the nodes regenerated apart from the walk.  The count raises
        # exactly when 10^7 times that bound passes max(1, |kappa0|), so
        # wherever the old check at the two outermost nodes of each
        # non-empty family raised.  Some cases lie within a factor 2 above
        # that threshold, where a bound half as large would not raise
        L, word = 12.0, ob._word("aabAb")
        points = [GENERIC, (5, 3.1, 7.2)] + WALK_POINTS[-2:] + [
            chart_triple(1e-3, 0.7)] + [mc_triple(0, i) for i in range(40)] \
            + [mc_triple(0, i, 4.0) for i in range(10)]
        ratios, old_raised = [], 0
        for X, k in itertools.product(points, [16, 24, 32, 48, 64,
                                               ob._family_bits("aabAb", L)]):
            if min(ob._fixed_root(X, k)[0]) <= 2 << k:
                continue  # 16 bits round two thin points' x down to 2
            point = ob._point(X, k)
            marks = ob._farey_walk(point, L, word.cut)
            kappa0 = ob._kappa_fixed(point[0], k)
            families = [walk_family(twist_node(mark, k), "aabAb", L, k,
                                    min(kappa0, -(2 << k)), False)
                        for _, mark in marks]
            nodes = [t for _, ns in families for t in ns.values()]
            steps = max([1] + [max(max(ns), 1 - min(ns))
                               for _, ns in families])
            n = len(marks) + steps + 2
            top = max([*point[0], *(v for t in nodes for v in t)])
            # the bound and the drift scaled by 2^(2k), exact ints
            bound = (2 * n + 2) * top + (2 << k)
            assert all(abs(ob._kappa_fixed(t, k) - kappa0) << k < bound
                       for t in nodes), (X, k)
            tol = max(1 << k, abs(kappa0))
            old = any(abs(ob._kappa_fixed(ns[end], k) - kappa0) * 10 ** 7
                      > tol for got, ns in families if got
                      for end in (min(ns), max(ns)))
            fires = bound * 10 ** 7 > tol << k
            try:
                ob._family_lengths(point, word, L)
                raised = False
            except ArithmeticError as e:
                raised = "kappa drifted" in str(e)
            assert raised == fires, (X, k)
            assert fires or not old, (X, k)
            old_raised += old
            ratios.append(bound * 10 ** 7 / (tol << k))
        assert len(ratios) == 328 and old_raised > 100
        assert any(1 < r <= 2 for r in ratios)
        assert any(r <= 1 for r in ratios)

    def test_triple_orbit_abort_keeps_dps(self, monkeypatch):
        monkeypatch.setattr(ob, "_FAMILY_STEPS", 2)
        dps = mpmath.mp.dps
        with pytest.raises(ArithmeticError, match="exceeded"):
            ob._family_lengths(ob._point(GENERIC, ob._family_bits(
                "aabAb", 30.0)), ob._word("aabAb"), 30.0)
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
    marks, = walks
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

    @pytest.mark.parametrize("gamma", ["aabAb", "aaBabb", "aabbAB"])
    def test_empty_lines_exit_early(self, gamma):
        # a line with no tau where l <= L ends once the chords bound the
        # length above L over the bracket: the plain bisection's 0.0 from
        # the shell and the first two golden-section points on lines far
        # from L, and, on lines within 2^-20 of their minimum on either
        # side of L, the plain bisection's measure too
        f = fs._gamma_length_fn(gamma, 0.0)
        for ell, L in ((0.02, 8.0), (2.0, 5.0), (20.0, 12.0)):
            g, calls = counted(f)
            assert ob._tau_measure(g, ell, L) == 0.0
            assert calls[0] <= 9
            assert bisection_tau_measure(f, ell, L) == 0.0
        ell = 3.0
        taus = np.linspace(-12.0, 12.0, 2401)
        t0 = taus[np.argmin([f(ell, t) for t in taus])]
        low = min(f(ell, t0 + d) for d in np.linspace(-0.01, 0.01, 201))
        for L in (low * (1.0 - 2.0 ** -20), low * (1.0 + 2.0 ** -20)):
            g, calls = counted(f)
            got = ob._tau_measure(g, ell, L)
            g_old, calls_old = counted(f)
            assert got == bisection_tau_measure(g_old, ell, L)
            assert calls[0] <= calls_old[0]

    def test_chord_floor_bounds_convex_functions(self):
        # the floor over [a, b] from a few points of a convex g is at most
        # g anywhere in [a, b]; for the maximum of two lines, with two
        # points on each, it is the minimum to rounding
        rng = random.Random(5)
        for _ in range(300):
            c, s = rng.uniform(-5, 5), rng.uniform(0.1, 3)
            h = rng.uniform(0, 4)

            def g(t):
                return h + math.cosh(s * (t - c))
            ts = sorted({rng.uniform(-10, 10)
                         for _ in range(rng.randint(2, 12))})
            known = {t: g(t) for t in ts}
            i, j = sorted(rng.sample(range(len(ts)), 2))
            floor = ob._chord_floor(known, ts[i], ts[j])
            assert floor <= min(g(t) for t in np.linspace(ts[i], ts[j], 1001))
        for c, m in ((0.3, 1.0), (-2.0, 0.2), (1.5, 7.0)):
            def v(t):
                return 9.0 + max(m * (t - c), (c - t) / m)
            known = {t: v(t) for t in (-6.0, -5.0, 4.0, 5.0)}
            assert ob._chord_floor(known, -5.0, 4.0) == pytest.approx(
                9.0, abs=1e-9)
        assert ob._chord_floor({0.0: 1.0, 1.0: 2.0}, 0.0, 1.0) == -math.inf


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
            ell, tau = ob._mc_draw(i, 0, l1)
            t = fricke_triple(SurfacePoint(S11, (l1,), ell, tau))
            shortest = min(tr for _, tr in ob.simple_slopes(t, ell + 1e-6))
            accept = shortest >= 2.0 * math.cosh(ell / 2.0) * (1.0 - 1e-12)
            value = ob._mc_sample_value((i, 0, "aabAb", 30.0, l1))
            assert (value > 0) == accept, i
            accepted += accept
        assert 0 < accepted < 2000

    @pytest.mark.parametrize("l1", [0.0, 4.0])
    def test_sample_is_count_at_draw(self, l1):
        # a sample charts its draw straight in fixed point; it must read
        # count_orbit_word at the draw's float triple when the coordinate
        # curve is the systole (the slope-walk rule above), else 0.  Seed
        # 1's samples 40-69 hold the thin sample 54 (l ~ 0.01 at l1 = 0)
        L = 16.0
        assert ob._mc_draw(54, 1, 0.0)[0] < 0.02
        accepted = 0
        for i in range(40, 70):
            ell, _ = ob._mc_draw(i, 1, l1)
            X = mc_triple(1, i, l1)
            value = ob._mc_sample_value((i, 1, "aabAb", L, l1))
            shortest = min(tr for _, tr in ob.simple_slopes(X, ell + 1e-6))
            if shortest >= 2.0 * math.cosh(ell / 2.0) * (1.0 - 1e-12):
                assert value == ob.count_orbit_word(X, "aabAb", L).a1, i
                accepted += 1
            else:
                assert value == 0.0, i
        assert 0 < accepted < 30

    def test_sample_count_independent_of_prune_constant(self):
        # sample 54 of seed 1 is a thin draw where a BFS pruned at 1.5 L
        # fails its validation (TestTwistFamilies); the twist-family count
        # has no prune constant
        args = (54, 1, "aabAb", 16.0, 0.0)
        assert ob._mc_sample_value(args) == 756.0

