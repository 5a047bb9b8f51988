"""Trace engine and Farey recursion."""

import functools
import hashlib
import itertools
import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from teichlab import farey, fricke
from teichlab.fricke import (FrickeTriple, WordError, canonical_cyclic,
                             cyclic_reduce, invert_word, length_trace,
                             reduce_word, rep_from_fricke, trace_word_fricke,
                             trace_word_numeric)


words = st.text(alphabet="abAB", min_size=1, max_size=12)
triples = st.tuples(st.floats(min_value=2.1, max_value=8.0),
                    st.floats(min_value=2.1, max_value=8.0),
                    st.floats(min_value=2.1, max_value=8.0))


@functools.cache
def short_words():
    """The 693 canonical, cyclically reduced words of 1-8 letters, sorted."""
    words = {canonical_cyclic(w) for n in range(1, 9)
             for w in map("".join, itertools.product("abAB", repeat=n))}
    words.discard("")
    assert len(words) == 693
    return sorted(words)


def sha256(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def stack_reduce(w):
    """Free reduction by one left-to-right pass over a stack of letters."""
    out = []
    for ch in w:
        if out and out[-1] == invert_word(ch):
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


class TestWords:
    def test_reduce_matches_stack_loop(self):
        # random words cancel often (a random walk on the letters); wrapping
        # one in a word and its inverse nests the cancellations deeper
        rng = random.Random(1800)
        for _ in range(1000):
            w, u = ("".join(rng.choice("aAbB") for _ in range(n))
                    for n in (rng.randrange(60), rng.randrange(30)))
            for word in (w, u + w + invert_word(u), w + invert_word(w)):
                assert reduce_word(word) == stack_reduce(word), word
        assert reduce_word("a" * 40 + "bB" + "A" * 39) == "a"

    @given(words)
    @settings(max_examples=150, deadline=None)
    def test_reduce_idempotent(self, w):
        r = reduce_word(w)
        assert reduce_word(r) == r
        assert "aA" not in r and "Aa" not in r and "bB" not in r and "Bb" not in r

    @given(words)
    @settings(max_examples=150, deadline=None)
    def test_invert_involution(self, w):
        assert invert_word(invert_word(w)) == w

    @given(words)
    @settings(max_examples=150, deadline=None)
    def test_inverse_cancels(self, w):
        assert reduce_word(w + invert_word(w)) == ""

    @given(words, st.integers(min_value=0, max_value=11))
    @settings(max_examples=150, deadline=None)
    def test_canonical_cyclic_invariance(self, w, k):
        r = cyclic_reduce(w)
        if not r:
            return
        k = k % len(r)
        assert canonical_cyclic(r[k:] + r[:k]) == canonical_cyclic(r)

    @given(words)
    @settings(max_examples=150, deadline=None)
    def test_canonical_inversion_invariance(self, w):
        assert canonical_cyclic(invert_word(w)) == canonical_cyclic(w)

    def test_canonical_matches_all_rotations(self):
        # the least of every rotation of w and of its inverse, under
        # a < b < A < B, as canonical_cyclic was first written: equal string
        # for string to the one that compares only the rotations that
        # start with the least letter
        order = str.maketrans("abAB", "0123")
        back = str.maketrans("0123", "abAB")

        def all_rotations(w):
            w = cyclic_reduce(w)
            return min((u[i:] + u[:i] for u in (
                w.translate(order), invert_word(w).translate(order))
                for i in range(len(u))), default="").translate(back)
        reduced = [""]  # every freely reduced word of <= 9 letters
        for w in reduced:
            if len(w) < 9:
                reduced += [w + c for c in "abAB"
                            if not w or c != invert_word(w[-1])]
        assert len(reduced) == 1 + 2 * (3 ** 9 - 1)
        rng = random.Random(22)
        randoms = ["".join(rng.choice("abAB") for _ in range(rng.randrange(61)))
                   for _ in range(20000)]
        # conjugates that are not cyclically reduced
        conjugates = [u + w + invert_word(u)
                      for u, w in zip(reduced[::97], randoms)]
        T = str.maketrans({"b": "ba", "B": "AB"})
        pushes = ["aabAb"]
        for _ in range(20):
            pushes.append(pushes[-1].translate(T))
        edges = ["", "a", "AAAA", "abab", "BABA", *pushes,
                 *map(reduce_word, pushes)]
        for w in reduced + randoms + conjugates + edges:
            assert canonical_cyclic(w) == all_rotations(w), w

    def test_bad_letter_rejected(self):
        with pytest.raises(WordError, match="'c'"):
            reduce_word("abAcd")


class TestTrace:
    def test_generators(self):
        t = FrickeTriple(3.0, 4.0, 5.0)
        assert trace_word_fricke(t, "a") == 3.0
        assert trace_word_fricke(t, "b") == 4.0
        assert trace_word_fricke(t, "ab") == 5.0
        # tr(AB^{-1}) = xy - z
        assert trace_word_fricke(t, "aB") == 3.0 * 4.0 - 5.0

    def test_word_length_cap(self):
        # the cap applies to the cyclic reduction: b^n a B^n is conjugate
        # to a, however long it is written
        over = fricke.MAX_WORD_LEN + 1
        with pytest.raises(WordError, match="exceeds cap"):
            trace_word_fricke((3, 4, 5), "ab" * (over // 2 + 1))
        with pytest.raises(WordError, match="exceeds cap"):
            trace_word_fricke((3, 4, 5), "a" * over)
        n = over // 2
        assert trace_word_fricke((3, 4, 5), "b" * n + "a" + "B" * n) == 3

    def test_commutator_identity_integers(self):
        # tr[a,b] = x^2 + y^2 + z^2 - xyz - 2, exactly in integer arithmetic
        for (x, y, z) in [(3, 3, 3), (3, 3, 6), (4, 5, 6), (7, 2, 9), (3, 6, 15)]:
            k = x * x + y * y + z * z - x * y * z - 2
            assert trace_word_fricke((x, y, z), "abAB") == k

    @given(triples, words)
    @example((3.0, 3.0, 7.0), "ab")  # reducible: kappa = 2
    @settings(max_examples=200, deadline=None)
    def test_matches_matrix_trace(self, t, w):
        ft = FrickeTriple(*t)
        A, B = rep_from_fricke(ft)
        sym = trace_word_fricke(ft, w)
        num = trace_word_numeric(A, B, w)
        assert sym == pytest.approx(num, rel=1e-8, abs=1e-8)

    @given(triples, words, st.integers(min_value=1, max_value=10))
    @settings(max_examples=120, deadline=None)
    def test_cyclic_invariance(self, t, w, k):
        r = cyclic_reduce(w)
        if not r:
            return
        k = k % len(r)
        a = trace_word_fricke(t, r)
        b = trace_word_fricke(t, r[k:] + r[:k])
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)

    @given(triples, words)
    @settings(max_examples=120, deadline=None)
    def test_inversion_invariance(self, t, w):
        a = trace_word_fricke(t, w)
        b = trace_word_fricke(t, invert_word(w))
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)

    def test_word_cap_at_compile(self):
        # every caller of a plan meets the cap, the fixed-point one too
        over = "a" + "b" * fricke.MAX_WORD_LEN
        with pytest.raises(WordError, match="exceeds cap"):
            fricke._trace_plan(over)
        with pytest.raises(WordError, match="exceeds cap"):
            fricke._compile(over)
        with pytest.raises(WordError, match="exceeds cap"):
            fricke._normal_plan(over)

    def test_fixed_eval_over_lists(self, reduced_word):
        # one pass over lists gives each triple's exact trace at k = 0, and
        # at k = 8 on ints with 8 zero low bits, where every shift is exact
        triples = [(3, 3, 3), (3, 4, 5), (-4, 7, 2), (5, 5, 5), (87, 6, 15)]
        xs, ys, zs = (list(c) for c in zip(*triples))
        scaled = [[v << 8 for v in c] for c in (xs, ys, zs)]
        for seed in range(40):
            w = reduced_word(seed, 1 + seed % 13)
            plan = fricke._trace_plan(w)
            want = [trace_word_fricke(t, w) for t in triples]
            # a group-algebra plan never reads kappa
            assert fricke._plan_eval_fixed(plan, xs, ys, zs, None, 0) == \
                want, w
            assert fricke._plan_eval_fixed(plan, *scaled, None, 8) == \
                [v << 8 for v in want], w
            assert fricke._plan_eval_fixed(plan, [], [], [], None, 8) == []

    def test_plan_cache_bounded(self):
        size = fricke._trace_plan.cache_info().maxsize
        for i in range(size + 100):
            trace_word_fricke((3, 3, 3), format(i, "011b").translate(
                str.maketrans("01", "ab")))
        assert fricke._trace_plan.cache_info().currsize <= size

    def test_rep_realizes_triple(self):
        t = FrickeTriple(3.1, 4.2, 5.9)
        A, B = rep_from_fricke(t)
        assert trace_word_numeric(A, B, "a") == pytest.approx(t.x, rel=1e-12)
        assert trace_word_numeric(A, B, "b") == pytest.approx(t.y, rel=1e-12)
        assert trace_word_numeric(A, B, "ab") == pytest.approx(t.z, rel=1e-12)


def mat_mul(m, n):
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def mat_inv(m):
    return (m[3], -m[1], -m[2], m[0])


# a pair realizing (3, 3, 3), and the twists acting on pairs as they act
# on words (T: b -> ba, t: b -> bA, U: a -> ab, u: a -> aB)
PAIR_333 = ((1, 1, 1, 2), (1, -1, -1, 2))
PAIR_MOVES = {"T": lambda A, B: (A, mat_mul(B, A)),
              "t": lambda A, B: (A, mat_mul(B, mat_inv(A))),
              "U": lambda A, B: (mat_mul(A, B), B),
              "u": lambda A, B: (mat_mul(A, mat_inv(B)), B)}


class TestCompile:
    """The trace plans, against products of integer matrices
    (trace_word_numeric): exact at every point of the orbit of (3, 3, 3),
    independent of any plan."""

    def test_exact_along_orbit(self):
        rng = random.Random(2301)
        for _ in range(12):
            A, B = PAIR_333
            for g in rng.choices("TtUu", k=rng.randrange(5)):
                A, B = PAIR_MOVES[g](A, B)
            t = (A[0] + A[3], B[0] + B[3], trace_word_numeric(A, B, "ab"))
            for _ in range(100):
                w = "".join(rng.choices("abAB", k=rng.randrange(17)))
                assert trace_word_fricke(t, w) == \
                    trace_word_numeric(A, B, w), (t, w)

    @pytest.mark.parametrize("w, instrs, mults", [
        ("aabAb", 15, 7), ("abaB", 7, 3), ("aabAB", 16, 7), ("aab", 2, 1)])
    def test_hot_plans_no_longer(self, w, instrs, mults):
        # the words the counts and the chart evaluate: no plan is longer
        # than the recursive Fricke reduction's (15/7, 7/3, 16/7, 2/1)
        plan = fricke._compile(w)[0]
        assert len(plan) <= instrs
        assert sum(op == "*" for op, _, _ in plan) <= mults

    def test_normal_form_is_the_trace(self):
        # every canonical, cyclically reduced word of <= 8 letters: the
        # normal-form plan, at kappa of the triple, is the trace exactly at
        # integral triples of four kappas (-2, 6, -77 and -94), and its
        # polynomial has no monomial divisible by xyz
        triples = [(3, 3, 3), (3, 4, 5), (5, 5, 5), (4, 8, 4)]
        for w in short_words():
            plan = fricke._normal_plan(w)
            for x, y, z in triples:
                kappa = x * x + y * y + z * z - x * y * z - 2
                assert fricke._plan_eval(plan, x, y, z, kappa) == \
                    trace_word_fricke((x, y, z), w), (w, (x, y, z))
            poly = fricke._normal_poly(fricke._trace_plan(w))
            assert all(min(m[:3]) == 0 for m in poly), w

    @pytest.mark.parametrize("w, instrs, mults", [
        ("aabAb", 5, 2), ("abaB", 2, 1), ("aabAB", 3, 1), ("aab", 2, 1),
        ("aBaBaBaB", 9, 4)])
    def test_normal_plans(self, w, instrs, mults):
        # aabAb is yz + (1 - kappa) x, abaB is x^2 - kappa, aabAB is
        # (kappa - 1) x and aab is xz - y; a power is T_n of its root's
        # normal form, here (aB)^4 from xy - z
        plan = fricke._normal_plan(w)[0]
        assert len(plan) == instrs
        assert sum(op == "*" for op, _, _ in plan) == mults

    def test_plans_pinned(self):
        # the plans of every canonical word of <= 8 letters: the
        # normal-form plans instruction for instruction, the group-algebra
        # plans by their instructions and products
        ws = short_words()
        normal = [fricke._normal_plan(w) for w in ws]
        normal.append(fricke._normal_plan("aBaBaBaB"))
        sizes = [(len(plan), sum(op == "*" for op, _, _ in plan))
                 for plan, _ in map(fricke._trace_plan, ws)]
        assert sha256(normal) == ("6c61877f71ab6620a4732d840933180c"
                                  "d4e01fb695350b8a69fd6e81a4258d00")
        assert sha256(sizes) == ("8540f29e411dc2d430561aaf832324b0"
                                 "50a8f645f7100798c82e923d75ce865f")

    def test_long_words_keep_the_walk(self, reduced_word):
        # past NORMAL_MAX_LEN letters the plan is the group-algebra one,
        # which grows linearly with the word
        cap = fricke.NORMAL_MAX_LEN
        for w in (reduced_word(7, cap + 1), "ab" + "aB" * cap):
            assert fricke._normal_plan(w) == fricke._trace_plan(w)
        w = reduced_word(8, cap)
        assert fricke._normal_plan(w) != fricke._trace_plan(w)

    def test_normal_plan_cache_bounded(self):
        # the plans are a bounded cache, and each compile keeps its own
        # memo of rewritten monomials
        size = fricke._normal_plan.cache_info().maxsize
        assert size == 1024
        words = (w for n in range(1, 6)
                 for w in map("".join, itertools.product("abAB", repeat=n)))
        for w in itertools.islice(words, size + 100):
            fricke._normal_plan(w)
        assert fricke._normal_plan.cache_info().currsize <= size

    def test_linear_in_the_word(self, reduced_word):
        w = reduced_word(1000, 1000)
        assert len(fricke._compile(w)[0]) <= 10 * len(w)
        A, B = PAIR_333
        w = reduced_word(10_000, fricke.MAX_WORD_LEN)
        assert trace_word_fricke((3, 3, 3), w) == trace_word_numeric(A, B, w)


class TestLength:
    @given(st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, ell):
        assert length_trace(2.0 * math.cosh(ell / 2.0)) == \
            pytest.approx(ell, rel=1e-11)

    def test_huge_int_trace(self):
        # ints beyond float range: 2 arccosh(t/2) = 2 log t to double precision
        assert length_trace(10 ** 400) == 2.0 * math.log(10 ** 400)
        assert length_trace(-10 ** 400) == 2.0 * math.log(10 ** 400)

    def test_elliptic_rejected(self):
        with pytest.raises(ValueError):
            length_trace(1.5)

    @pytest.mark.parametrize("tr", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, tr):
        # an overflowed float trace has no length; nan once came out as nan
        with pytest.raises(ValueError, match="not finite"):
            length_trace(tr)


def assert_deep_length_certified(slope_trace, slope):
    """curve_length of slope at (ell, tau) = (3, 0) on the cusped torus,
    given by slope and by its word, against 2 arccosh(|tr|/2) of the
    exact slope trace by the Farey vertex relation at the chart in 50-digit
    mpmath.

    Within 2 ulps: a certified length is the float length of the true
    trace (both ends of its error interval give the same float), that is
    2 log t for t the trace rounded to a float, or its integer part beyond
    floats.  Rounding t moves 2 log t by 2^-52 at most, far below an ulp
    here; arccosh(t/2) - log t is O(t^-2), nil at t ~ e^680; and log is
    within an ulp, taking an int beyond floats as log(m) + e log 2 within
    another."""
    from teichlab.fn_surface import (S11, SurfacePoint, curve_length,
                                     torus_curve)
    X = SurfacePoint(S11, (0.0,), 3.0, 0.0)
    with mpmath.workdps(50):
        h = mpmath.mpf(3) / 2
        m = mpmath.coth(h)  # the cusped chart at tau = 0
        t = (2 * mpmath.cosh(h), 2 * m, 2 * m * mpmath.cosh(h))
        want = float(2 * mpmath.acosh(abs(slope_trace(t, slope)) / 2))
    got = curve_length(X, torus_curve(slope))
    assert abs(got - want) <= 2 * math.ulp(want), (got, want)
    assert curve_length(X, torus_curve(farey.slope_word(*slope))) == got


class TestFarey:
    def test_basis_traces(self, slope_trace):
        t = (3.0, 4.0, 5.0)
        assert slope_trace(t, (1, 0)) == 3.0
        assert slope_trace(t, (0, 1)) == 4.0
        assert slope_trace(t, (1, 1)) == 5.0
        assert slope_trace(t, (-1, 1)) == 3.0 * 4.0 - 5.0

    def test_parents(self, farey_parents):
        for (p, q) in [(2, 5), (3, 7), (5, 8), (1, 9)]:
            (u1, v1), (u2, v2) = farey_parents(p, q)
            assert (u1 + u2, v1 + v2) == (p, q)
            assert p * v1 - q * u1 == 1

    @given(st.integers(min_value=-9, max_value=9), st.integers(min_value=0, max_value=9))
    @settings(max_examples=120, deadline=None)
    def test_word_trace_agrees(self, slope_trace, p, q):
        if math.gcd(p, q) != 1 or (p == 0 and q == 0):
            return
        t = (3.0, 3.5, 4.1)
        w = farey.slope_word(p, q)
        assert trace_word_fricke(t, w) == pytest.approx(
            slope_trace(t, (p, q)), rel=1e-9)

    def test_word_abelianization(self):
        for (p, q) in [(1, 0), (0, 1), (2, 1), (3, 5), (-2, 7)]:
            w = farey.slope_word(p, q)
            na = w.count("a") - w.count("A")
            nb = w.count("b") - w.count("B")
            assert farey.normalize_slope(na, nb) == farey.normalize_slope(p, q)

    def test_integral_traces_exact(self, slope_trace):
        # at an integer triple the recursion stays in ZZ
        v = slope_trace((3, 3, 3), (8, 13))
        assert isinstance(v, int)

    def test_deep_slope_length(self, slope_trace):
        # 1500 Farey steps from the basis: the curve given by slope takes
        # the trace plan of its 1501-letter word
        assert_deep_length_certified(slope_trace, (1, 1500))

    @pytest.mark.parametrize("slope", [(1501, 1500), (-1, 2000), (2000, 1),
                                       (-2000, 1), (987, 1597)])
    def test_deep_integral_traces_exact(self, slope_trace, slope):
        v = slope_trace((3, 3, 3), slope)
        assert isinstance(v, int)
        assert v == trace_word_fricke((3, 3, 3), farey.slope_word(*slope))

    def test_float_overflow_raises(self, slope_trace):
        # the trace of (1501, 1500) at ell = 3 is about e^2415, past floats:
        # the vertex relation's float trace raises, while the certified
        # length, in fixed point, has no float trace to overflow
        from teichlab.fn_surface import S11, SurfacePoint, fricke_triple
        t = fricke_triple(SurfacePoint(S11, (0.0,), 3.0, 0.0))
        with pytest.raises(ValueError):
            slope_trace(t.astuple(), (1501, 1500))
        assert_deep_length_certified(slope_trace, (1501, 1500))

    def test_shared_memo(self, slope_trace):
        # a memo shared across calls gives the traces a fresh one gives
        t, memo = (3.2, 3.5, 4.1), {}
        for s in [(5, 8), (8, 13), (-3, 7), (13, 21), (1, 0), (-4, 1)]:
            assert slope_trace(t, s, memo) == slope_trace(t, s)

    def test_slopes_up_to_depth(self):
        s = farey.slopes_up_to_depth(2)
        assert (1, 0) in s and (0, 1) in s and (1, 1) in s and (-1, 1) in s
        assert all(math.gcd(p, q) == 1 for (p, q) in s)
