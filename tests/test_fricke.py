"""Trace engine and Farey recursion."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from teichlab import farey, fricke
from teichlab.fricke import (FrickeTriple, WordError, canonical_cyclic,
                             concat_reduced, cyclic_reduce, invert_word,
                             length_from_log_trace, length_trace,
                             reduce_word, rep_from_fricke, trace_of_length,
                             trace_word_fricke, trace_word_numeric)


words = st.text(alphabet="abAB", min_size=1, max_size=12)
triples = st.tuples(st.floats(min_value=2.1, max_value=8.0),
                    st.floats(min_value=2.1, max_value=8.0),
                    st.floats(min_value=2.1, max_value=8.0))


class TestWords:
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
        assert concat_reduced(reduce_word(w), invert_word(reduce_word(w))) == ""

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

    def test_bad_letter_rejected(self):
        with pytest.raises(WordError):
            reduce_word("abc")


class TestTrace:
    def test_generators(self):
        t = FrickeTriple(3.0, 4.0, 5.0)
        assert trace_word_fricke(t, "a") == 3.0
        assert trace_word_fricke(t, "b") == 4.0
        assert trace_word_fricke(t, "ab") == 5.0
        # tr(AB^{-1}) = xy - z
        assert trace_word_fricke(t, "aB") == 3.0 * 4.0 - 5.0

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


class TestLength:
    @given(st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, ell):
        assert length_trace(trace_of_length(ell)) == pytest.approx(ell, rel=1e-11)

    def test_log_trace_huge(self):
        # arccosh(T/2) = log(2 * T/2) + o(1) = log T, so l ~ 2 log|tr|
        s = 5000.0
        assert length_from_log_trace(s) == pytest.approx(2.0 * s, rel=1e-12)

    def test_log_trace_matches_direct(self):
        for s in [1.2, 10.0, 39.0, 41.0]:
            want = 2.0 * math.acosh(math.exp(s) / 2.0) if s < 40 else 2.0 * s
            assert length_from_log_trace(s) == pytest.approx(want, rel=1e-11)

    def test_huge_int_trace(self):
        # ints beyond float range: 2 arccosh(t/2) = 2 log t to double precision
        assert length_trace(10 ** 400) == 2.0 * math.log(10 ** 400)
        assert length_trace(-10 ** 400) == 2.0 * math.log(10 ** 400)

    def test_elliptic_rejected(self):
        with pytest.raises(ValueError):
            length_trace(1.5)


class TestFarey:
    def test_basis_traces(self):
        t = (3.0, 4.0, 5.0)
        assert farey.slope_trace(t, (1, 0)) == 3.0
        assert farey.slope_trace(t, (0, 1)) == 4.0
        assert farey.slope_trace(t, (1, 1)) == 5.0
        assert farey.slope_trace(t, (-1, 1)) == 3.0 * 4.0 - 5.0

    def test_parents(self):
        for (p, q) in [(2, 5), (3, 7), (5, 8), (1, 9)]:
            (u1, v1), (u2, v2) = farey._parents(p, q)
            assert (u1 + u2, v1 + v2) == (p, q)
            assert p * v1 - q * u1 == 1

    @given(st.integers(min_value=-9, max_value=9), st.integers(min_value=0, max_value=9))
    @settings(max_examples=120, deadline=None)
    def test_word_trace_agrees(self, p, q):
        if math.gcd(p, q) != 1 or (p == 0 and q == 0):
            return
        t = (3.0, 3.5, 4.1)
        w = farey.slope_word(p, q)
        assert trace_word_fricke(t, w) == pytest.approx(
            farey.slope_trace(t, (p, q)), rel=1e-9)

    def test_word_abelianization(self):
        for (p, q) in [(1, 0), (0, 1), (2, 1), (3, 5), (-2, 7)]:
            w = farey.slope_word(p, q)
            na = w.count("a") - w.count("A")
            nb = w.count("b") - w.count("B")
            assert farey.normalize_slope(na, nb) == farey.normalize_slope(p, q)

    def test_integral_traces_exact(self):
        # at an integer triple the recursion stays in ZZ
        v = farey.slope_trace((3, 3, 3), (8, 13))
        assert isinstance(v, int)

    def test_direction_rate_rational_direction(self):
        t = (3.0, 3.0, 3.0)
        # the homogeneous length of a rational direction is l(p,q)/|(p,q)|
        for (p, q) in [(1, 0), (1, 1), (2, 1)]:
            want = farey.slope_length(t, (p, q)) / math.hypot(p, q)
            got = farey.direction_length_rate(t, float(p), float(q))
            assert got == pytest.approx(want, rel=1e-9)

    def test_direction_rate_irrational_stable(self):
        t = (3.0, 3.2, 4.4)
        g = (1.0 + math.sqrt(5.0)) / 2.0
        r1 = farey.direction_length_rate(t, 1.0, g)
        r2 = farey.direction_length_rate(t, 2.0, 2.0 * g)
        assert r1 > 0
        assert r1 == pytest.approx(r2, rel=1e-9)

    @pytest.mark.parametrize("t", [1e12, 5.164605048998411e16])
    def test_direction_rate_huge_traces(self, t):
        # the slopes (1,1) and (-1,1) have traces t and t^2 - t; neither may
        # be formed as a difference of products that cancels at this size
        got = farey.direction_length_rate((t, t, t), 1.0, 1.0)
        assert got == pytest.approx(2 * math.acosh(t / 2) / math.sqrt(2),
                                    rel=1e-12)
        got = farey.direction_length_rate((t, t, t), -1.0, 1.0)
        assert got == pytest.approx(
            2 * math.acosh((t * t - t) / 2) / math.sqrt(2), rel=1e-12)

    def test_slopes_up_to_depth(self):
        s = farey.slopes_up_to_depth(2)
        assert (1, 0) in s and (0, 1) in s and (1, 1) in s and (-1, 1) in s
        assert all(math.gcd(p, q) == 1 for (p, q) in s)
