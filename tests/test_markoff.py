"""Markoff tree enumeration against the quadratic brute-force oracle."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from teichlab import markoff as mk
from teichlab.fricke import trace_word_fricke


class TestEquation:
    def test_moves_preserve_equation(self):
        for i in range(3):
            p, q, r = mk._flip((1, 2, 5), i)
            assert min(p, q, r) > 0
            assert p ** 2 + q ** 2 + r ** 2 == 3 * p * q * r

    def test_moves_are_involutions(self):
        t = (2, 5, 29)
        for i in range(3):
            assert mk._flip(mk._flip(t, i), i) == t


class TestEnumeration:
    def test_matches_brute_force_1000(self):
        assert mk.enumerate_triples(1000) == mk.brute_force_triples(1000)

    def test_small_counts(self):
        # 1,1,1 / 1,1,2 / 1,2,5 / 1,5,13 / 2,5,29 / 1,13,34 / 1,34,89
        assert mk.enumerate_count(100) == 7

    @given(st.integers(min_value=1, max_value=2000),
           st.sampled_from(["max", "sum"]))
    @settings(max_examples=60, deadline=None)
    def test_counts_agree_any_bound(self, bound, norm):
        # p + q + r <= bound implies max <= bound, so the scan holds every
        # triple of either norm
        size = max if norm == "max" else sum
        want = sum(1 for t in mk.brute_force_triples(bound) if size(t) <= bound)
        assert mk.enumerate_count(bound, norm=norm) == want

    def test_sum_norm_smaller(self):
        assert mk.enumerate_count(100, norm="sum") <= mk.enumerate_count(100, norm="max")

    def test_ordered_weighting(self):
        # each sorted triple contributes its distinct permutations
        triples = mk.brute_force_triples(1000)
        want = 0
        for t in triples:
            k = len(set(t))
            want += {1: 1, 2: 3, 3: 6}[k]
        assert mk.enumerate_count(1000, ordering="ordered") == want

    @pytest.mark.parametrize("bound, norm", [(100, "median"), (0, "max"),
                                             (0, "sum")])
    def test_bad_input_raises(self, bound, norm):
        with pytest.raises(ValueError):
            mk.enumerate_triples(bound, norm=norm)
        for ordering in ("unordered", "ordered"):
            with pytest.raises(ValueError):
                mk.enumerate_count(bound, norm=norm, ordering=ordering)

    def test_growth_fit_positive(self):
        samples = [(10 ** k, mk.enumerate_count(10 ** k)) for k in (3, 5, 7, 9)]
        C, report = mk.fit_growth(samples)
        assert C > 0
        assert report["condition_number"] < 1e4


class TestTraceBridge:
    def test_triples_scale_to_character_variety(self):
        # (3p,3q,3r) lies on the cusped-torus relation: kappa = -2 exactly
        for (p, q, r) in mk.enumerate_triples(10 ** 4):
            x, y, z = 3 * p, 3 * q, 3 * r
            assert x * x + y * y + z * z - x * y * z == 0

    def test_commutator_is_parabolic(self):
        for (p, q, r) in mk.enumerate_triples(100):
            assert trace_word_fricke((3 * p, 3 * q, 3 * r), "abAB") == -2

