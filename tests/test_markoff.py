"""Markoff tree enumeration against the quadratic brute-force oracle."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from teichlab import markoff as mk
from teichlab.fricke import trace_word_fricke


class TestEquation:
    def test_root(self):
        assert mk.is_markoff(1, 1, 1)
        assert mk.is_markoff(1, 1, 2)
        assert mk.is_markoff(1, 2, 5)
        assert not mk.is_markoff(2, 2, 2)

    def test_moves_preserve_equation(self):
        t = mk.MarkoffTriple(1, 2, 5)
        for i in range(3):
            s = mk.apply_move(t, i)
            assert s.p ** 2 + s.q ** 2 + s.r ** 2 == 3 * s.p * s.q * s.r

    def test_moves_are_involutions(self):
        t = mk.MarkoffTriple(2, 5, 29)
        for i in range(3):
            assert mk.apply_move(mk.apply_move(t, i), i) == t


class TestEnumeration:
    def test_matches_brute_force_1000(self):
        assert mk.enumerate_triples(1000) == mk.brute_force_triples(1000)

    def test_small_counts(self):
        # 1,1,1 / 1,1,2 / 1,2,5 / 1,5,13 / 2,5,29 / 1,13,34 / 1,34,89
        assert mk.enumerate_count(100) == 7

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_counts_agree_any_bound(self, bound):
        assert mk.enumerate_count(bound) == mk.brute_force_count(bound)

    def test_sum_norm_smaller(self):
        assert mk.enumerate_count(100, norm="sum") <= mk.enumerate_count(100, norm="max")

    def test_ordered_weighting(self):
        # each sorted triple contributes its distinct permutations
        triples = mk.enumerate_triples(1000)
        want = 0
        for t in triples:
            k = len(set(t))
            want += {1: 1, 2: 3, 3: 6}[k]
        assert mk.enumerate_count(1000, ordering="ordered") == want

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


class TestCheckpoint:
    def test_resume_matches(self, tmp_path):
        ck = str(tmp_path / "markoff.ck")
        full = mk.enumerate_count(10 ** 6)
        again = mk.enumerate_count(10 ** 6, checkpoint_path=ck,
                                   checkpoint_interval=5)
        assert again == full

    def test_resume_after_interrupt(self, tmp_path, monkeypatch):
        ck = tmp_path / "markoff.ck"
        full = mk.enumerate_count(10 ** 6)
        real_save = mk._save_checkpoint
        saves = []

        def save_then_die(*args):
            real_save(*args)
            saves.append(args[5])  # visited
            if len(saves) == 3:
                raise KeyboardInterrupt
        monkeypatch.setattr(mk, "_save_checkpoint", save_then_die)
        with pytest.raises(KeyboardInterrupt):
            mk.enumerate_count(10 ** 6, checkpoint_path=str(ck),
                               checkpoint_interval=5)
        assert saves == [5, 10, 15] and ck.exists()
        resumed = mk.enumerate_count(10 ** 6, checkpoint_path=str(ck),
                                     checkpoint_interval=5, resume=True)
        assert resumed == full
        assert not ck.exists()
        assert list(tmp_path.iterdir()) == []
