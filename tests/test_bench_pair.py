"""Verdicts of tools/bench_pair.py on synthetic pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def verdict(parent, change, better="lower", bound=0.25):
    got = bench_pair.compare(list(zip(parent, change)), better, bound)
    assert got["bound"] == bound
    return got["verdict"]


def test_gain_needs_nine_wins_and_more_than_the_iqr():
    faster = [0.8 * r for r in PARENT]
    assert verdict(PARENT, faster) == "gain"
    # 9 of 10 wins still count; 8 do not
    assert verdict(PARENT, faster[:9] + [2.0]) == "gain"
    assert verdict(PARENT, faster[:8] + [2.0, 2.0]) == "within bound"
    # 10 wins by less than the parent's IQR (0.045) are no gain
    assert verdict(PARENT, [r - 0.01 for r in PARENT]) == "within bound"


def test_worse_beyond_the_bound():
    assert verdict(PARENT, [1.3 * r for r in PARENT]) == "worse"
    assert verdict(PARENT, [1.2 * r for r in PARENT]) == "within bound"
    # a metric where higher is better, relative to the parent's median
    ones = [1.0] * 10
    assert verdict(ones, [0.9] * 10, "higher", 0.05) == "worse"
    assert verdict(ones, [0.96] * 10, "higher", 0.05) == "within bound"
    assert verdict([0.5] * 10, [0.6] * 10, "higher", 0.05) == "gain"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    wide = [1.0] * 5 + [2.0] * 5  # median 1.5, IQR 1.0 > 0.25 * 1.5
    assert verdict(wide, [1.4] * 10) == "unresolved"
    assert verdict(wide, [1.4] * 10, "higher") == "unresolved"
    # every change run beats every parent run, by less than the IQR
    assert verdict(wide, [0.99] * 10) == "within bound"
    assert verdict(wide, [2.01] * 10, "higher") == "within bound"
    # a median worse by more than the bound is worse, spread or not
    assert verdict(wide, [2.0] * 10) == "worse"


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_equal_sides_are_within_bound(better):
    assert verdict(PARENT, PARENT, better) == "within bound"
