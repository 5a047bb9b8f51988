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


# the --durations report of a synthetic tier-1 run: setup and teardown
# times are not call times
PYTEST_OUT = """\
........                                                     [100%]
============================= slowest durations ==============================
4.20s call     tests/test_acceptance.py::test_criterion_11_ball_volume
3.90s call     tests/test_orbit.py::TestShortWords::test_every[X1-10.0]
2.50s setup    tests/test_orbit.py::TestShortWords::test_every[X1-10.0]
1.60s call     tests/test_orbit.py::test_new
1.20s teardown tests/test_fricke.py::test_words
8 passed in 12.34s
"""


def test_durations_keep_call_times():
    assert bench_pair.durations(PYTEST_OUT) == {
        "tests/test_acceptance.py::test_criterion_11_ball_volume": 4.2,
        "tests/test_orbit.py::TestShortWords::test_every[X1-10.0]": 3.9,
        "tests/test_orbit.py::test_new": 1.6}


def test_slower_needs_both_the_ratio_and_a_second():
    parent = {"a": 2.0, "b": 2.0, "c": 1.5, "d": 4.0}
    change = {"a": 3.0,   # 1.5x and 1 s: slower
              "b": 2.9,   # 1.45x: not slower
              "c": 2.4,   # 1.6x but 0.9 s: not slower
              "d": 1.0,   # faster
              "e": 2.0,   # not reported on the parent: 1.0 s there
              "f": 1.9}   # 1.9x of 1.0 s but 0.9 s
    assert bench_pair.slower(parent, change) == ["a", "e"]
    assert bench_pair.slower(change, change) == []
    tier1 = bench_pair.durations(PYTEST_OUT)
    assert bench_pair.slower(tier1, tier1) == []


def test_tier1_order_and_minimum(monkeypatch):
    # tier-1 runs parent, change, change, parent; each side keeps its runs'
    # totals and, per test, the smaller of its two call times
    times = iter([{"a": 2.0, "b": 1.5},          # parent
                  {"a": 4.0, "b": 1.2, "c": 3.0},  # change
                  {"a": 3.5, "c": 2.5},          # change: b under 1 s
                  {"a": 1.8, "b": 1.6}])         # parent
    seen = []

    def fake_tier1(root):
        seen.append(root)
        return {"passed": len(seen), "pytest_s": 10.0,
                "durations": next(times)}
    monkeypatch.setattr(bench_pair, "tier1", fake_tier1)
    got = bench_pair.tier1_pairs({"parent": "P", "change": "C"})
    assert seen == ["P", "C", "C", "P"]
    assert got["order"] == ["parent", "change", "change", "parent"]
    assert got["parent"]["runs"] == [{"passed": 1, "pytest_s": 10.0},
                                     {"passed": 4, "pytest_s": 10.0}]
    assert [r["passed"] for r in got["change"]["runs"]] == [2, 3]
    assert got["parent"]["durations"] == {"a": 1.8, "b": 1.5}
    assert got["change"]["durations"] == {"a": 3.5, "c": 2.5}
    # a: 3.5 against 1.8; c: 2.5 against an unreported 1.0
    assert got["slower"] == ["a", "c"]
    # a's parent runs (2.0, 1.8) do not reach it; c's parent reported none
    assert got["slower_detail"] == {
        "a": {"parent": [2.0, 1.8], "change": [4.0, 3.5],
              "verdict": "slower"},
        "c": {"parent": [None, None], "change": [3.0, 2.5],
              "verdict": "slower"}}


@pytest.mark.parametrize("parent, verdict", [
    # criterion 11's call times in BENCH_34.json: 5.50 s is 1.52x the
    # parent's faster run but 1.05x its slower one
    ((3.61, 5.26), "unresolved"),
    ((3.61, 3.62), "slower")])
def test_slower_detail_reads_the_parents_spread(parent, verdict):
    test = "tests/test_acceptance.py::test_criterion_11_ball_volume"
    runs = {"parent": [{"durations": {test: s}} for s in parent],
            "change": [{"durations": {test: s}} for s in (5.76, 5.50)]}
    mins = {side: bench_pair.min_durations(runs[side])
            for side in bench_pair.SIDES}
    assert bench_pair.slower(mins["parent"], mins["change"]) == [test]
    got = bench_pair.slower_detail([test], runs)[test]
    assert got == {"parent": list(parent), "change": [5.76, 5.50],
                   "verdict": verdict}
