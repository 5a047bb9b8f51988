"""tools/same_results.py: its lines are deterministic."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_results.py"
_SPEC = importlib.util.spec_from_file_location("same_results", _PATH)
same_results = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_results)


@pytest.mark.parametrize("case", [["point", [3.2, 3.5, 4.1], "Tu"],
                                  ["orb1", [4, 4, 8], "T", "aabbAB", 10.0],
                                  ["brute", [3.2, 3.5, 4.1], "aabAb", 9.0],
                                  ["plan", "aabAb"],
                                  ["chart", "tau_measure", "aabAb", 0.5, 10.0],
                                  ["chart", "ray_fit", "aabAb", 15],
                                  ["chart", "wall_scan", "abaB", 64],
                                  ["ball", "mc", 0, 0]])
def test_case_lines_repeat(case):
    assert case in list(same_results.cases())
    line = same_results.run_case(case)
    assert same_results.run_case(case) == line
    assert '"raised"' not in line


def test_chart_counters_unwrap():
    # the chart case counts through wrappers that it takes off again
    fs = same_results.fn_surface
    chart, exp = fs._chart_fixed, fs.mpf_exp
    line = same_results.run_case(["chart", "tau_measure", "aabAb", 0.5, 10.0])
    assert (fs._chart_fixed, fs.mpf_exp) == (chart, exp)
    counters = json.loads(line)["counters"]
    assert set(counters) == {"chart_tries", "k_sum", "mpf_exp"}
    assert 0 < counters["mpf_exp"] < 2 * counters["chart_tries"]


@pytest.mark.parametrize("case, walks", [
    # simple_slopes, cone_count and thurston_ball_B walk once each; |Aut|
    # takes no walk
    (["point", [3.2, 3.5, 4.1], "Tu"], 3),
    # one walk for the twist families
    (["orb1", [4, 4, 8], "T", "aabbAB", 10.0], 1),
    # an accepted sample walks for its twist families only
    (["mc", 0, 0], 1)])
def test_walks_unwrap(case, walks):
    # the point, orb1 and mc cases count Farey walks through a wrapper that
    # they take off again
    orbit = same_results.orbit
    walk = orbit._farey_walk
    line = same_results.run_case(case)
    assert orbit._farey_walk is walk
    assert json.loads(line)["counters"]["walks"] == walks


def test_brute_images_unwrap():
    # the brute case counts canonical forms through a wrapper that it takes
    # off again: one for gamma, then three images of each class and a
    # fourth at the root (the way back to a class's parent is not taken)
    orbit = same_results.orbit
    canonical = orbit.canonical_cyclic
    line = same_results.run_case(["brute", [3.2, 3.5, 4.1], "aabAb", 9.0])
    assert orbit.canonical_cyclic is canonical
    counters = json.loads(line)["counters"]
    assert set(counters) == {"images", "nodes", "pruned", "conversions"}
    assert counters["images"] == 3 * counters["nodes"] + 2


@pytest.mark.parametrize("case, conversions", [
    # simple_slopes, cone_count, point_symmetry_order and thurston_ball_B
    # convert X once each
    (["point", [3.2, 3.5, 4.1], "Tu"], 4),
    (["orb1", [4, 4, 8], "T", "aabbAB", 10.0], 1),
    (["brute", [3.2, 3.5, 4.1], "aabAb", 9.0], 1),
    # an accepted sample and a rejected one
    (["mc", 0, 0], 1),
    (["mc", 0, 41], 1),
    # thurston_ball_B and count_simple
    (["ball", "mc", 0, 0], 2)])
def test_conversions_unwrap(case, conversions):
    # the cases that convert X count the conversions (_fixed_root calls)
    # through a wrapper that they take off again
    orbit = same_results.orbit
    root = orbit._fixed_root
    line = same_results.run_case(case)
    assert orbit._fixed_root is root
    assert json.loads(line)["counters"]["conversions"] == conversions
