#!/usr/bin/env python3
"""Pair the benchmark of two checkouts and write a BENCH_<n>.json summary.

    python3 tools/bench_pair.py --parent ../parent --change . \\
        --out BENCH_n.json
    python3 tools/bench_pair.py --parent P --change C --out B.json \\
        --workloads orbit-count --pairs 10 --first-seed 11 --tier1

For each workload of BENCHMARK.json (or the subset --workloads names) it
runs ``perfbench/run.py --trace 0`` of each checkout for the benchmark's
run_seconds on the same seeds, one run after the other, and alternates
which side runs first from pair to pair, so that a drift of the machine
falls on both sides alike.  Each end-to-end metric of BENCHMARK.json gets
the runs of both sides, their medians and quartiles, the pairs the change
wins (strictly better in the metric's own direction), the change of the
median and a verdict (see verdict()).  With --tier1 it also runs tier-1
twice in each checkout, in the order TIER1_ORDER, and records for each run
the tests passed, the wall time and the time of criterion 11, for each
side the smaller of its two call times of each test of at least
DURATIONS_MIN seconds, and lists under ``slower`` the tests the change
slowed (see slower()), with each one's call times and whether the
parent's own spread resolves it under ``slower_detail`` (see
slower_detail()).  A run that times out or prints no
result counts as failed, and the report is rewritten after each workload,
so a late failure keeps the runs made.

Run it with nothing else running: the two sides share the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
# tier-1 runs twice a side, the change's runs between the parent's, so
# that a steady drift of the machine falls on both sides alike
TIER1_ORDER = ("parent", "change", "change", "parent")
RUN_TIMEOUT = 900
TIER1_TIMEOUT = 3600
CRITERION_11 = "test_criterion_11_ball_volume"
# pytest reports the call times of at least DURATIONS_MIN seconds; a test
# is slower when its time grew by SLOWER_RATIO and by SLOWER_S seconds
DURATIONS_MIN = 1.0
SLOWER_RATIO = 1.5
SLOWER_S = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True,
                   help="checkout of the change")
    p.add_argument("--out", type=Path, required=True,
                   help="the BENCH_<n>.json file to write")
    p.add_argument("--workloads",
                   help="comma-separated subset of the benchmark's "
                        "workloads (default: all)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--tier1", action="store_true",
                   help="also time tier-1 in each checkout")
    a = p.parse_args(argv)
    for side in SIDES:
        run = getattr(a, side) / "perfbench" / "run.py"
        if not run.is_file():
            p.error("no %s" % run)
    if a.pairs < 1:
        p.error("--pairs must be >= 1")
    return a


def run_args(workload: str, seed, seconds) -> list:
    """The arguments of perfbench/run.py for one run."""
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]


def run_once(root: Path, workload: str, seed: int, seconds):
    """(result, detail) of one perfbench run, or None if it failed: it timed
    out, exited non-zero or printed no result and detail that parse."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           *run_args(workload, seed, seconds)]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT, cwd=root)
    except subprocess.TimeoutExpired:
        return None
    lines = out.stdout.strip().splitlines()
    try:
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])
        ok = not out.returncode and "machine" in detail and all(
            key in result for key in ("correct", "failed", "metrics"))
    except (IndexError, ValueError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(out.stderr[-2000:])
        return None
    return result, detail


def summary(runs):
    """Median and inclusive quartiles of the runs."""
    q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                 if len(runs) > 1 else runs * 3)
    return {"median": statistics.median(runs), "n": len(runs),
            "q1": q1, "q3": q3, "runs": sorted(runs)}


def verdict(parent: dict, change: dict, wins: int, better: str,
            bound: float) -> str:
    """What the pairs of one metric show, from the two sides' summaries:

    - "gain": the change wins at least 9 of 10 pairs and its median is
      better than the parent's by more than the parent's IQR;
    - "worse": the change's median is worse than the parent's by more than
      the bound, relative to the parent's median (BENCHMARK.json's bound);
    - "unresolved": the parent's IQR is wider than the bound, relative to
      its median, and not every run of the change beats every run of the
      parent;
    - "within bound" otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    p, c = parent["median"], change["median"]
    gained = sign * (p - c)
    if 10 * wins >= 9 * parent["n"] and gained > parent["q3"] - parent["q1"]:
        return "gain"
    if -gained > bound * abs(p):
        return "worse"
    if better == "lower":
        beats_all = max(change["runs"]) < min(parent["runs"])
    else:
        beats_all = min(change["runs"]) > max(parent["runs"])
    if parent["q3"] - parent["q1"] > bound * abs(p) and not beats_all:
        return "unresolved"
    return "within bound"


def compare(pairs, better: str, bound: float):
    """Both sides' summaries, the change's wins, its median change and the
    verdict."""
    lower = better == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    sides = {s: summary([pair[i] for pair in pairs])
             for i, s in enumerate(SIDES)}
    base = sides["parent"]["median"]
    ratio = sides["change"]["median"] / base - 1.0 if base else 0.0
    return {**sides, "change_wins": "%d/%d" % (wins, len(pairs)),
            "median_change_ratio": ratio, "bound": bound,
            "verdict": verdict(*sides.values(), wins, better, bound)}


def bench_workload(args, roots, workload: str, metrics: dict, seconds):
    """Alternating pairs of runs of one workload."""
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    values = {name: [] for name in metrics}
    first, failed_ops = {}, dict.fromkeys(SIDES, 0)
    failed_runs, correct, machine = 0, True, None
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first[str(seed)] = order[0]
        got = {}
        for side in order:
            got[side] = run_once(roots[side], workload, seed, seconds)
            print("%s seed %d %s: %s" % (workload, seed, side, "ok" if
                                          got[side] else "failed"),
                  file=sys.stderr, flush=True)
        if None in got.values():
            failed_runs += 1
            continue
        for side in SIDES:
            result, detail = got[side]
            correct = correct and result["correct"]
            failed_ops[side] += result["failed"]
            machine = machine or detail["machine"]
        for name in metrics:
            if all(name in got[s][0]["metrics"] for s in SIDES):
                values[name].append(tuple(got[s][0]["metrics"][name]["value"]
                                          for s in SIDES))
    out = {"pairs": args.pairs, "seeds": seeds, "first_side": first,
           "correct": correct, "failed_ops": failed_ops,
           "failed_runs": failed_runs}
    for name, pairs in values.items():
        if pairs:
            out[name] = compare(pairs, metrics[name]["better"],
                                metrics[name]["bound"])
    return out, machine


TIER1_ARGS = ["-m", "pytest", "-q", "-p", "no:cacheprovider",
              "--continue-on-collection-errors", "--durations=0",
              "--durations-min=%g" % DURATIONS_MIN]


def durations(out: str) -> dict:
    """Each test's call time in seconds, from pytest's --durations report."""
    return {test: float(s) for s, test in
            re.findall(r"^([\d.]+)s call\s+(\S+)$", out, re.M)}


def slower(parent: dict, change: dict) -> list:
    """The tests whose call time on the change is at least SLOWER_RATIO
    times and SLOWER_S seconds above the parent's; a test the parent did
    not report (under DURATIONS_MIN) counts as DURATIONS_MIN there."""
    return sorted(
        test for test, s in change.items()
        if s >= SLOWER_RATIO * parent.get(test, DURATIONS_MIN)
        and s - parent.get(test, DURATIONS_MIN) >= SLOWER_S)


def slower_detail(tests, runs) -> dict:
    """For each test of slower(): each side's call times, one per run
    (None where a run did not report it, under DURATIONS_MIN), and the
    verdict "unresolved" when the change's smaller time is not slower than
    the parent's larger one, so that the parent's own two runs spread as
    far as the flag, else "slower"."""
    out = {}
    for test in tests:
        times = {side: [r["durations"].get(test) for r in runs[side]]
                 for side in SIDES}
        parent = max(s or DURATIONS_MIN for s in times["parent"])
        held = slower({test: parent}, {test: min(times["change"])})
        out[test] = {**times, "verdict": "slower" if held else "unresolved"}
    return out


def tier1(root: Path) -> dict:
    """Tests passed and failed, wall time, criterion 11's time and the
    per-test call times of tier-1; a run past TIER1_TIMEOUT counts what it
    printed so far."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    t0 = time.perf_counter()
    try:
        out = subprocess.run([sys.executable, *TIER1_ARGS], text=True,
                             capture_output=True, cwd=root, env=env,
                             timeout=TIER1_TIMEOUT).stdout
        timed_out = False
    except subprocess.TimeoutExpired as e:
        out, timed_out = e.stdout or "", True
        out = out.decode(errors="replace") if isinstance(out, bytes) else out
    wall = time.perf_counter() - t0

    def count(word):
        m = re.search(r"(\d+) %s" % word, out)
        return int(m.group(1)) if m else 0
    calls = durations(out)
    return {"passed": count("passed"), "failed": count("failed"),
            "pytest_s": round(wall, 2), "timed_out": timed_out,
            "criterion_11_s": next((s for test, s in calls.items()
                                    if CRITERION_11 in test), None),
            "durations": calls}


def min_durations(runs) -> dict:
    """Each test's smaller call time over the runs; a test that a run did
    not report ran under DURATIONS_MIN there, and is left out."""
    tests = set.intersection(*(set(r["durations"]) for r in runs))
    return {t: min(r["durations"][t] for r in runs) for t in sorted(tests)}


def tier1_pairs(roots) -> dict:
    """Tier-1 in the order TIER1_ORDER: each side's runs (without their
    call times), each side's smaller call time of each test, the tests
    whose smaller time the change slowed, and their detail."""
    runs = {side: [] for side in SIDES}
    for side in TIER1_ORDER:
        runs[side].append(tier1(roots[side]))
    out = {"order": list(TIER1_ORDER)}
    for side in SIDES:
        out[side] = {"runs": [{k: v for k, v in r.items() if k != "durations"}
                              for r in runs[side]],
                     "durations": min_durations(runs[side])}
    out["slower"] = slower(*(out[side]["durations"] for side in SIDES))
    out["slower_detail"] = slower_detail(out["slower"], runs)
    return out


def main(argv=None):
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        sys.exit("unknown workloads %s; BENCHMARK.json has %s"
                 % (",".join(unknown), ",".join(names)))
    report = {
        "what": "perfbench/run.py end-to-end metrics, parent against change, "
                "%d pairs of runs per workload alternating which side runs "
                "first, --seconds %s" % (args.pairs, seconds),
        "command": " ".join(["python3", "perfbench/run.py",
                             *run_args("W", "S", seconds)]),
        "workloads": {}}

    def write():
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True)
                            + "\n")
    for workload in workloads:
        report["workloads"][workload], machine = bench_workload(
            args, roots, workload, metrics, seconds)
        if machine:
            report["machine"] = {k: machine.get(k) for k in (
                "cpu", "nproc", "python", "numpy", "mpmath",
                "mpmath_backend")}
        write()
    if args.tier1:
        report["tier1"] = {
            "command": " ".join(["PYTHONPATH=src", "python", *TIER1_ARGS]),
            **tier1_pairs(roots)}
        write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
