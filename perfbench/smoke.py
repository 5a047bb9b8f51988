#!/usr/bin/env python3
"""Smoke test for the benchmark, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one second's batch, untraced and
traced, and checks that each run exits 0, that every op succeeds with a
correct output, and that it prints every declared metric with its declared
unit.  It then checks that the benchmark exits non-zero,
without a result, in a directory holding only BENCHMARK.json and the
benchmark's files.  Takes about two minutes on a 2-core box.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd, workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    return subprocess.run(
        cmd + ["--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            p = run(ROOT, wl["name"], trace)
            where = "%s trace=%d" % (wl["name"], trace)
            if p.returncode != 0:
                problems.append("%s: exit %d\n%s" % (where, p.returncode,
                                                      p.stderr[-2000:]))
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(res)))
            if res["attempted"] < 1:
                problems.append("%s: no ops attempted" % where)
            if not res["correct"] or res["failed"]:
                problems.append("%s: correct=%s, %d of %d ops failed"
                                % (where, res["correct"], res["failed"],
                                   res["attempted"]))
            for m in declared:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s: metric %s is %s, want unit %s"
                                    % (where, m["name"], got, m["unit"]))
            print("ok  %-28s attempted=%d failed=%d correct=%s"
                  % (where, res["attempted"], res["failed"], res["correct"]))

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        p = run(bare, spec["workloads"][0]["name"], 0)
        if p.returncode == 0 or p.stdout.strip():
            problems.append("bare directory: exit %d, stdout %r"
                            % (p.returncode, p.stdout[-200:]))
        else:
            print("ok  bare directory exits %d without a result" % p.returncode)

    for msg in problems:
        print("FAIL", msg)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
