#!/usr/bin/env python3
"""Benchmark for teichlab: one workload, one seed, one process.

    python3 perfbench/run.py --workload mc-orbit --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The load is a closed loop: one client issues the workload's
fixed batch of ops one after another, with no worker pool.

``--trace 0`` measures the end-to-end metrics with tracing off.  The time
metrics of the batch (wall_s, cpu_s, op_p50_ms, op_tail_ms) are given at a
reference machine speed: a timer signal samples the speed of the core
every 50 ms with a fixed probe (see SpeedGauge), and each op's time is
scaled by how fast the probe ran around it.  The raw times are in the
detail line.  Set-up is measured in child processes that import teichlab,
make the inputs and run the warm-up, and exit; ``setup_s`` is the median
of their wall times, at the reference speed measured while each ran.

``--trace 1`` wraps the layer boundaries (see tracing.py), runs the same
batch, and reports per-layer metrics in raw time; it first runs the
untraced batch in a child process to report the tracing overhead, which
compares the two batches' wall times at the reference speed.

Every op's output is checked after the timed region.  An op fails if it
raises, if its output fails its check, or if it changes ``mpmath.mp.dps``
(which is then restored).  ``correct`` is false when an output was wrong or
state leaked; an op that raises counts in ``failed`` only.  The workloads
are chosen so that every op succeeds; defects of the program that kept
inputs out of them are reproduced after the batch and reported under
``known_defects`` in the detail line.

The last line of standard output is the result object; the line before it
holds the details (machine record, raw times, tail percentile, failures).
Both also go to ``perfbench/out/``, with every op's time.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
TAIL_BEYOND = 10
# median probe() time on the 2-core Xeon VM the batches were sized on
PROBE_REF = 4.5e-4
PROBE_EVERY = 0.05
PROBE_WINDOW = 0.25


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["mc-orbit", "orbit-count", "twist-length"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    a = p.parse_args(argv)
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return a


def import_program():
    """The teichlab modules from this checkout's src/; exits non-zero with
    a message when they are missing."""
    if not (SRC / "teichlab" / "orbit.py").is_file():
        sys.exit("perfbench: no teichlab sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    from teichlab import apl, fn_surface, markoff, orbit
    if SRC.resolve() not in Path(orbit.__file__).resolve().parents:
        sys.exit("perfbench: teichlab imported from %s, not %s"
                 % (orbit.__file__, SRC))
    return {"apl": apl, "fn_surface": fn_surface, "markoff": markoff,
            "orbit": orbit}


def set_up(args):
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, args.seconds)
    wl.warm_up()
    return wl


def child_cmd(args, *extra):
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), *extra]


def setup_seconds(args):
    """Wall times of fresh processes that only set up, one after another,
    raw and at the reference speed.  The gauge runs in this process while
    it waits, on the other core, so it sees the host's speed during each
    set-up without slowing it."""
    raw, marks = [], []
    with SpeedGauge() as gauge:
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            child = subprocess.Popen(child_cmd(args, "--setup-only"),
                                     stdout=subprocess.DEVNULL)
            # wait() with a timeout polls every 50 ms; a timer thread bounds
            # a plain blocking wait instead, which returns as the child exits
            timer = threading.Timer(120.0, child.kill)
            timer.start()
            try:
                code = child.wait()
            finally:
                timer.cancel()
            t1 = time.perf_counter()
            raw.append(t1 - t0)
            marks.append((t0, t1))
            if code != 0:
                sys.exit("perfbench: set-up process exited %d" % code)
    return raw, [t * gauge.factor(a, b) for t, (a, b) in zip(raw, marks)]


def probe():
    """CPU seconds taken by a fixed slice of interpreter work that uses
    neither teichlab nor its dependencies: a gauge of the core's speed."""
    a = time.process_time()
    acc, d = 0, {}
    for i in range(2000):
        acc = (acc * 31 + i) % 1000003
        d[i & 63] = (acc, i)
    return time.process_time() - a


class SpeedGauge:
    """Runs probe() from SIGALRM every PROBE_EVERY seconds of a batch.

    On a shared VM the speed of one core drifts by tens of percent within
    seconds, for identical work.  Scaling an op's time by
    PROBE_REF / (median probe time around the op) gives it at the speed the
    machine had when PROBE_REF was taken, which removes most of that drift.
    Probe time spent inside an op is subtracted from the op.
    """

    def __init__(self):
        self.at, self.took, self.spent = [], [], 0.0

    def _sample(self, signum, frame):
        d = probe()
        self.at.append(time.perf_counter())
        self.took.append(d)
        self.spent += d

    def __enter__(self):
        self._sample(None, None)
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, a, b):
        lo = bisect.bisect_left(self.at, a - PROBE_WINDOW)
        hi = bisect.bisect_right(self.at, b + PROBE_WINDOW)
        return PROBE_REF / statistics.median(self.took[lo:hi] or self.took)

def run_batch(ops, tracer=None):
    """Runs the ops in order under a SpeedGauge, recording each op's wall
    and CPU time, raw and at the reference speed.  With a tracer, spans
    are recorded around each op; their durations include the gauge's
    probes, about 1% of the time."""
    import mpmath
    walls, cpus, marks, outcomes, leaks = [], [], [], [], {}
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with SpeedGauge() as gauge:
        for i, op in enumerate(ops):
            dps = mpmath.mp.dps
            spent = gauge.spent
            if tracer is not None:
                tracer.op, tracer.on = i, True
            a, ca = time.perf_counter(), time.process_time()
            try:
                out = op()
            except Exception as e:  # an op that raises is a failed op
                out = e
            b, cb = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.on = False
            walls.append(b - a - (gauge.spent - spent))
            cpus.append(cb - ca - (gauge.spent - spent))
            marks.append((a, b))
            outcomes.append(out)
            if mpmath.mp.dps != dps:
                leaks[i] = "mp.dps %d -> %d" % (dps, mpmath.mp.dps)
                mpmath.mp.dps = dps
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    f = [gauge.factor(a, b) for a, b in marks]
    return {"walls": walls, "cpus": cpus, "outcomes": outcomes,
            "leaks": leaks,
            "ref_walls": [t * k for t, k in zip(walls, f)],
            "ref_cpus": [t * k for t, k in zip(cpus, f)],
            "probe_median_s": statistics.median(gauge.took),
            "wall_s": time.perf_counter() - t0 - gauge.spent,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime)
            + (ru1.ru_stime - ru0.ru_stime) - gauge.spent,
            "peak_rss_mb": ru1.ru_maxrss / 1024.0}


def tail(times):
    """(value, percentile, ops beyond): the highest percentile with at
    least TAIL_BEYOND ops beyond it, or the maximum for small batches."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def verdict(wl, ops, res):
    """(correct, failures by op index) after checking every output."""
    wrong = wl.check(ops, res["outcomes"])
    failures = {}
    for i, out in enumerate(res["outcomes"]):
        if isinstance(out, BaseException):
            failures[i] = "raised %s: %s" % (type(out).__name__, out)
    failures.update(wrong)
    failures.update(res["leaks"])
    return not wrong and not res["leaks"], failures


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def machine(load_start):
    import mpmath
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "commit": commit(),
            "loadavg_1m_start": load_start,
            "loadavg_1m_end": os.getloadavg()[0]}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, ops, detail):
    """Untraced batch, plus set-up measured in fresh processes.

    wall_s and cpu_s are the batch's wall and CPU time at the reference
    speed.  op_p50_ms and op_tail_ms come from each op's CPU time at the
    reference speed: an op runs on one thread, so that is its latency less
    the time the VM was descheduled, which on a shared host adds outliers
    unrelated to the program.  The raw figures go to the detail line.
    """
    setup, ref_setup = setup_seconds(args)
    res = run_batch(ops)
    ops_ms = [1e3 * t for t in res["ref_cpus"]]
    value, pct, beyond = tail(ops_ms)
    cpu_scale = sum(res["ref_cpus"]) / sum(res["cpus"])
    detail["setup_runs_s"] = setup
    detail["op_tail"] = {"percentile": pct, "ops_beyond": beyond,
                         "ops": len(ops)}
    detail["raw"] = {"wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
                     "op_wall_p50_ms": 1e3 * statistics.median(res["walls"]),
                     "op_wall_tail_ms": 1e3 * tail(res["walls"])[0],
                     "op_cpu_p50_ms": 1e3 * statistics.median(res["cpus"]),
                     "probe_median_s": res["probe_median_s"]}
    return res, {
        "wall_s": metric(sum(res["ref_walls"]), "s"),
        "cpu_s": metric(res["cpu_s"] * cpu_scale, "s"),
        "op_p50_ms": metric(statistics.median(ops_ms), "ms"),
        "op_tail_ms": metric(value, "ms"),
        "setup_s": metric(statistics.median(ref_setup), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }


def per_layer(args, wl, ops, modules, detail):
    """Traced batch; the untraced batch runs first in a child process to
    give the tracing overhead."""
    import tracing
    plain = subprocess.run(child_cmd(args, "--trace", "0"), check=True,
                           capture_output=True, text=True, timeout=170)
    untraced = json.loads(plain.stdout.strip().splitlines()[-1])
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, modules)
    try:
        res = run_batch(ops, tracer)
    finally:
        uninstall()
    metrics = tracing.layer_metrics(tracer.spans, wl.accept(res["outcomes"]))
    # both walls at the reference speed, so that drift of the machine
    # between the two runs does not read as overhead
    base = untraced["metrics"]["wall_s"]["value"]
    traced = sum(res["ref_walls"])
    metrics["trace.untraced_wall_s"] = metric(base, "s")
    metrics["trace.traced_wall_s"] = metric(traced, "s")
    metrics["trace.overhead_ratio"] = metric(traced / base - 1.0, "ratio")
    OUT.mkdir(exist_ok=True)
    path = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    tracer.dump(path)
    detail["spans"] = str(path.relative_to(ROOT))
    return res, metrics


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("TEICHLAB_WORKERS", None)
    load_start = os.getloadavg()[0]
    t_start = time.perf_counter()
    modules = import_program()
    wl = set_up(args)
    if args.setup_only:
        return 0
    ops = wl.ops()
    n = len(ops)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "main_setup_s": time.perf_counter() - t_start}
    if args.trace:
        res, metrics = per_layer(args, wl, ops, modules, detail)
    else:
        res, metrics = end_to_end(args, ops, detail)

    correct, failures = verdict(wl, ops, res)
    if not args.trace:
        # defects at the seed code that the workload's inputs stay clear of,
        # reproduced here, outside the timed ops and the verdict
        detail["known_defects"] = wl.known_defects()
    if not args.trace:
        metrics["success_ratio"] = metric((n - len(failures)) / n, "ratio")
    detail["fail_ratio"] = len(failures) / n
    times = res["ref_cpus"]
    by_kind = {}
    for op, t in zip(ops, times):
        by_kind.setdefault(op.kind, []).append(t)
    detail["by_kind"] = {
        k: {"ops": len(v), "total_s": sum(v),
            "p50_ms": 1e3 * statistics.median(v)} for k, v in by_kind.items()}
    detail["failures"] = {str(i): msg for i, msg in sorted(failures.items())}
    detail["machine"] = machine(load_start)
    result = {"correct": correct, "attempted": n, "failed": len(failures),
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / ("result-%s-seed%d-trace%d.json"
            % (args.workload, args.seed, args.trace))).write_text(
        json.dumps({"detail": detail, "result": result,
                    "op_s": [[op.kind, t] for op, t in zip(ops, times)]},
                   indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
