"""Experiment driver.

Each experiment is a subcommand; parameters come from defaults, then an
optional key=value config file, then command-line flags (later wins).
Reports are written atomically; JSON carries a schema version field and is
byte-identical for a fixed (config, seed) regardless of worker count.

Exit codes: 0 ok, 1 invalid config, 2 runtime assertion (e.g. a pruning
violation), 3 acceptance-check failure when --assert is set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from . import markoff, hyptrig, fn_surface, orbit, apl
from ._util import atomic_write_text, parallel_map
from .fricke import cyclic_reduce


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An unknown flag or subcommand is a config error (exit 1), like an
    unknown key in a config file."""

    def error(self, message):
        raise ConfigError(message)


def _load_config(path: str | None, defaults: dict, overrides: dict) -> dict:
    """defaults < file < flags; unknown keys rejected."""
    cfg = dict(defaults)
    if path:
        try:
            with open(path) as f:
                lines = f.read().splitlines()
        except OSError as e:
            raise ConfigError("cannot read config: %s" % e)
        for ln in lines:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise ConfigError("bad config line: %r" % ln)
            k, v = ln.split("=", 1)
            k = k.strip().replace("-", "_")
            if k not in defaults:
                raise ConfigError("unknown config key: %r" % k)
            cfg[k] = v.strip()
    for k, v in overrides.items():
        if v is not None:
            cfg[k] = v
    return cfg


def _as_float(cfg, key):
    try:
        v = float(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError("%s must be numeric, got %r" % (key, cfg[key]))
    if not math.isfinite(v):
        raise ConfigError("%s must be finite" % key)
    return v


def _as_length(cfg, key, zero_ok):
    """cfg[key] as a float above 0, or at 0 too when zero_ok.  The chart and
    the trace bound 2 cosh(L/2) mirror the sign of a length, so a negative
    one is rejected rather than silently read as its absolute value."""
    v = _as_float(cfg, key)
    if v < 0 or (v == 0 and not zero_ok):
        raise ConfigError("%s must be %s 0" % (key, ">=" if zero_ok else ">"))
    return v


def _as_int(cfg, key, lo=None, hi=None):
    """cfg[key] as an integer, at least lo and at most hi when given."""
    v = _as_float(cfg, key)
    if v != int(v) or (lo is not None and v < lo):
        raise ConfigError("%s must be an integer%s"
                          % (key, "" if lo is None else " >= %d" % lo))
    if hi is not None and v > hi:
        raise ConfigError("%s must be at most %d" % (key, hi))
    return int(v)


# the most points of a grid or radius list a command builds and evaluates
# a length at: wall-scan --grid-n, twist-convexity --grid-n, apl-ray's n
GRID_MAX = 4096


def _as_tuple(cfg, key, n):
    """cfg[key] as n comma-separated finite floats."""
    parts = str(cfg[key]).split(",")
    if len(parts) != n:
        raise ConfigError("%s must be %d comma-separated numbers" % (key, n))
    return tuple(_as_float({key: p}, key) for p in parts)


def _workers(cfg) -> int:
    env = os.environ.get("TEICHLAB_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError("TEICHLAB_WORKERS must be an integer")
    return _as_int(cfg, "workers", 1)


def _emit(out_path: str | None, text: str):
    if out_path:
        atomic_write_text(out_path, text)


def _radii_from_spec(spec: str) -> list:
    """lo:hi or lo:hi:n, log-spaced."""
    parts = str(spec).split(":")
    if len(parts) not in (2, 3):
        raise ConfigError("radii must be lo:hi[:n]")
    lo, hi = (_as_float({"radii": p}, "radii") for p in parts[:2])
    n = int(parts[2]) if len(parts) == 3 else 9
    if lo <= 0 or hi < 100.0 * lo or n < 4:
        raise ConfigError("radii must span >= two decades with >= 4 samples")
    if n > GRID_MAX:
        raise ConfigError("radii must have at most %d samples" % GRID_MAX)
    r = math.log(hi / lo)
    return [lo * math.exp(r * i / (n - 1)) for i in range(n)]


# ---------------------------------------------------------------------------
# experiments


def cmd_markoff_count(cfg):
    bound = _as_int(cfg, "bound", 1)
    norm = str(cfg["norm"])
    if norm not in ("max", "sum"):
        raise ConfigError("norm must be max or sum")
    count = markoff.enumerate_count(bound, norm=norm)
    print("count=%d" % count)
    if cfg["out"]:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\r\n")
        w.writerow(["p", "q", "r"])
        for t in markoff.enumerate_triples(bound, norm=norm):
            w.writerow(t)
        _emit(cfg["out"], buf.getvalue())
    return 0


def cmd_markoff_fit(cfg):
    # log(b)^2 normalizes each count: b = 1 would divide by zero
    bounds = [_as_int({"bounds": b}, "bounds", 2)
              for b in str(cfg["bounds"]).split(",")]
    samples = []
    for b in bounds:
        c = markoff.enumerate_count(b, norm=str(cfg["norm"]))
        samples.append((b, c))
        print("bound=%d count=%d norm=%.6f" % (b, c, c / math.log(b) ** 2))
    C, report = markoff.fit_growth(samples)
    print("C=%.6f D=%.6f" % (C, report["D"]))
    if cfg["out"]:
        _emit(cfg["out"], json.dumps(
            {"schema": "MKF1", "samples": samples, "C": C, **report},
            sort_keys=True) + "\n")
    return 0


def cmd_count_simple(cfg):
    X = _as_tuple(cfg, "x", 3)
    L = _as_length(cfg, "L", zero_ok=True)
    print("count=%d" % orbit.count_simple(X, L))
    return 0


def cmd_count_word(cfg):
    X = _as_tuple(cfg, "x", 3)
    L = _as_length(cfg, "L", zero_ok=False)
    rep = orbit.count_orbit_word(X, str(cfg["word"]), L)
    print("count=%d" % rep.counts[-1])
    if cfg["out"]:
        _emit(cfg["out"], rep.to_json() + "\n")
    return 0


def cmd_bx(cfg):
    X = _as_tuple(cfg, "x", 3)
    print("B=%.9f" % orbit.thurston_ball_B(X))
    return 0


def cmd_cone_count(cfg):
    X = _as_tuple(cfg, "x", 3)
    print("count=%d" % orbit.cone_count(X, _as_int(cfg, "m"),
                                        _as_length(cfg, "L", zero_ok=True)))
    return 0


def cmd_ball_volume(cfg):
    gamma = str(cfg["word"])
    L = _as_length(cfg, "L", zero_ok=True)
    l1 = _as_length(cfg, "l1", zero_ok=True)
    mc = _as_int(cfg, "mc_samples", 0) if cfg["mc_samples"] is not None else 0
    if mc:
        vol, avg, se = orbit.ball_volume_and_average(
            gamma, L, mc_samples=mc, seed=_as_int(cfg, "seed", 0), l1=l1,
            workers=_workers(cfg))
        print("vol=%.6f mc_avg=%.6f mc_stderr=%.6f" % (vol, avg, se))
    else:
        vol = orbit.ball_length_region_volume(gamma, L, l1=l1)
        print("vol=%.6f" % vol)
    return 0


def cmd_apl_ray(cfg):
    gamma = str(cfg["word"])
    d = _as_tuple(cfg, "dir", 2)
    x0 = _as_tuple(cfg, "x0", 2)
    fit = apl.ray_fit(gamma, x0, d,
                      _radii_from_spec(cfg["radii"]),
                      l1=_as_length(cfg, "l1", zero_ok=True))
    print(fit.to_json())
    if cfg["out"]:
        _emit(cfg["out"], fit.to_json() + "\n")
    return 0


def cmd_wall_scan(cfg):
    n = _as_int(cfg, "grid_n", 1, GRID_MAX)
    scan = apl.wall_scan(str(cfg["word"]), grid_n=n,
                         l1=_as_length(cfg, "l1", zero_ok=True))
    print("walls=%d mids=%s" % (scan.wall_count,
                                [round(s.u_mid, 6) for s in scan.walls]))
    if cfg["out"]:
        _emit(cfg["out"], scan.to_json() + "\n")
    return 0


def _hexagon_trial(i):
    import numpy as np
    rng = np.random.Generator(np.random.Philox(key=[1023, i]))
    ta, tb, cc = (float(v) for v in rng.uniform(0.2, 4.0, size=3))
    c = hyptrig.hexagon_side("convex", ta, tb, cc)
    back = hyptrig.hexagon_side("crossed", ta, tb, c)
    return abs(back - cc) / max(1.0, cc)


def cmd_hexagon_check(cfg):
    n = _as_int(cfg, "trials", 1)
    res = parallel_map(_hexagon_trial, range(n), _workers(cfg))
    worst = max(res)
    s = hyptrig.acosh_1p(1.0)  # cosh s = 2
    reg = abs(hyptrig.hexagon_side("convex", s, s, s) - s)
    print("roundtrip_sup=%.3e regular_residual=%.3e" % (worst, reg))
    return 0 if worst <= 1e-9 and reg <= 1e-12 else 2


def _wolpert_trial(i):
    import numpy as np
    rng = np.random.Generator(np.random.Philox(key=[1024, i]))
    if i % 2 == 0:
        X = fn_surface.SurfacePoint("S11", (float(rng.uniform(0.0, 1.5)),),
                                    float(rng.uniform(0.5, 3.0)),
                                    float(rng.uniform(-2.0, 2.0)))
    else:
        X = fn_surface.SurfacePoint("S04",
                                    tuple(float(v) for v in rng.uniform(0.3, 2.0, size=4)),
                                    float(rng.uniform(1.0, 4.0)),
                                    float(rng.uniform(-2.0, 2.0)))
    return fn_surface.wolpert_check(X)


def cmd_wolpert_check(cfg):
    n = _as_int(cfg, "trials", 1)
    res = parallel_map(_wolpert_trial, range(n), _workers(cfg))
    worst = max(res)
    print("jacobian_sup=%.3e" % worst)
    return 0 if worst <= 1e-5 else 2


def cmd_twist_convexity(cfg):
    # length is convex along the twist for every closed geodesic that
    # crosses the twist curve a, i.e. has a b-letter once cyclically reduced
    gamma = cyclic_reduce(str(cfg["word"]))
    if not set(gamma) & set("bB"):
        raise ConfigError("%r does not cross the twist curve a" % gamma)
    ell = _as_length(cfg, "ell", zero_ok=False)
    f = orbit._gamma_length_fn(gamma, _as_length(cfg, "l1", zero_ok=True))
    n = _as_int(cfg, "grid_n", 3, GRID_MAX)  # a second difference needs 3
    span = _as_float(cfg, "span")
    if span <= 0:  # a grid of tau = 0 only would check no data
        raise ConfigError("span must be > 0")
    taus = [-span + 2 * span * i / (n - 1) for i in range(n)]
    vals = [f(ell, t) for t in taus]
    d2 = [a - 2 * b + c for a, b, c in zip(vals, vals[1:], vals[2:])]
    # each length carries a rounding error of a few units in its last
    # place, so second differences within 16 eps of the largest are noise
    tol = 16 * sys.float_info.epsilon * max(vals)
    print("min_second_diff=%.3e tol=%.1e" % (min(d2), tol))
    return 0 if min(d2) > -tol else 2


# ---------------------------------------------------------------------------
# acceptance battery (reduced scale, deterministic, parallel-safe)


def _acc_markoff(_):
    c = markoff.enumerate_count(100, norm="max")
    return ("markoff_count_100", float(c), c == markoff.brute_force_count(100))


def _acc_count_simple(_):
    c = orbit.count_simple((3.0, 3.0, 3.0), 2.0)
    return ("count_simple_modular_L2", float(c), c == 3)


def _acc_commutator(_):
    from .fricke import trace_word_fricke
    ok = True
    for t in [(3, 3, 3), (3, 3, 6), (4, 5, 6), (7, 2, 9)]:
        k = t[0] ** 2 + t[1] ** 2 + t[2] ** 2 - t[0] * t[1] * t[2] - 2
        ok = ok and trace_word_fricke(t, "abAB") == k
    return ("commutator_trace", 1.0 if ok else 0.0, ok)


def _acc_hexagon(i):
    worst = max(_hexagon_trial(j) for j in range(20 * i, 20 * i + 20))
    return ("hexagon_roundtrip_%d" % i, worst, worst <= 1e-9)


def _acc_wolpert(i):
    worst = max(_wolpert_trial(j) for j in range(10 * i, 10 * i + 10))
    return ("wolpert_jacobian_%d" % i, worst, worst <= 1e-5)


def _acc_word_oracle(_):
    rep = orbit.count_orbit_word((3.0, 3.0, 3.0), "aabAb", 8.0)
    brute = orbit.count_orbit_word_bruteforce((3.0, 3.0, 3.0), "aabAb", 8.0)
    ok = rep.counts[-1] == brute and rep.prune_violations == 0
    return ("word_oracle_L8", float(rep.counts[-1]), ok)


def _acc_apl(_):
    fit = apl.ray_fit("aab", (0.3, -0.2), (1.0, 0.0),
                      _radii_from_spec("5:500:8"))
    ok = fit.rational["slope"]["ok"] and fit.rational["grad_tau"]["ok"]
    return ("apl_ray_aab", fit.slope, ok)


_ACC_CHECKS = [_acc_markoff, _acc_count_simple, _acc_commutator,
               _acc_hexagon, _acc_hexagon, _acc_wolpert,
               _acc_word_oracle, _acc_apl]


def _run_acc(idx):
    fn = _ACC_CHECKS[idx]
    name, value, ok = fn(idx)
    return {"check": name, "value": value, "pass": bool(ok)}


def cmd_acceptance(cfg):
    rows = parallel_map(_run_acc, range(len(_ACC_CHECKS)), _workers(cfg))
    all_ok = all(r["pass"] for r in rows)
    doc = json.dumps({"schema": "ACC1", "checks": rows, "pass": all_ok},
                     sort_keys=True) + "\n"
    sys.stdout.write(doc)
    if cfg["out"]:
        _emit(cfg["out"], doc)
    if cfg["assert_"] and not all_ok:
        return 3
    return 0


def cmd_report(cfg):
    files = str(cfg["files"]).split(",")
    if not files or not files[0]:
        raise ConfigError("report needs >= 1 file")
    docs = []
    for p in files:
        try:
            with open(p) as f:
                docs.append(json.load(f))
        except (OSError, ValueError) as e:
            raise ConfigError("cannot read report %s: %s" % (p, e))
        if not isinstance(docs[-1], dict):
            raise ConfigError("%s is not a JSON object" % p)
    schemas = {d.get("schema") for d in docs}
    if len(schemas) != 1:
        raise ConfigError("schema-version mismatch: %s" % sorted(map(str, schemas)))
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    schema = schemas.pop()
    try:
        if schema == "ACC1":
            w.writerow(["check", "value", "pass"])
            for d in docs:
                for r in d["checks"]:
                    w.writerow([r["check"], r["value"], r["pass"]])
        elif schema == "ORB1":
            w.writerow(["gamma", "L", "count", "sym_order", "pruned"])
            for d in docs:
                w.writerow([d["gamma"], d["L_grid"][-1], d["counts"][-1],
                            d["sym_order"], d["pruned"]])
        elif schema == "APL1":
            w.writerow(["gamma", "slope", "rational_ok"])
            for d in docs:
                w.writerow([d["gamma"], d.get("slope"),
                            d.get("rational", {}).get("slope", {}).get("ok")])
        else:
            raise ConfigError("unknown schema %r" % schema)
    except (LookupError, TypeError, AttributeError) as e:
        raise ConfigError("malformed %s report: %r" % (schema, e))
    text = buf.getvalue()
    sys.stdout.write(text)
    if cfg["out"]:
        _emit(cfg["out"], text)
    return 0


# ---------------------------------------------------------------------------
# dispatch

# each command takes only the keys it reads: out where it writes a file,
# workers where it fans out, seed where it draws samples
_SPECS = {
    "markoff-count": ({"bound": "100", "norm": "max", "out": None}, cmd_markoff_count),
    "markoff-fit": ({"bounds": "1000,1000000,1000000000", "norm": "max",
                     "out": None}, cmd_markoff_fit),
    "count-simple": ({"x": "3,3,3", "L": "2.0"}, cmd_count_simple),
    "count-word": ({"x": "3,3,3", "word": "a", "L": "10.0", "out": None}, cmd_count_word),
    "bx": ({"x": "3,3,3"}, cmd_bx),
    "cone-count": ({"x": "3,3,3", "m": "0", "L": "60.0"}, cmd_cone_count),
    "ball-volume": ({"word": "aabAb", "L": "30.0", "l1": "0.0", "mc_samples": None,
                     "workers": "1", "seed": "0"}, cmd_ball_volume),
    "apl-ray": ({"word": "aab", "dir": "1,0", "x0": "0,0", "radii": "10:1000",
                 "l1": "0.0", "out": None}, cmd_apl_ray),
    "wall-scan": ({"word": "aab", "grid_n": "64", "l1": "0.0", "out": None},
                  cmd_wall_scan),
    "hexagon-check": ({"trials": "100", "workers": "1"}, cmd_hexagon_check),
    "wolpert-check": ({"trials": "50", "workers": "1"}, cmd_wolpert_check),
    "twist-convexity": ({"word": "b", "ell": "1.5", "span": "4.0",
                         "grid_n": "33", "l1": "0.0"}, cmd_twist_convexity),
    "acceptance": ({"assert_": None, "out": None, "workers": "1"}, cmd_acceptance),
    "report": ({"files": "", "out": None}, cmd_report),
}


def main(argv=None) -> int:
    ap = _Parser(prog="teichlab", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (defaults, _) in _SPECS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for key in defaults:
            if key == "assert_":
                p.add_argument("--assert", dest="assert_",
                               action="store_const", const="1")
            else:
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               default=None)
    try:
        ns = ap.parse_args(argv)
        defaults, fn = _SPECS[ns.cmd]
        overrides = {k: getattr(ns, k) for k in defaults}
        cfg = _load_config(ns.config, defaults, overrides)
        return fn(cfg)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 1
    except (AssertionError, ArithmeticError, RuntimeError) as e:
        print("runtime assertion: %s" % e, file=sys.stderr)
        return 2
    except ValueError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
