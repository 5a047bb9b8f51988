#!/usr/bin/env python3
"""Print the results of a fixed table of cases, one JSON line per case.

    python3 tools/same_results.py > results.jsonl

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each line is a JSON object with sorted keys: the case, its
results, and the work counters of the case under ``counters`` (ORB1's
``orbit_nodes`` and the ``evaluations``, ``families``, ``steps`` and ``k``
of its metadata, the Farey walks of each ``point``, ``orb1`` and ``mc``
case as ``walks``, and the ``orbit._fixed_root`` calls of each ``point``,
``orb1``, ``brute``, ``mc`` and ``ball`` case, the conversions of X to
fixed point, as ``conversions``), so that two checkouts compare with
``diff`` and a change of work shows apart from a change of result.  Each
counter is taken by wrapping the name of ``orbit`` for the case
(_calls).  An exception is
recorded as its type and message in place of the result.

The table:

- ``point``: ``simple_slopes`` (L = 20), ``cone_count`` (m = 0, L = 25),
  ``point_symmetry_order`` and the repr of ``thurston_ball_B``, at each
  base of BASES moved by each reduced word of length <= 3 in T, t, U, u;
- ``orb1``: the ORB1 report of each word of ORB_WORDS at each base moved
  by each reduced word of length <= 2, and of aabAb at L = 16 at the torus
  chart's points (ell, tau) of ORB_CHART_POINTS, thin points where the
  twist walk is widest (1080 and 1926 families);
- ``brute``: the count of ``count_orbit_word_bruteforce`` (the lengths that
  its search ``_word_orbit_lengths`` returns) of each word of BRUTE_WORDS
  at each base, unmoved, with the search's ``nodes`` and ``pruned`` under
  ``counters``, and as ``images`` its ``orbit.canonical_cyclic`` calls;
- ``mc``: ``_mc_sample_value`` of criterion 11 (aabAb, L = 30) for seeds
  0 and 1, samples 0-119;
- ``acc1``: the ACC1 document of ``teichlab acceptance``;
- ``criterion12``: the detail of criterion 12's line;
- ``plan``: the exact trace at (3, 4, 5) of each word of PLAN_WORDS, with
  the ``instructions`` and ``products`` of its trace plan under
  ``counters``, so that plan size shows next to the work counters;
- ``chart``: the lengths on the (ell, tau) torus chart: ``_tau_measure``
  of aabAb at each (ell, L) of TAU_POINTS, ``apl.ray_fit`` of each word of
  RAY_WORDS on the rays of RAY_SEEDS, ``apl.wall_scan`` of each word of
  RAY_WORDS at grid 64, and the repr of
  ``ball_length_region_volume`` of aabAb at L = 10, each with the chart's
  ``chart_tries``, their ``k_sum`` and the ``mpf_exp`` calls under
  ``counters``, counted by wrapping those names of ``fn_surface`` for the
  case;
- ``ball``: the repr of ``thurston_ball_B`` and ``count_simple`` (L = 20)
  at the torus chart's points (ell, tau) of BALL_POINTS, thin points where
  the walk is long, and at MC samples 0-2 of seed 0 (as
  ``_mc_sample_value`` draws them), with the number of ``marks`` of the
  Farey walk of ``thurston_ball_B`` under ``counters``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from teichlab import apl, cli, fn_surface, fricke, orbit  # noqa: E402
from teichlab.fn_surface import S11, SurfacePoint, fricke_triple  # noqa: E402

BASES = [(3, 3, 3), (3, 4, 5), (4, 4, 4), (5, 5, 5), (3.2, 3.5, 4.1),
         (3.3, 3.3, 3.3), (3.3, 3.3, 5.445), (3.3, 3.5, 5.775),
         (3.0, 3.0, 4.5), (6, 6, 6), (3, 6, 15), (4, 4, 8),
         (4.1, 9.62, 3.2)]
ORB_WORDS = (("aabAb", 12.0), ("abaB", 9.0), ("aabbAB", 10.0))
BRUTE_WORDS = (("aabAb", 9.0), ("abaB", 9.0))
PLAN_WORDS = ("aabAb", "abaB", "aabAB", "aabbAB", "aaBabb", "aab")
TAU_POINTS = ((0.05, 10.0), (0.5, 10.0), (1.5, 20.0), (4.0, 30.0))
RAY_WORDS = ("aab", "abaB", "aabAb")
RAY_SEEDS = (14, 15)
MC_SEEDS = (0, 1)
MC_SAMPLES = 120
BALL_POINTS = ((1e-2, 0.3 * 1e-2), (1e-3, 0.3 * 1e-3))
ORB_CHART_POINTS = ((1e-2, 0.3 * 1e-2), (3e-3, 0.3 * 3e-3))
BALL_MC_SAMPLES = 3
# the generator maps on triples, in the base's own arithmetic
MOVES = {"T": lambda x, y, z: (x, z, x * z - y),
         "t": lambda x, y, z: (x, x * y - z, y),
         "U": lambda x, y, z: (z, y, y * z - x),
         "u": lambda x, y, z: (x * y - z, y, x)}
INVERSE = {"T": "t", "t": "T", "U": "u", "u": "U"}
COUNTERS = ("evaluations", "families", "steps", "k")


def move_words(n: int) -> list[str]:
    """The reduced words in T, t, U, u of length <= n, shortest first."""
    words = [""]
    for w in words:
        if len(w) < n:
            words += [w + g for g in MOVES if not w or INVERSE[g] != w[-1]]
    return words


def moved(t, word: str):
    for g in word:
        t = MOVES[g](*t)
    return t


def cases():
    """Every case of the table, as a JSON-ready list."""
    for base, w in itertools.product(BASES, move_words(3)):
        yield ["point", list(base), w]
    for base, w, (gamma, L) in itertools.product(BASES, move_words(2),
                                                 ORB_WORDS):
        yield ["orb1", list(base), w, gamma, L]
    for ell, tau in ORB_CHART_POINTS:
        yield ["orb1", "chart", ell, tau, "aabAb", 16.0]
    for base, (gamma, L) in itertools.product(BASES, BRUTE_WORDS):
        yield ["brute", list(base), gamma, L]
    for seed, i in itertools.product(MC_SEEDS, range(MC_SAMPLES)):
        yield ["mc", seed, i]
    yield ["acc1"]
    yield ["criterion12"]
    for gamma in PLAN_WORDS:
        yield ["plan", gamma]
    for ell, L in TAU_POINTS:
        yield ["chart", "tau_measure", "aabAb", ell, L]
    for gamma, seed in itertools.product(RAY_WORDS, RAY_SEEDS):
        yield ["chart", "ray_fit", gamma, seed]
    for gamma in RAY_WORDS:
        yield ["chart", "wall_scan", gamma, 64]
    yield ["chart", "volume", "aabAb", 10.0]
    for ell, tau in BALL_POINTS:
        yield ["ball", "chart", ell, tau]
    for i in range(BALL_MC_SAMPLES):
        yield ["ball", "mc", 0, i]


def _attempt(f, *args):
    try:
        return f(*args)
    except Exception as e:  # a raise is a result too
        return {"raised": type(e).__name__, "message": str(e)}


def _orb1(X, gamma, L, counters):
    d = json.loads(orbit.count_orbit_word(X, gamma, L).to_json())
    counters["orbit_nodes"] = d.pop("orbit_nodes")
    for key in COUNTERS:
        if key in d["metadata"]:
            counters[key] = d["metadata"].pop(key)
    return d


def _brute(X, gamma, L, counters):
    with _calls("canonical_cyclic") as images:
        lengths, counters["nodes"], counters["pruned"] = \
            orbit._word_orbit_lengths(X, gamma, L)
    counters["images"] = len(images)
    return len(lengths)


def _acc1():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["acceptance"])
    return {"exit": code, "stdout": out.getvalue()}


def _criterion12():
    # the computation and format of criterion 12 in tests/test_acceptance.py
    X, ms = (3.2, 3.5, 4.1), [-1, 0, 1, 3]
    c60 = [orbit.cone_count(X, m, 60.0) for m in ms]
    c120 = [orbit.cone_count(X, m, 120.0) for m in ms]
    return ("cone count x%.3f under L->2L; per-m counts %s / %s"
            % (c120[1] / c60[1], c60, c120))


def _plan(gamma, counters):
    instrs, _ = fricke._trace_plan(gamma)
    counters["instructions"] = len(instrs)
    counters["products"] = sum(op == "*" for op, _, _ in instrs)
    return fricke.trace_word_fricke((3, 4, 5), gamma)


@contextlib.contextmanager
def _chart_counters(counters):
    """Count the chart's tries, their precisions k and the mpf_exp calls
    into counters while the block runs."""
    chart, exp = fn_surface._chart_fixed, fn_surface.mpf_exp
    counters.update(chart_tries=0, k_sum=0, mpf_exp=0)

    def chart_spy(*args):
        counters["chart_tries"] += 1
        counters["k_sum"] += args[3]
        return chart(*args)

    def exp_spy(*args):
        counters["mpf_exp"] += 1
        return exp(*args)
    fn_surface._chart_fixed, fn_surface.mpf_exp = chart_spy, exp_spy
    try:
        yield
    finally:
        fn_surface._chart_fixed, fn_surface.mpf_exp = chart, exp


def _chart(counters, what, gamma, *args):
    with _chart_counters(counters):
        if what == "tau_measure":
            ell, L = args
            return orbit._tau_measure(orbit._gamma_length_fn(gamma, 0.0),
                                      ell, L)
        if what == "ray_fit":
            # the first ray of tests/test_orbit.py's ray_points(seed, n)
            rng = np.random.default_rng(args[0])
            x0 = (rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0))
            u = rng.uniform(-2.3, 2.3)
            radii = [5.0 * 10 ** (2.0 * i / 7.0) for i in range(8)]
            return json.loads(
                apl.ray_fit(gamma, x0, (1.0, u), radii).to_json())
        if what == "wall_scan":
            return json.loads(apl.wall_scan(gamma, grid_n=args[0]).to_json())
        return repr(orbit.ball_length_region_volume(gamma, *args))


@contextlib.contextmanager
def _calls(name):
    """Yield a list of the return values of the calls of orbit.<name>
    made while the block runs."""
    f = getattr(orbit, name)
    got = []

    def spy(*args):
        got.append(f(*args))
        return got[-1]
    setattr(orbit, name, spy)
    try:
        yield got
    finally:
        setattr(orbit, name, f)


def _ball_point(where, *args):
    """The triple of a ball case: the chart point (ell, tau), or that of
    MC sample i of seed, as _mc_sample_value draws it."""
    if where == "mc":
        rng = np.random.Generator(np.random.Philox(key=list(args)))
        u1, u2, u3 = rng.random(3)
        ell = orbit.SYSTOLE_TOP * max(u1, u2)
        args = (ell, u3 * ell)
    t = fricke_triple(SurfacePoint(S11, (0.0,), *args))
    return (t.x, t.y, t.z)


def run_case(case) -> str:
    """The JSON line of one case of cases()."""
    counters = {}
    with _calls("_fixed_root") as roots:
        result = _result(case, counters)
    if case[0] in ("point", "orb1", "brute", "mc", "ball"):
        counters["conversions"] = len(roots)
    return json.dumps({"case": case, "result": result, "counters": counters},
                      sort_keys=True)


def _result(case, counters):
    """The result of one case of cases(), with its counters put in
    counters."""
    kind = case[0]
    if kind == "point":
        X = moved(tuple(case[1]), case[2])
        with _calls("_farey_walk") as walks:
            result = {
                "simple_slopes": _attempt(orbit.simple_slopes, X, 20.0),
                "cone_count": _attempt(orbit.cone_count, X, 0, 25.0),
                "point_symmetry_order": _attempt(orbit.point_symmetry_order,
                                                 X),
                "thurston_ball_B": _attempt(
                    lambda: repr(orbit.thurston_ball_B(X)))}
        counters["walks"] = len(walks)
    elif kind == "orb1":
        if case[1] == "chart":
            X = _ball_point(*case[1:4])
        else:
            X = moved(tuple(case[1]), case[2])
        with _calls("_farey_walk") as walks:
            result = _attempt(_orb1, X, case[-2], case[-1], counters)
        counters["walks"] = len(walks)
    elif kind == "brute":
        result = _attempt(_brute, tuple(case[1]), case[2], case[3], counters)
    elif kind == "mc":
        sym = orbit.curve_symmetry_order("aabAb")
        with _calls("_farey_walk") as walks:
            result = _attempt(orbit._mc_sample_value,
                              (case[2], case[1], "aabAb", 30.0, 0.0, sym))
        counters["walks"] = len(walks)
    elif kind == "acc1":
        result = _attempt(_acc1)
    elif kind == "criterion12":
        result = _attempt(_criterion12)
    elif kind == "plan":
        result = _attempt(_plan, case[1], counters)
    elif kind == "chart":
        result = _attempt(_chart, counters, *case[1:])
    elif kind == "ball":
        X = _ball_point(*case[1:])
        with _calls("_farey_walk") as walks:
            ball = _attempt(lambda: repr(orbit.thurston_ball_B(X)))
        if walks:
            counters["marks"] = len(walks[-1][0])
        result = {"thurston_ball_B": ball,
                  "count_simple": _attempt(orbit.count_simple, X, 20.0)}
    else:
        raise ValueError("unknown case %r" % (case,))
    return result


def main() -> int:
    for case in cases():
        print(run_case(case), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
