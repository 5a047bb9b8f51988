#!/usr/bin/env python3
"""Print the results of a fixed table of cases, one JSON line per case.

    python3 tools/same_results.py > results.jsonl

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each line is a JSON object with sorted keys: the case, its
results, and the work counters of the case under ``counters`` (ORB1's
``orbit_nodes`` and the ``evaluations``, ``families`` and ``k`` of its
metadata), so that two checkouts compare with ``diff`` and a change of work
shows apart from a change of result.  An exception is recorded as its type
and message in place of the result.

The table:

- ``point``: ``simple_slopes`` (L = 20), ``cone_count`` (m = 0, L = 25),
  ``point_symmetry_order`` and the repr of ``thurston_ball_B``, at each
  base of BASES moved by each reduced word of length <= 3 in T, t, U, u;
- ``orb1``: the ORB1 report of each word of ORB_WORDS at each base moved
  by each reduced word of length <= 2;
- ``mc``: ``_mc_sample_value`` of criterion 11 (aabAb, L = 30) for seeds
  0 and 1, samples 0-119;
- ``acc1``: the ACC1 document of ``teichlab acceptance``;
- ``criterion12``: the detail of criterion 12's line.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from teichlab import cli, orbit  # noqa: E402

BASES = [(3, 3, 3), (3, 4, 5), (4, 4, 4), (5, 5, 5), (3.2, 3.5, 4.1),
         (3.3, 3.3, 3.3), (3.3, 3.3, 5.445), (3.3, 3.5, 5.775),
         (3.0, 3.0, 4.5), (6, 6, 6), (3, 6, 15), (4, 4, 8),
         (4.1, 9.62, 3.2)]
ORB_WORDS = (("aabAb", 12.0), ("abaB", 9.0), ("aabbAB", 10.0))
MC_SEEDS = (0, 1)
MC_SAMPLES = 120
# the generator maps on triples, in the base's own arithmetic
MOVES = {"T": lambda x, y, z: (x, z, x * z - y),
         "t": lambda x, y, z: (x, x * y - z, y),
         "U": lambda x, y, z: (z, y, y * z - x),
         "u": lambda x, y, z: (x * y - z, y, x)}
INVERSE = {"T": "t", "t": "T", "U": "u", "u": "U"}
COUNTERS = ("evaluations", "families", "k")


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
    for seed, i in itertools.product(MC_SEEDS, range(MC_SAMPLES)):
        yield ["mc", seed, i]
    yield ["acc1"]
    yield ["criterion12"]


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


def run_case(case) -> str:
    """The JSON line of one case of cases()."""
    kind = case[0]
    counters = {}
    if kind == "point":
        X = moved(tuple(case[1]), case[2])
        result = {
            "simple_slopes": _attempt(orbit.simple_slopes, X, 20.0),
            "cone_count": _attempt(orbit.cone_count, X, 0, 25.0),
            "point_symmetry_order": _attempt(orbit.point_symmetry_order, X),
            "thurston_ball_B": _attempt(
                lambda: repr(orbit.thurston_ball_B(X)))}
    elif kind == "orb1":
        X = moved(tuple(case[1]), case[2])
        result = _attempt(_orb1, X, case[3], case[4], counters)
    elif kind == "mc":
        sym = orbit.curve_symmetry_order("aabAb")
        result = _attempt(orbit._mc_sample_value,
                          (case[2], case[1], "aabAb", 30.0, 0.0, sym))
    elif kind == "acc1":
        result = _attempt(_acc1)
    elif kind == "criterion12":
        result = _attempt(_criterion12)
    else:
        raise ValueError("unknown case %r" % (case,))
    return json.dumps({"case": case, "result": result, "counters": counters},
                      sort_keys=True)


def main() -> int:
    for case in cases():
        print(run_case(case), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
