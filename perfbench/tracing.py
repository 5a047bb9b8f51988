"""In-memory spans around calls into teichlab's public functions.

The traced run wraps module attributes from outside the program: each call
through a wrapped name records one span (name, start, end, parent span,
op id, attributes).  Nothing under ``src/`` is edited; a wrapper replaces
the attribute on the module whose namespace the caller looks the name up
in, so ``orbit.canonical_cyclic`` times the calls orbit makes into fricke
and not the calls fricke makes to itself.

A boundary name that no longer exists is skipped, so its metrics read zero
calls instead of failing the run.
"""

from __future__ import annotations

import collections
import json
import time
import types

# (span name, module attribute path, attribute name).  The span name is the
# layer the call goes into; the path is where the caller looks it up.
PUBLIC = [
    ("fn_surface.fricke_triple", "fn_surface", "fricke_triple"),
    ("orbit.simple_slopes", "orbit", "simple_slopes"),
    ("orbit.count_simple", "orbit", "count_simple"),
    ("orbit.curve_symmetry_order", "orbit", "curve_symmetry_order"),
    ("orbit.count_orbit_word", "orbit", "count_orbit_word"),
    ("orbit.count_orbit_word_bruteforce", "orbit", "count_orbit_word_bruteforce"),
    ("orbit.thurston_ball_B", "orbit", "thurston_ball_B"),
    ("orbit.cone_count", "orbit", "cone_count"),
    # one twist line of the length-ball volume (ball_length_region_volume
    # integrates it over ell)
    ("orbit._tau_measure", "orbit", "_tau_measure"),
    ("markoff.enumerate_count", "markoff", "enumerate_count"),
    ("apl.ray_fit", "apl", "ray_fit"),
    ("apl.wall_scan", "apl", "wall_scan"),
]
# module boundaries as seen from orbit: names orbit imported from fricke,
# and the farey module orbit calls through
FROM_ORBIT = [
    ("fricke.canonical_cyclic", "canonical_cyclic"),
    ("fricke.trace_word_fricke", "trace_word_fricke"),
]
FAREY_FROM_ORBIT = [("farey.direction_length_rate", "direction_length_rate")]

# work counters read off a layer's return value: BFS nodes from the count
# report, length evaluations from the APL reports
WORK = {
    "orbit.count_orbit_word": lambda r: {
        "engine": r.metadata.get("engine"), "nodes": r.orbit_nodes,
        "pruned": r.pruned},
    "apl.ray_fit": lambda r: {"evals": len(r.radii) + 4},
    "apl.wall_scan": lambda r: {"evals": 2 * (r.grid_n + 1)},
}


class Tracer:
    """Span recorder; ``on`` is false outside the timed ops."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent, op, attrs]
        self.stack = []
        self.op = None
        self.on = False

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self.stack[-1] if self.stack else None, self.op, None]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            work = WORK.get(name)
            if work is not None:
                try:
                    span[5] = work(out)
                except AttributeError:
                    pass   # a report without the counter: no work recorded
            return out
        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        with open(path, "w") as f:
            for name, t0, t1, parent, op, attrs in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                    "parent": parent, "op": op,
                                    "attrs": attrs}) + "\n")


class _ModuleView(types.ModuleType):
    """A module seen through a few replaced attributes."""

    def __init__(self, module, overrides):
        super().__init__(module.__name__)
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer, modules):
    """Wrap the traced boundaries; returns a function undoing it."""
    undo = []

    def swap(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for span_name, mod_name, attr in PUBLIC:
        mod = modules[mod_name]
        if attr in mod.__dict__:
            swap(mod, attr, tracer.wrap(span_name, mod.__dict__[attr]))
    orbit = modules["orbit"]
    for span_name, attr in FROM_ORBIT:
        if attr in orbit.__dict__:
            swap(orbit, attr, tracer.wrap(span_name, orbit.__dict__[attr]))
    farey = orbit.__dict__.get("farey")
    if isinstance(farey, types.ModuleType):
        overrides = {attr: tracer.wrap(name, farey.__dict__[attr])
                     for name, attr in FAREY_FROM_ORBIT
                     if attr in farey.__dict__}
        swap(orbit, "farey", _ModuleView(farey, overrides))

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
    return uninstall


def span_names():
    return ([n for n, _, _ in PUBLIC] + [n for n, _ in FROM_ORBIT]
            + [n for n, _ in FAREY_FROM_ORBIT])


def layer_metrics(spans, accept=None):
    """Per-layer metrics from finished spans.

    self_s is a span's duration minus the time its child spans cover.
    us_per_node and us_per_eval use the inclusive span time, the cost a
    caller of that layer sees per unit of work.  accept is (samples drawn,
    samples inside the fundamental domain) where the workload has them.
    """
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    agg = collections.defaultdict(collections.Counter)
    for i, (name, t0, t1, _, _, attrs) in enumerate(spans):
        attrs = attrs or {}
        keys = [name]
        if attrs.get("engine"):
            keys.append(name + "." + attrs["engine"])
        for k in keys:
            a = agg[k]
            a["calls"] += 1
            a["self_s"] += (t1 - t0) - child[i]
            a["total_s"] += t1 - t0
            a["work"] += attrs.get("nodes", 0) + attrs.get("evals", 0)
            a["pruned"] += attrs.get("pruned", 0)

    def per(a):
        return 1e6 * a["total_s"] / a["work"] if a["work"] else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in span_names():
        put(name + ".calls", agg[name]["calls"], "count")
        put(name + ".self_s", agg[name]["self_s"], "s")
    cw = agg["orbit.count_orbit_word"]
    put("orbit.count_orbit_word.nodes", cw["work"], "count")
    put("orbit.count_orbit_word.us_per_node", per(cw), "us")
    put("orbit.count_orbit_word.pruned_ratio",
        cw["pruned"] / cw["work"] if cw["work"] else 0.0, "ratio")
    for e in ("triple-orbit", "word-orbit"):
        a = agg["orbit.count_orbit_word." + e]
        put("orbit.count_orbit_word.%s.calls" % e, a["calls"], "count")
        put("orbit.count_orbit_word.%s.nodes" % e, a["work"], "count")
        put("orbit.count_orbit_word.%s.us_per_node" % e, per(a), "us")
    a = agg["orbit.count_orbit_word.simple-slope"]
    put("orbit.count_orbit_word.simple-slope.calls", a["calls"], "count")
    put("orbit.count_orbit_word.simple-slope.self_s", a["self_s"], "s")
    put("apl.ray_fit.us_per_eval", per(agg["apl.ray_fit"]), "us")
    put("apl.wall_scan.us_per_eval", per(agg["apl.wall_scan"]), "us")
    drawn, accepted = accept or (0, 0)
    put("orbit.simple_slopes.accept_ratio",
        accepted / drawn if drawn else 0.0, "ratio")
    return out
