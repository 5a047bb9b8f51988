"""Source-level rules that keep the invariant checks alive."""

import ast
from pathlib import Path

import teichlab

SRC = Path(next(iter(teichlab.__path__)))


def test_no_assert_statements():
    # `python -O` strips assert statements, so an invariant written as one
    # would stop firing; checks must raise explicitly
    found = []
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/teichlab: %s" % found


def test_orbit_searches_make_no_mpmath_call():
    # one precision policy: both orbit searches and the Farey walk of the
    # slope and cone counts and of the ball area run in 2^-k fixed point,
    # and a second arithmetic must not grow back into them
    searches = ["_pruned_bfs", "_family_lengths", "_walk_family",
                "_twist_node", "_word_orbit_lengths",
                "_word_length", "_rep_fixed", "_trace_length",
                "_farey_walk", "_twist_reduced", "simple_slopes", "cone_count",
                "thurston_ball_B", "_ball_area"]
    tree = ast.parse((SRC / "orbit.py").read_text())
    mp_names = {"mpmath"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mp_names |= {a.asname for a in node.names
                         if a.asname and a.name.split(".")[0] == "mpmath"}
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "mpmath":
            mp_names |= {a.asname or a.name for a in node.names}
    funcs = {node.name: node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)}
    assert set(searches) <= set(funcs), set(searches) - set(funcs)
    found = ["%s:%d" % (name, node.lineno)
             for name in searches for node in ast.walk(funcs[name])
             if isinstance(node, ast.Name) and node.id in mp_names]
    assert not found, "mpmath in the orbit searches: %s" % found


def test_length_path_sets_no_global_precision():
    # the (ell, tau) chart with its error bounds, the twist-line length
    # function with its precision policy, the plan evaluation and its error
    # pass are fixed point end to end, and the twist measure with its end
    # search only calls them: no mpmath context precision is read or set
    names = {"orbit.py": ["_gamma_length_fn", "_chart_fixed", "_exp_fixed",
                          "_tau_measure", "_end_predicate", "_bisect",
                          "_trace_length", "_certified_length"],
             "fricke.py": ["_plan_eval_fixed", "_plan_error_fixed"]}
    context = {"workdps", "workprec", "extradps", "extraprec", "dps", "prec"}
    found = []
    for module, wanted in names.items():
        tree = ast.parse((SRC / module).read_text())
        funcs = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
        assert set(wanted) <= set(funcs), set(wanted) - set(funcs)
        found += ["%s:%d" % (name, node.lineno)
                  for name in wanted for node in ast.walk(funcs[name])
                  if (isinstance(node, ast.Attribute) and node.attr in context)
                  or (isinstance(node, ast.Name) and node.id in context)]
    assert not found, "mpmath precision state on the length path: %s" % found
