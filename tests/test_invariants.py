"""Source-level rules that keep the invariant checks alive."""

import ast
import importlib
import re
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
                "_word_length", "_block", "_rep_fixed", "_trace_length",
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
    # function with its precision policy, the plan evaluation with and
    # without its error bound are fixed point end to end, and the twist
    # measure with its end search only calls them: no mpmath context
    # precision is read or set
    names = {"orbit.py": ["_gamma_length_fn", "_chart_fixed", "_exp_fixed",
                          "_tau_measure", "_end_predicate", "_bisect",
                          "_trace_length", "_certified_length"],
             "fricke.py": ["_plan_eval_fixed", "_plan_eval_bounded"]}
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


def _names(module, tree):
    """(name, node) for each function, class and plain assignment at the
    top of a module, and for each method of its classes but dunders and
    overrides of a base-class method (argparse calls _Parser.error)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, node
        if isinstance(node, ast.ClassDef):
            bases = getattr(module, node.name).__mro__[1:]
            for f in node.body:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not re.fullmatch(r"__\w+__", f.name) \
                        and not any(f.name in vars(b) for b in bases):
                    yield f.name, f


def test_no_orphan_names():
    # code that nothing calls gets deleted: every top-level name of the
    # package, and every method of its classes, must appear outside its own
    # definition in src, perfbench, tools or the acceptance criteria (the
    # benchmark names functions by string).  A unit test is not a caller:
    # a name that only its own test runs is an orphan
    root = Path(__file__).resolve().parents[1]
    files = sorted(SRC.rglob("*.py"))
    for d in ("perfbench", "tools"):
        files += sorted((root / d).rglob("*.py"))
    files.append(root / "tests" / "test_acceptance.py")
    texts = {path: path.read_text() for path in files}
    orphans = []
    for path in sorted(SRC.glob("*.py")):
        lines = texts[path].splitlines(keepends=True)
        tree = ast.parse(texts[path], filename=str(path))
        module = importlib.import_module("teichlab." + path.stem)
        for name, node in _names(module, tree):
            word = re.compile(r"\b%s\b" % re.escape(name))
            own = "".join(lines[node.lineno - 1:node.end_lineno])
            uses = sum(len(word.findall(t)) for t in texts.values())
            if uses == len(word.findall(own)):
                orphans.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not orphans, "names nothing uses: %s" % orphans
