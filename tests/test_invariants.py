"""Source-level rules that keep the invariant checks alive."""

import ast
import importlib
import os
import re
import subprocess
import sys
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
    # one precision policy: the orbit searches, the Farey walk of the slope
    # and cone counts and of the ball area, the twist walk and the chart
    # with its exponential kernel run in 2^-k fixed point; no module of
    # the package imports mpmath, so a second arithmetic cannot grow back
    found = []
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += ["%s:%s:%d" % (path.name, m, node.lineno) for m in mods
                      if m.split(".")[0] == "mpmath"]
    # nor through another module's names
    for path in paths:
        mod = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = importlib.import_module("teichlab." + mod)
        found += ["%s.%s" % (path.name, name)
                  for name, v in vars(module).items()
                  if (getattr(v, "__module__", None) or "")
                  .startswith("mpmath")]
    assert not found, "src/teichlab imports mpmath: %s" % found


def test_cli_import_loads_no_mpmath():
    # the CLI with every module it imports leaves mpmath out of the process
    code = "import sys, teichlab.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "False", out.stdout + out.stderr


def test_length_path_sets_no_global_precision():
    # the (ell, tau) chart with its error bounds, the twist-line length
    # function with its precision policy, the plan evaluation with and
    # without its error bound are fixed point end to end, and the twist
    # measure with its end search only calls them: no mpmath context
    # precision is read or set
    names = {"fn_surface.py": ["_gamma_length_fn", "_chart_fixed",
                               "_chart_kappa", "_exp_fixed", "_exp_man",
                               "_certified_length", "fricke_triple"],
             "orbit.py": ["_tau_measure", "_end_predicate", "_bisect"],
             "fricke.py": ["_plan_eval_fixed", "_plan_eval_bounded",
                           "_trace_length"]}
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


def _fields(tree):
    """(field, node) for each field of the namedtuple records assigned at
    the top of a module, X = namedtuple("X", "a b c")."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and getattr(node.value.func, "id", None) == "namedtuple":
            for field in node.value.args[1].value.replace(",", " ").split():
                yield field, node


def _docstrings(tree):
    """The ids of the docstring constants of a module, class or function."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def _references(tree, strings):
    """(name, line) for each reference in code: a Name, the attribute of
    an Attribute, a name an import brings in and, with strings, each word
    of a string constant that is not a docstring (the benchmark names the
    functions it wraps by string).  Comments, docstrings and, without
    strings, string constants refer to nothing."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1], node.lineno
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str) and id(node) not in docs:
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno


def test_no_orphan_names():
    # code that nothing calls gets deleted: every top-level name of the
    # package, and every method of its classes, must be referenced in code
    # outside its own definition, in src, perfbench, tools or the
    # acceptance criteria (_references: outside src a name in a string
    # counts too, since the benchmark names functions by string; a word in
    # a comment, a docstring or a string of src does not).  A unit test is
    # not a caller: a name that only its own test runs is an orphan.  A
    # field of a namedtuple record is read as an attribute, so a field is
    # an orphan unless some code reads .field
    root = Path(__file__).resolve().parents[1]
    files = sorted(SRC.rglob("*.py"))
    for d in ("perfbench", "tools"):
        files += sorted((root / d).rglob("*.py"))
    files.append(root / "tests" / "test_acceptance.py")
    refs, attrs = {}, set()
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, line in _references(tree, SRC not in path.parents):
            refs.setdefault(name, []).append((path, line))
        attrs |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    orphans = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = importlib.import_module("teichlab." + path.stem)
        for name, node in _names(module, tree):
            if all(p == path and node.lineno <= line <= node.end_lineno
                   for p, line in refs.get(name, [])):
                orphans.append("%s:%d %s" % (path.name, node.lineno, name))
        orphans += ["%s:%d %s.%s" % (path.name, node.lineno,
                                     node.targets[0].id, field)
                    for field, node in _fields(tree) if field not in attrs]
    assert not orphans, "names nothing uses: %s" % orphans
