"""Static name checks on every glstar module.

Every global name a module reads exists; every name a module's __all__
exports exists; every script pyproject.toml declares resolves; every name a
module-level import binds is read; no module imports another module's
private names; no module silences warnings; every function the package
defines is reached from a driver, a module's top level or the benchmark's
workloads, or is a named oracle; the package's line count is the committed
one."""

import ast
import builtins
import importlib
import inspect
import pathlib
import pkgutil
import symtable

import pytest

import glstar
from glstar import experiments

MODULES = sorted(info.name for info in pkgutil.iter_modules(glstar.__path__))
ROOT = pathlib.Path(__file__).resolve().parents[1]

# Lines of src/glstar/*.py, the ratchet: a change that cuts lines lowers it
# in the same change; it rises only for behavior a ROADMAP item requires,
# named with its reason in CHANGES.md.
SOURCE_LINES = 5324

# Functions that nothing in the package or the benchmark reaches, kept as
# the named independent reference of a route that is reached.
ORACLES = (
    "dyadic.is_good",  # one-cube goodness; the benchmark traces it by name
    "dyadic.set_distance",  # the geometric oracle for goodness
    "dyadic._box_gap",  # set_distance's box gap
    "dyadic.long_distance",  # schur_matrix's formula
    "dyadic.default_shift_radius",  # pins DEFAULT_SHIFT_RADIUS
    "haar.HaarExpansion.norm_sq_fraction",  # exact Parseval
    "core.StepFunction.inner",  # Haar orthonormality
    "core.StepFunction.l2_norm_sq",
    "kernels.make_broken",  # the checkers' negative controls
    "kernels._jump_wrap",  # make_broken's "holder_break" defect
)


def _source(name):
    module = importlib.import_module(f"glstar.{name}")
    return module, inspect.getsource(module)


def _tables(table):
    yield table
    for child in table.get_children():
        yield from _tables(child)


@pytest.mark.parametrize("name", MODULES)
def test_every_global_name_resolves(name):
    # a name read as a global in some scope must be a module attribute or a
    # builtin; otherwise the branch reading it raises NameError when it runs
    module, source = _source(name)
    top = symtable.symtable(source, module.__file__, "exec")
    unresolved = sorted(
        f"{table.get_name()}:{sym.get_name()}"
        for table in _tables(top)
        for sym in table.get_symbols()
        if sym.is_referenced() and sym.is_global()
        and not hasattr(module, sym.get_name())
        and not hasattr(builtins, sym.get_name())
    )
    assert unresolved == []


@pytest.mark.parametrize("name", ["glstar"] + [f"glstar.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    # an __all__ entry the module no longer defines breaks `import *` and
    # advertises a route that is gone
    module = importlib.import_module(name)
    missing = sorted(n for n in module.__all__ if not hasattr(module, n))
    assert missing == []


def test_every_declared_script_resolves():
    # an install writes one launcher per [project.scripts] entry; a target
    # that does not resolve makes a launcher that fails on start
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = ROOT / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    broken = []
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        try:
            obj = importlib.import_module(module)
            for part in attr.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            broken.append(f"{name} = {target}")
    assert broken == []


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_read(name):
    tree = ast.parse(_source(name)[1])
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    # an AST walk, not symtable: under `from __future__ import annotations`
    # symtable does not see the names that annotations read
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(bound - read) == []


@pytest.mark.parametrize("name", MODULES)
def test_no_private_names_from_sibling_modules(name):
    # a module's underscore names are its own; a second module reaching for
    # one keeps a second copy of a formula that has no public home
    tree = ast.parse(_source(name)[1])
    private = sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "glstar")
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert private == []


@pytest.mark.parametrize("name", MODULES)
def test_no_warning_filters(name):
    # a library that filters warnings hides its own diagnostics from the
    # caller; a route that has nothing to report must simply not warn
    tree = ast.parse(_source(name)[1])
    calls = sorted(
        f"{node.lineno}:{node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "warnings"
        and node.func.attr in ("catch_warnings", "simplefilter")
    )
    assert calls == []


def _outside_function_bodies(tree):
    # module and class statements, decorators and default values: the code
    # that runs at import
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list + node.args.defaults
                         + [d for d in node.args.kw_defaults if d is not None])
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _names(nodes, strings=False):
    for node in nodes:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def _definitions():
    """Each module-level function and method of the package: name -> list of
    (qualified name, definition)."""
    defs, import_time = {}, set()
    for name in MODULES:
        tree = ast.parse(_source(name)[1])
        import_time |= set(_names(_outside_function_bodies(tree)))
        for node in tree.body:
            inner = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{name}.{node.name}." if isinstance(node, ast.ClassDef) else f"{name}."
            for fn in inner:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.setdefault(fn.name, []).append((prefix + fn.name, fn))
    return defs, import_time


def test_every_function_is_reached_or_an_oracle():
    # by name, transitively, from the driver table, every module's import-
    # time code and every name or string in the benchmark's workloads; a
    # function none of them names is code that nothing runs (the tracer's
    # span lists name functions without calling them, so they root nothing)
    defs, reached_from = _definitions()
    reached_from |= set(experiments.DRIVERS)
    workloads = (ROOT / "perfbench" / "workloads.py").read_text()
    reached_from |= set(_names(ast.walk(ast.parse(workloads)), strings=True))
    reached_from |= {n for n in defs if n.startswith("__") and n.endswith("__")}
    reached, todo = set(), list(reached_from)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, fn in defs.get(name, ()):
                todo.extend(_names(ast.walk(fn)))
    unreached = {q for n, entries in defs.items() if n not in reached
                 for q, _ in entries}
    assert sorted(unreached - set(ORACLES)) == []


def test_every_oracle_is_defined():
    # a deleted oracle must leave the list too
    defs, _ = _definitions()
    defined = {q for entries in defs.values() for q, _ in entries}
    assert sorted(set(ORACLES) - defined) == []


def test_source_line_count_is_the_committed_one():
    lines = sum(len(path.read_text().splitlines())
                for path in (ROOT / "src" / "glstar").glob("*.py"))
    assert lines == SOURCE_LINES
