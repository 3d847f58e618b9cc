"""Static name resolution: every global name a glstar module reads exists."""

import builtins
import importlib
import inspect
import pkgutil
import symtable

import pytest

import glstar

MODULES = sorted(info.name for info in pkgutil.iter_modules(glstar.__path__))


def _tables(table):
    yield table
    for child in table.get_children():
        yield from _tables(child)


@pytest.mark.parametrize("name", MODULES)
def test_every_global_name_resolves(name):
    # a name read as a global in some scope must be a module attribute or a
    # builtin; otherwise the branch reading it raises NameError when it runs
    module = importlib.import_module(f"glstar.{name}")
    top = symtable.symtable(inspect.getsource(module), module.__file__, "exec")
    unresolved = sorted(
        f"{table.get_name()}:{sym.get_name()}"
        for table in _tables(top)
        for sym in table.get_symbols()
        if sym.is_referenced() and sym.is_global()
        and not hasattr(module, sym.get_name())
        and not hasattr(builtins, sym.get_name())
    )
    assert unresolved == []
