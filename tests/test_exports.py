"""Every name a cremonalab module exports resolves, and every public name is exported."""

import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import pytest

import cremonalab
from cremonalab.groups import FiniteGroup

MODULES = ["cremonalab"] + [
    "cremonalab." + info.name for info in pkgutil.iter_modules(cremonalab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def public_names(module):
    """Public functions and classes a module defines; for the package, every
    public name it binds that is not a submodule."""
    for attr, value in vars(module).items():
        if attr.startswith("_"):
            continue
        if module is cremonalab:
            if not isinstance(value, types.ModuleType):
                yield attr
        elif isinstance(value, (types.FunctionType, type)) and value.__module__ == module.__name__:
            yield attr


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_name(name):
    module = importlib.import_module(name)
    assert sorted(set(public_names(module)) - set(module.__all__)) == []


def test_traced_layers_exist():
    # perfbench/tracing.py wraps these by name, so renaming one breaks the traced run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for home, names in tracing.LAYERS.items():
        module = importlib.import_module("cremonalab." + home)
        for fname in names:
            value = getattr(module, fname, None)
            assert isinstance(value, types.FunctionType), (home, fname)
            assert value.__module__ == module.__name__, (home, fname)
    assert isinstance(FiniteGroup.__dict__.get("subgroup_closure"), types.FunctionType)
