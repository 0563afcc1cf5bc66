"""Every name a cremonalab module exports resolves, and every public name is exported."""

import importlib
import pkgutil
import types

import pytest

import cremonalab

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
