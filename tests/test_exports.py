"""Every name a cremonalab module exports resolves."""

import importlib
import pkgutil

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
