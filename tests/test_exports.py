"""Every name a cremonalab module exports resolves, and every public name is exported."""

import ast
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


# The only functions outside groups.py that read a group's Cayley table
# (``mul`` or ``inverse``) directly: dp5 builds rho by walking the table and
# checks rho against every product in it.
TABLE_READERS = {("dp5", "s5_representation"), ("dp5", "verify_homomorphism")}


def test_only_groups_reads_the_cayley_table():
    # every other module goes through FiniteGroup's methods (powers,
    # conjugates, centralizes, subgroup_closure, ...), so that another group
    # representation has only those to provide
    reads = set()
    for path in sorted(Path(cremonalab.__file__).parent.glob("*.py")):
        if path.name == "groups.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("mul", "inverse"):
                    reads.add((path.stem, getattr(top, "name", "line %d" % node.lineno)))
    assert reads == TABLE_READERS
