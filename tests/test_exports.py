"""Every name a cremonalab module exports resolves, and every public name is exported."""

import ast
import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import numpy as np
import pytest

import cremonalab
from cremonalab.dp5 import Representation, s5_representation, verify_homomorphism
from cremonalab.groups import FiniteGroup, commutator_subgroup, conjugacy_classes, minimal_generators
from cremonalab.jordan import jordan_index, normal_subgroups
from cremonalab.semidirect import build_group

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


# The functions outside groups.py that read a group's Cayley table (``mul``
# or ``inverse``) directly: none, since every product goes through
# ``FiniteGroup.products``.
TABLE_READERS = set()

GROUPS_PY = Path(cremonalab.__file__).parent / "groups.py"


def test_only_groups_reads_the_cayley_table():
    # every other module goes through FiniteGroup's methods (products, powers,
    # conjugates, centralizes, subgroup_closure, ...), so that another group
    # representation has only those to provide
    reads = set()
    for path in sorted(Path(cremonalab.__file__).parent.glob("*.py")):
        if path == GROUPS_PY:
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("mul", "inverse"):
                    reads.add((path.stem, getattr(top, "name", "line %d" % node.lineno)))
    assert reads == TABLE_READERS


def test_only_products_reads_mul_inside_groups():
    # close_generators fills the table and __post_init__ freezes it; every
    # other function in groups.py multiplies through FiniteGroup.products
    functions = []
    for top in ast.parse(GROUPS_PY.read_text()).body:
        body = top.body if isinstance(top, ast.ClassDef) else [top]
        functions += [node for node in body if isinstance(node, ast.FunctionDef)]
    readers = {function.name for function in functions
               for node in ast.walk(function)
               if isinstance(node, ast.Attribute) and node.attr == "mul"
               or isinstance(node, ast.Name) and node.id == "mul"
               or isinstance(node, ast.keyword) and node.arg == "mul"}
    assert readers == {"products", "close_generators", "__post_init__"}


class ComposedGroup(FiniteGroup):
    """A group whose products compose payloads; its ``mul`` is empty, so a
    read of the table that bypasses ``products`` raises IndexError."""

    def products(self, x, y):
        compose = lambda a, b: self.find(self.elements[a].compose(self.elements[b]))
        return np.vectorize(compose, otypes=[np.intp])(x, y)


def test_every_group_operation_runs_on_products_alone():
    # the same answers with products computed instead of read, which is all
    # that another group representation has to provide besides ``inverse``
    table = build_group(2)
    composed = ComposedGroup(table.elements, np.zeros((0, 0), np.int32), table.generators,
                             table.inverse)
    lattices = normal_subgroups(table), normal_subgroups(composed)
    assert [n.members for n in lattices[1]] == [n.members for n in lattices[0]]
    assert lattices[1].abelian == lattices[0].abelian
    assert jordan_index(composed).witness.members == jordan_index(table).witness.members
    assert conjugacy_classes(composed) == conjugacy_classes(table)
    whole = (table.subgroup(range(table.order)), composed.subgroup(range(table.order)))
    assert commutator_subgroup(whole[1]).members == commutator_subgroup(whole[0]).members
    assert minimal_generators(composed, whole[1].members) == minimal_generators(table, whole[0].members)
    assert [composed.powers(g) for g in range(8)] == [table.powers(g) for g in range(8)]
    rep = s5_representation()
    s5 = ComposedGroup(rep.group.elements, np.zeros((0, 0), np.int32), rep.group.generators,
                       rep.group.inverse)
    assert verify_homomorphism(Representation(group=s5, mats=rep.mats)) == 120 * 120
