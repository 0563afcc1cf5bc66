"""Core group machinery against naive oracles."""

import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cremonalab.conic_fibers import FAMILY_REPRESENTATIVES
from cremonalab import groups
from cremonalab.corpus import small_group_corpus
from cremonalab.groupfiles import load_group
from cremonalab.groups import (
    CapExceeded,
    IncompatiblePayloads,
    ModMatrix,
    Permutation,
    close_generators,
    commutator_subgroup,
    cyclic_product,
    conjugacy_classes,
    minimal_generators,
    sign_characters,
)
from cremonalab.semidirect import build_group

S4_GENS = [
    Permutation.from_cycles(4, [[1, 2]]),
    Permutation.from_cycles(4, [[1, 2, 3, 4]]),
]


@pytest.fixture(scope="module")
def s4():
    return close_generators(S4_GENS)


@pytest.fixture(scope="module")
def corpus():
    return small_group_corpus()


@pytest.fixture(scope="module")
def family5():
    return build_group(5)


@pytest.fixture(scope="module")
def closure_cases(family5):
    """Groups for the closure oracle, each with its table as nested lists."""
    cases = [close_generators(S4_GENS), family5, cyclic_product((2, 4, 4))]
    return [(group, oracles.table_of(group)) for group in cases]


perm_images = st.permutations(range(5)).map(tuple)


def test_from_cycles_examples():
    p = Permutation.from_cycles(4, [[1, 2], [3, 4]])
    assert p.images == (1, 0, 3, 2)
    q = Permutation.from_cycles(3, [[1, 2, 3]])
    # 1 -> 2 -> 3 -> 1 in 1-based labels
    assert q.images == (1, 2, 0)
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [[1, 4]])
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [[1, 1]])


@given(perm_images, perm_images)
@settings(max_examples=25, deadline=None)
def test_permutation_compose_matches_oracle(a, b):
    pa, pb = Permutation(a), Permutation(b)
    assert pa.compose(pb).images == oracles.compose_images(a, b)


@given(perm_images, perm_images, perm_images)
@settings(max_examples=25, deadline=None)
def test_permutation_compose_associative(a, b, c):
    pa, pb, pc = Permutation(a), Permutation(b), Permutation(c)
    assert pa.compose(pb).compose(pc) == pa.compose(pb.compose(pc))


@given(st.integers(min_value=2, max_value=7), st.data())
@settings(max_examples=25, deadline=None)
def test_modmatrix_compose_matches_oracle(n, data):
    entries = st.integers(min_value=0, max_value=n - 1)
    rows = lambda: tuple(tuple(data.draw(entries) for _ in range(3)) for _ in range(3))
    a, b = ModMatrix(n, rows()), ModMatrix(n, rows())
    assert a.compose(b).entries == oracles.matmul_mod(a.entries, b.entries, n)


def test_incompatible_payloads():
    p3 = Permutation.from_cycles(3, [[1, 2]])
    p4 = Permutation.from_cycles(4, [[1, 2]])
    with pytest.raises(IncompatiblePayloads):
        p3.compose(p4)
    with pytest.raises(IncompatiblePayloads):
        close_generators([p3, ModMatrix(5, ((0, 1), (1, 0)))])


def assert_table_matches_compose(group):
    # full table check against raw payload composition
    for i in range(group.order):
        for j in range(group.order):
            composed = group.elements[i].compose(group.elements[j])
            assert group.elements[int(group.mul[i, j])] == composed
    # inverses from the table
    assert group.inverse.dtype == np.int32
    assert group.inverse.tolist() == oracles.inverse_row(oracles.table_of(group))


def test_close_generators_s4(s4):
    assert s4.order == 24
    assert s4.identity == 0
    assert_table_matches_compose(s4)


GROUPFILES = Path(__file__).resolve().parent.parent / "demos" / "groupfiles"
P4 = Permutation.from_cycles(4, [[1, 2, 3, 4]])
E4 = Permutation.identity_of_degree(4)


def test_close_generators_table_matches_compose(family5):
    assert_table_matches_compose(load_group(str(GROUPFILES / "special_linear_mod3.json")))
    assert_table_matches_compose(family5)


@pytest.mark.parametrize("gens, generators, via", [
    ([P4, P4], (1, 1), [-1, 0, 0, 0]),
    ([E4, P4], (0, 1), [-1, 1, 1, 1]),
    ([P4, E4, P4], (1, 0, 1), [-1, 0, 0, 0]),
], ids=["p_p", "e_p", "p_e_p"])
def test_close_generators_repeated_and_identity_generators(gens, generators, via):
    # a repeated generator is reached through its first position
    group = close_generators(gens)
    assert [e.images for e in group.elements] == [
        (0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
    assert group.generators == generators
    assert group._parent.tolist() == [-1, 0, 1, 2]
    assert group._via.tolist() == via
    assert group.inverse.tolist() == [0, 3, 2, 1]
    assert_table_matches_compose(group)


def test_element_order_matches_oracle(s4):
    for i in range(s4.order):
        assert s4.element_order(i) == oracles.perm_order(s4.elements[i].images)


def test_closure_is_generator_order_independent():
    g1 = close_generators(S4_GENS)
    g2 = close_generators(list(reversed(S4_GENS)))
    assert [e.key() for e in g1.elements] == [e.key() for e in g2.elements]


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        close_generators(S4_GENS, cap=10)


def test_table_bytes_bound(monkeypatch):
    monkeypatch.setattr(groups, "MAX_TABLE_BYTES", 1000)
    with pytest.raises(CapExceeded, match="bytes"):
        close_generators(S4_GENS)
    with pytest.raises(CapExceeded, match="bytes"):
        cyclic_product((32, 32))


def test_generators_index_input_payloads(s4):
    for gi, payload in zip(s4.generators, S4_GENS):
        assert s4.elements[gi] == payload


@given(st.sets(st.integers(min_value=0, max_value=10**6), max_size=4))
@settings(max_examples=25, deadline=None)
def test_subgroup_closure_matches_oracle(closure_cases, seeds):
    for group, table in closure_cases:
        members = {s % group.order for s in seeds}
        got = set(group.subgroup_closure(members))
        assert got == set(oracles.close_under_product(table, members))


def test_product_set_matches_oracle(corpus, family5):
    rng = random.Random(11)
    for name, group in list(corpus.items()) + [("family_n5", family5)]:
        table = oracles.table_of(group)
        for _ in range(20):
            left = rng.sample(range(group.order), rng.randint(0, min(group.order, 15)))
            right = rng.sample(range(group.order), rng.randint(0, min(group.order, 15)))
            expected = sorted({table[x][y] for x in left for y in right})
            assert list(group.product_set(left, right)) == expected, name


def test_conjugacy_classes_s4(s4):
    classes = conjugacy_classes(s4)
    assert classes[0] == (0,)
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 3, 6, 6, 8]
    seen = sorted(i for c in classes for i in c)
    assert seen == list(range(24))
    for cls in classes:
        members = set(cls)
        for g in range(s4.order):
            assert {s4.conjugate(g, x) for x in cls} == members


def test_normal_closure_is_minimal_normal(s4):
    table = oracles.table_of(s4)
    transposition = s4.find(Permutation.from_cycles(4, [[1, 2]]))
    closure = set(s4.normal_closure([transposition]))
    assert oracles.is_normal_subset(table, closure)
    # the only normal subgroup containing a transposition is the whole group
    assert len(closure) == 24
    three_cycle = s4.find(Permutation.from_cycles(4, [[1, 2, 3]]))
    closure = set(s4.normal_closure([three_cycle]))
    assert oracles.is_normal_subset(table, closure)
    assert len(closure) == 12


def test_commutator_subgroup_s4_is_order_12(s4):
    derived = commutator_subgroup(s4)
    assert derived.order == 12
    assert all(s4.elements[i].images != (1, 0, 2, 3) for i in derived.members)
    klein = small_group_corpus()["c4xc2"]
    assert commutator_subgroup(klein).order == 1


def test_sign_characters_multiplicative(corpus):
    for name, group in corpus.items():
        chars = sign_characters(group)
        assert chars[0] == tuple([1] * group.order), name
        for chi in chars:
            assert set(chi) <= {1, -1}
            for a in range(group.order):
                for b in range(group.order):
                    assert chi[int(group.mul[a, b])] == chi[a] * chi[b], name
        assert len(set(chars)) == len(chars)


def test_sign_character_counts(s4, corpus):
    # index-2 kernels: S4 has one (A4), C4xC2 has three
    assert len(sign_characters(s4)) == 2
    assert len(sign_characters(corpus["c4xc2"])) == 4
    assert len(sign_characters(corpus["a4"])) == 1


def test_minimal_generators_generate(s4):
    table = oracles.table_of(s4)
    for members in (tuple(range(24)), tuple(sorted(set(s4.subgroup_closure([5]))))):
        gens = minimal_generators(s4, members)
        assert oracles.close_under_product(table, gens) == frozenset(members)


def test_subgroup_view_consistency(s4):
    table = oracles.table_of(s4)
    derived = commutator_subgroup(s4)
    assert derived.is_normal() == oracles.is_normal_subset(table, derived.members)
    assert derived.is_abelian() == oracles.is_abelian_subset(table, derived.members)
    assert derived.index == 2
    as_group = derived.to_group()
    assert as_group.order == derived.order


def block_cycles(factors):
    """One rotation per factor, each on its own block of points."""
    degree, gens, offset = sum(factors), [], 0
    for d in factors:
        images = list(range(degree))
        for i in range(d):
            images[offset + i] = offset + (i + 1) % d
        gens.append(Permutation(tuple(images)))
        offset += d
    return gens


@pytest.mark.parametrize("factors", list(FAMILY_REPRESENTATIVES) + [(1,), (1, 3), (6, 4), (8, 8), (5, 1, 2)])
def test_cyclic_product_matches_closure(factors):
    direct = cyclic_product(factors)
    closed = close_generators(block_cycles(factors))
    vectors = [tuple(int(e) for e in np.unravel_index(i, factors)) for i in range(direct.order)]
    assert list(direct.elements) == vectors
    # element i rotates block t of the block cycles by its digit t
    offsets = np.cumsum((0,) + factors[:-1])
    rotations = []
    for digits in direct.elements:
        images = []
        for offset, d, e in zip(offsets, factors, digits):
            images.extend(int(offset) + (j + e) % d for j in range(d))
        rotations.append(Permutation(tuple(images)))
    to_closed = np.array([closed.find(p) for p in rotations])
    assert sorted(to_closed.tolist()) == list(range(closed.order))
    assert np.array_equal(closed.mul[np.ix_(to_closed, to_closed)], to_closed[direct.mul])
    assert np.array_equal(closed.inverse[to_closed], to_closed[direct.inverse])
    assert to_closed[list(direct.generators)].tolist() == list(closed.generators)
    assert len(sign_characters(direct)) == len(sign_characters(closed))


def test_cyclic_product_rejects_bad_factors():
    for bad in ((), (0,), (3, -1)):
        with pytest.raises(ValueError):
            cyclic_product(bad)
    with pytest.raises(CapExceeded):
        cyclic_product((1000, 1000))


def test_cyclic_product_table_is_built_without_large_temporaries():
    tracemalloc.start()
    try:
        group = cyclic_product((16, 16, 16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * group.mul.nbytes
