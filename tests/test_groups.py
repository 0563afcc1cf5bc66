"""Core group machinery against naive oracles."""

import random
import time
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
from cremonalab.dp5 import s5_representation, standard_subgroups
from cremonalab import groupfiles
from cremonalab.groupfiles import GroupFileError, load_group, parse_group
from cremonalab.groups import (
    CapExceeded,
    IncompatiblePayloads,
    ModMatrix,
    Permutation,
    close_generators,
    commutator_subgroup,
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
    cases = [close_generators(S4_GENS), family5, oracles.cyclic_product((2, 4, 4))]
    return [(group, oracles.table_of(group)) for group in cases]


perm_images = st.permutations(range(5)).map(tuple)


def whole(group):
    """The group as a subgroup of itself, generated by its generators."""
    return group.subgroup(range(group.order), gens=group.generators)


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
    for group in small_group_corpus().values():
        assert_table_matches_compose(group)


@pytest.mark.parametrize("gens, generators", [
    ([P4, P4], (1, 1)),
    ([E4, P4], (0, 1)),
    ([P4, E4, P4], (1, 0, 1)),
], ids=["p_p", "e_p", "p_e_p"])
def test_close_generators_repeated_and_identity_generators(gens, generators):
    group = close_generators(gens)
    assert [e.images for e in group.elements] == [
        (0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
    assert group.generators == generators
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


def test_cap_is_checked_as_each_product_is_found(monkeypatch):
    # the 15 transpositions of S6 fit the cap, their 225 products do not: the
    # cap must stop the closure within the first few of them
    gens = [Permutation.from_cycles(6, [[a, b]]) for a in range(1, 7) for b in range(a + 1, 7)]
    calls = []
    compose = Permutation.compose

    def counting_compose(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(Permutation, "compose", counting_compose)
    with pytest.raises(CapExceeded, match="cap=20"):
        close_generators(gens, cap=20)
    assert len(calls) < 2 * len(gens)


def test_table_bytes_bound(monkeypatch):
    monkeypatch.setattr(groups, "MAX_TABLE_BYTES", 1000)
    with pytest.raises(CapExceeded, match="bytes"):
        close_generators(S4_GENS)


def test_matrix_dimension_bound_precedes_determinant(monkeypatch):
    # the determinant is the first costly step, so the bound must come before it
    def no_det(rows):
        raise AssertionError("exact_det reached")

    monkeypatch.setattr(groupfiles, "MAX_MATRIX_DIM", 1)
    monkeypatch.setattr(groupfiles, "exact_det", no_det)
    for gen in ([[1, 1], [0, 1]], [1, 1, 0, 1]):
        doc = {"kind": "modmatrix", "modulus": 3, "generators": [gen]}
        with pytest.raises(GroupFileError, match="MAX_MATRIX_DIM=1"):
            parse_group(doc)
    monkeypatch.undo()
    doc = {"kind": "modmatrix", "modulus": 3, "generators": [[[1, 1], [0, 1]]]}
    assert parse_group(doc).order == 3


def test_huge_matrix_entries_are_reduced_before_the_determinant():
    # 3000-digit entries: Bareiss on the raw integers ran for over a minute
    big = 10**2999
    rows = [[7 * (big + 31 * i + j) + (i == j) for j in range(32)] for i in range(32)]
    start = time.perf_counter()
    assert parse_group({"kind": "modmatrix", "modulus": 7, "generators": [rows]}).order == 1
    rows[3] = [7 * big] * 32
    with pytest.raises(GroupFileError, match=r"not invertible mod 7 \(det = 0\)"):
        parse_group({"kind": "modmatrix", "modulus": 7, "generators": [rows]})
    assert time.perf_counter() - start < 1.0


def test_modulus_bound_precedes_the_generators(monkeypatch):
    # Bareiss slows with the entry size, so a modulus past the bound is
    # refused before any generator is read
    def no_rows(raw, modulus):
        raise AssertionError("generator read")

    monkeypatch.setattr(groupfiles, "_matrix_rows", no_rows)
    doc = {"kind": "modmatrix", "modulus": 2**64 + 1, "generators": [[[-1]]]}
    with pytest.raises(GroupFileError, match="MAX_MODULUS_BITS=64"):
        parse_group(doc)
    monkeypatch.undo()
    doc["modulus"] = 2**64 - 1
    assert parse_group(doc).order == 2


def test_non_invertible_error_prints_the_determinant_mod_n():
    doc = {"kind": "modmatrix", "modulus": 4, "generators": [[[6, 0], [0, 1]]]}
    with pytest.raises(GroupFileError, match=r"\(det = 2\)"):
        parse_group(doc)


# JSON-shaped group documents: the three kinds, small degrees and moduli, and
# generators shaped as cycle lists or matrices (nested or flat) of small ints;
# at every level one draw in five is junk (a string, bool, float, null or list;
# a null reads as a missing key)
_junk = (st.text(max_size=2) | st.booleans() | st.none() | st.floats(-2, 9, width=16)
         | st.lists(st.integers(0, 3), max_size=2))


def _or_junk(strategy):
    return st.integers(0, 4).flatmap(lambda k: _junk if k == 0 else strategy)


_entries = _or_junk(st.integers(min_value=-1, max_value=5))
_generator = _or_junk(st.lists(st.lists(_entries, max_size=4), max_size=3)
                      | st.lists(_entries, max_size=9))
_group_docs = _or_junk(st.fixed_dictionaries(
    {"kind": _or_junk(st.sampled_from(["perm", "modmatrix", "lemma52"])),
     "generators": _or_junk(st.lists(_generator, min_size=1, max_size=3)),
     "degree": _or_junk(st.integers(min_value=0, max_value=5)),
     "modulus": _or_junk(st.integers(min_value=1, max_value=7))}))


@given(_group_docs)
@settings(max_examples=300, deadline=None)
def test_parse_group_returns_a_group_or_a_named_error(doc):
    try:
        group = parse_group(doc, cap=64)
    except (GroupFileError, groups.GroupError):
        return
    assert isinstance(group, groups.FiniteGroup)
    assert group.order <= 64


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


def test_conjugation_closure_matches_oracle_orbits(s4, family5):
    # conjugating by generators alone (no inverses) reaches the whole orbit
    # under the subgroup they generate, for every proper generator subset too
    rng = random.Random(3)
    for group in (s4, family5):
        table = oracles.table_of(group)
        gens = list(group.generators)
        subsets = [None] + [[g] for g in gens] + [gens[:-1], gens[1:]]
        for by in subsets:
            for _ in range(12):
                seeds = rng.sample(range(group.order), rng.randint(1, 3))
                expected = oracles.conjugation_orbit(table, seeds, by=by)
                assert group.conjugation_closure(seeds, by=by) == tuple(sorted(expected))


def test_normal_closure_is_minimal_normal(s4):
    table = oracles.table_of(s4)
    transposition = s4.find(Permutation.from_cycles(4, [[1, 2]]))
    closure = set(s4.subgroup_closure(s4.conjugation_closure([transposition])))
    assert oracles.is_normal_subset(table, closure)
    # the only normal subgroup containing a transposition is the whole group
    assert len(closure) == 24
    three_cycle = s4.find(Permutation.from_cycles(4, [[1, 2, 3]]))
    closure = set(s4.subgroup_closure(s4.conjugation_closure([three_cycle])))
    assert oracles.is_normal_subset(table, closure)
    assert len(closure) == 12


def test_commutator_subgroup_s4_is_order_12(s4):
    derived = commutator_subgroup(whole(s4))
    assert derived.order == 12
    assert all(s4.elements[i].images != (1, 0, 2, 3) for i in derived.members)
    klein = small_group_corpus()["c4xc2"]
    assert commutator_subgroup(whole(klein)).order == 1


def test_sign_characters_multiplicative(corpus):
    for name, group in corpus.items():
        chars = sign_characters(whole(group))
        assert chars[0] == tuple([1] * group.order), name
        for chi in chars:
            assert set(chi) <= {1, -1}
            for a in range(group.order):
                for b in range(group.order):
                    assert chi[int(group.mul[a, b])] == chi[a] * chi[b], name
        assert len(set(chars)) == len(chars)


def test_sign_character_counts(s4, corpus):
    # index-2 kernels: S4 has one (A4), C4xC2 has three
    assert len(sign_characters(whole(s4))) == 2
    assert len(sign_characters(whole(corpus["c4xc2"]))) == 4
    assert len(sign_characters(whole(corpus["a4"]))) == 1


def assert_matches_reclosure(sub):
    """sign_characters and commutator_subgroup of ``sub`` against a re-closure of its payloads."""
    group = sub.parent
    closed = close_generators([group.elements[g] for g in sub.generating_set()])
    to_parent = [group.find(p) for p in closed.elements]
    assert sorted(to_parent) == list(sub.members)
    table = oracles.table_of(closed)
    inv = oracles.inverse_row(table)
    commutators = {table[table[a][b]][table[inv[a]][inv[b]]]
                   for a in range(closed.order) for b in range(closed.order)}
    derived = oracles.normal_closure_oracle(table, commutators)
    assert commutator_subgroup(sub).members == tuple(sorted(to_parent[m] for m in derived))
    # every sign character kills commutators and squares, and they are all of
    # the quotient by the subgroup those generate, an elementary abelian 2-group
    squares = {table[a][a] for a in range(closed.order)}
    kernel = oracles.close_under_product(table, derived | squares)
    chars = sign_characters(sub)
    assert len(chars) == closed.order // len(kernel)
    assert chars[0] == (1,) * sub.order
    assert len(set(chars)) == len(chars)
    position = {m: i for i, m in enumerate(sub.members)}
    for chi in chars:
        assert set(chi) <= {1, -1}
        for a in sub.members:
            for b in sub.members:
                assert chi[position[int(group.mul[a, b])]] == chi[position[a]] * chi[position[b]]


def test_s4_subgroups_match_reclosure(s4):
    members = oracles.all_subgroups(oracles.table_of(s4))
    assert len(members) == 30
    for m in members:
        assert_matches_reclosure(s4.subgroup(m))


def test_dp5_subgroups_match_reclosure():
    group = s5_representation().group
    for _, sub in standard_subgroups(group):
        assert_matches_reclosure(sub)


@pytest.mark.parametrize("build", [
    lambda: close_generators(S4_GENS), lambda: build_group(5), lambda: build_group(7),
    lambda: oracles.cyclic_product((2, 4, 4)),
], ids=["s4", "family_n5", "family_n7", "cyclic(2, 4, 4)"])
def test_class_closures_match_normal_closure_oracle(build):
    # the seeds the lattice closes first: one whole conjugacy class at a time
    group = build()
    table = oracles.table_of(group)
    for cls in conjugacy_classes(group):
        expected = oracles.normal_closure_oracle(table, cls)
        assert group.subgroup_closure(cls) == tuple(sorted(expected))


def test_minimal_generators_match_greedy_oracle(s4):
    dp5 = s5_representation().group
    cases = [(s4, sorted(map(sorted, oracles.all_subgroups(oracles.table_of(s4)))))]
    cases.append((dp5, [sub.members for _, sub in standard_subgroups(dp5)]))
    assert [len(subs) for _, subs in cases] == [30, 5]
    for group, subs in cases:
        table = oracles.table_of(group)
        for members in subs:
            expected = oracles.greedy_generators(table, members)
            assert minimal_generators(group, members) == expected


def test_minimal_generators_generate(s4):
    table = oracles.table_of(s4)
    for members in (tuple(range(24)), tuple(sorted(set(s4.subgroup_closure([5]))))):
        gens = minimal_generators(s4, members)
        assert oracles.close_under_product(table, gens) == frozenset(members)


def test_subgroup_view_consistency(s4):
    table = oracles.table_of(s4)
    derived = commutator_subgroup(whole(s4))
    assert derived.is_normal() == oracles.is_normal_subset(table, derived.members)
    assert derived.is_abelian() == oracles.is_abelian_subset(table, derived.members)
    assert derived.index == 2


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
    direct = oracles.cyclic_product(factors)
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
    assert len(sign_characters(whole(direct))) == len(sign_characters(whole(closed)))


def test_closure_keeps_no_key_per_product():
    # a degree-256 payload's key is about 1 kB; with 8 generators, one kept
    # key per element x generator product would be twice the finished group
    gens = [Permutation.from_cycles(256, [[2 * i + 1, 2 * i + 2]]) for i in range(8)]
    tracemalloc.start()
    try:
        group = close_generators(gens)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.order == 256
    assert peak < 2 * kept


def test_closed_table_is_filled_without_a_second_table():
    # a row fill needs no transposed or column-major copy of the table,
    # which alone would be another mul.nbytes
    tracemalloc.start()
    try:
        group = build_group(11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * group.mul.nbytes
