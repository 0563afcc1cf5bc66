"""Core group machinery against naive oracles."""

import itertools
import random
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import generator_lists
from cremonalab.conic_fibers import FAMILY_REPRESENTATIVES
from cremonalab import groups
from cremonalab.corpus import small_group_corpus
from cremonalab.dp5 import s5_representation, standard_subgroups
from cremonalab import groupfiles
from cremonalab import semidirect
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
)
from cremonalab.jordan import jordan_index, normal_subgroups, report_fragment
from cremonalab.semidirect import build_group

S4_GENS = [
    Permutation.from_cycles(4, [[1, 2]]),
    Permutation.from_cycles(4, [[1, 2, 3, 4]]),
]


@pytest.fixture(scope="module")
def s4():
    return close_generators(S4_GENS)


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


def test_generators_must_share_one_identity():
    # an identity generator is skipped by its key, and the first coset's
    # products g . 1 compose nothing, so without the shared-identity check
    # these closed into "groups" of order 4 and 5 that mixed two degrees
    with pytest.raises(IncompatiblePayloads, match="different identities"):
        close_generators([Permutation((0, 1)), Permutation((1, 2, 0))])
    identity2 = ModMatrix(5, ((1, 0), (0, 1)))
    order4 = ModMatrix(5, ((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(IncompatiblePayloads, match="different identities"):
        close_generators([identity2, order4])
    with pytest.raises(IncompatiblePayloads, match="different identities"):
        close_generators(oracles.family_generators(5)[:1] + oracles.family_generators(7)[1:])


def assert_table_matches_compose(group):
    # full table check against raw payload composition
    for i in range(group.order):
        for j in range(group.order):
            composed = group.elements[i].compose(group.elements[j])
            assert group.elements[int(group.mul[i, j])] == composed
    # every other product is read through products, broadcast as mul[x, y]
    everything = np.arange(group.order)
    assert np.array_equal(group.products(everything[:, None], everything), group.mul)
    # inverses from the table
    assert group.inverse.dtype == np.int32
    assert group.inverse.tolist() == oracles.inverse_row(oracles.table_of(group))


def test_close_generators_s4(s4):
    assert s4.order == 24
    assert s4.elements[0] == s4.elements[0].identity()
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
    # the table walk in oracles.element_order against payload composition
    for i in range(s4.order):
        assert oracles.element_order(s4, i) == oracles.perm_order(s4.elements[i].images)


def test_powers_walk_to_the_identity_on_the_corpus():
    for name, group in small_group_corpus().items():
        for g in range(group.order):
            powers = group.powers(g)
            assert len(powers) == oracles.element_order(group, g), (name, g)
            assert powers[0] == g and powers[-1] == 0 and len(set(powers)) == len(powers)


@pytest.mark.parametrize("build", [
    lambda: close_generators(S4_GENS),
    lambda: load_group(str(GROUPFILES / "special_linear_mod3.json")),
    lambda: build_group(5), lambda: s5_representation().group,
], ids=["s4", "special_linear_mod3", "family_n5", "s5"])
def test_close_generators_numbering_matches_breadth_first_oracle(build):
    # the element keys as a set against the oracle's, and the table rows
    # against payload composition on the generator columns and a random
    # sample of others
    group = build()
    gens = [group.elements[g] for g in group.generators]
    assert sorted(group.keys) == sorted(e.key() for e in oracles.breadth_first_elements(gens))
    assert_numbered_along_generators(group)
    columns = list(group.generators) + random.Random(5).sample(range(group.order), 6)
    for i, x in enumerate(group.elements):
        for j in columns:
            assert group.keys[group.mul[i, j]] == x.compose(group.elements[j]).key()


def assert_numbered_along_generators(group):
    """The identity is element 0, and every j > 0 is g . p for a generator g
    and a p numbered before j, which s5_representation builds its matrices
    along."""
    assert group.keys[0] == group.elements[0].identity().key()
    below = group.mul[group.inverse[list(group.generators)]]
    assert (below < np.arange(group.order)).any(axis=0)[1:].all()


def test_closure_is_generator_order_independent():
    # the numbering follows the generator list, but the element set, the
    # jordan fragment and the witness do not: ties go to the smallest sorted
    # member keys, and lemma52 at n = 3 has one
    quaternion = load_group(str(GROUPFILES / "quaternion.json"))
    cases = [S4_GENS, [quaternion.elements[g] for g in quaternion.generators],
             oracles.family_generators(3), oracles.family_generators(5)]
    for gens in cases:
        numberings, seen = set(), set()
        for shuffled in itertools.permutations(gens):
            group = close_generators(list(shuffled))
            witness = jordan_index(normal_subgroups(group)).witness
            numberings.add(group.keys)
            seen.add((frozenset(group.keys), tuple(sorted(report_fragment(group).items())),
                      frozenset(group.keys[m] for m in witness.members)))
        assert len(numberings) > 1 and len(seen) == 1


def test_redundant_generators_are_skipped():
    # a generator already in the closure so far adds no stage, so the closure
    # of [c, c^-1, c^2, e] is numbered and tabled as that of [c] alone
    c = Permutation.from_cycles(7, [[1, 2, 3, 4, 5], [6, 7]])
    inverse = Permutation(tuple(sorted(range(7), key=c.images.__getitem__)))
    gens = [c, inverse, c.compose(c), Permutation.identity_of_degree(7)]
    group, alone = close_generators(gens), close_generators([c])
    assert group.keys == alone.keys and group.order == 10
    assert np.array_equal(group.mul, alone.mul)
    assert [group.elements[g] for g in group.generators] == gens


def test_redundant_powers_of_a_long_cycle_cost_no_stage():
    # a stage for each of 32 inverse powers of an order-504 c would read each
    # power's row down its chain, hundreds of row gathers per stage: about 30
    # times the closure of c alone
    c = Permutation.from_cycles(24, [list(range(1, 9)), list(range(9, 18)), list(range(18, 25))])
    inverse = Permutation(tuple(sorted(range(24), key=c.images.__getitem__)))
    powers = list(itertools.accumulate([inverse] * 32, Permutation.compose))

    def best_time(gens):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert close_generators(gens).order == 504
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_time([c] + powers) < 5 * best_time([c])


@pytest.mark.parametrize("build", [
    lambda: close_generators(S4_GENS),
    lambda: load_group(str(GROUPFILES / "special_linear_mod3.json")),
], ids=["s4", "special_linear_mod3"])
def test_cap_admits_exactly_the_group_order(monkeypatch, build):
    # an order-24 table is 24^2 int32 entries: the bound admits it at exactly
    # that many bytes and refuses it, at the last coset, one byte below
    monkeypatch.setattr(groups, "MAX_TABLE_BYTES", 24 * 24 * 4)
    assert build().order == 24
    monkeypatch.setattr(groups, "MAX_TABLE_BYTES", 24 * 24 * 4 - 1)
    with pytest.raises(CapExceeded, match="order 24 needs 2304 bytes, over MAX_TABLE_BYTES=2303"):
        build()


def test_payload_entries_are_read_as_integers():
    # True is the integer 1, so (True, False) is the swap of two points
    swap = Permutation((True, False))
    assert swap.images == (1, 0) and all(type(p) is int for p in swap.images)
    assert close_generators([swap]).order == 2
    assert close_generators([ModMatrix(3, ((True, 0), (0, True)))]).order == 1
    for build in (lambda: Permutation((1.0, 0.0)), lambda: Permutation.from_cycles(3, [[1.0, 2.0]]),
                  lambda: ModMatrix(3, ((1.5, 0), (0, 1)))):
        with pytest.raises(ValueError, match="must be integers"):
            build()


def test_cap_is_checked_as_each_product_is_found(monkeypatch):
    # the 15 transpositions of S6 fit a table of order 20, their 225 products
    # do not: the bound must stop the closure within the first few of them
    gens = [Permutation.from_cycles(6, [[a, b]]) for a in range(1, 7) for b in range(a + 1, 7)]
    calls = []
    compose = Permutation.compose

    def counting_compose(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(Permutation, "compose", counting_compose)
    monkeypatch.setattr(groups, "MAX_TABLE_BYTES", 20 * 20 * 4)
    with pytest.raises(CapExceeded, match="MAX_TABLE_BYTES=1600"):
        close_generators(gens)
    assert len(calls) < 2 * len(gens)


def counted_composes(monkeypatch, cls):
    """A list that gains one entry per ``cls.compose`` call from here on."""
    calls = []
    compose = cls.compose

    def counting_compose(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(cls, "compose", counting_compose)
    return calls


@pytest.mark.parametrize("gens, payload, order, composes, last_coset", [
    (lambda: S4_GENS, Permutation, 24, 34, 2),
    (lambda: oracles.family_generators(5), oracles.SemidirectPair, 300, 316, 150),
], ids=["s4", "family_n5"])
def test_closure_composes_about_once_per_element(monkeypatch, gens, payload, order, composes,
                                                  last_coset):
    # Dimino's stages compose each new coset representative with the members
    # of the subgroup so far, and each generator with each representative:
    # about one compose per element, not one per element and generator.  S4
    # is the small case where the 24 representative products of its two
    # generators and 12 cosets show.
    gens = gens()
    calls = counted_composes(monkeypatch, payload)
    assert close_generators(gens).order == order
    assert len(calls) == composes
    assert composes < (1.1 if order >= 300 else 1.5) * order
    # one row short of the order, the table bound refuses the last coset
    # before any of its other members is composed
    calls.clear()
    monkeypatch.setattr(groups, "MAX_TABLE_BYTES", (order - 1) ** 2 * 4)
    with pytest.raises(CapExceeded, match="MAX_TABLE_BYTES=%d" % ((order - 1) ** 2 * 4)):
        close_generators(gens)
    assert len(calls) <= composes - (last_coset - 1)


def assert_closure_matches_breadth_first_oracle(gens):
    group = close_generators(gens)
    assert sorted(group.keys) == sorted(e.key() for e in oracles.breadth_first_elements(gens))
    assert [group.elements[g] for g in group.generators] == list(gens)
    assert (group.mul[np.arange(group.order), group.inverse] == 0).all()
    assert_numbered_along_generators(group)
    if group.order <= 300:
        for i, x in enumerate(group.elements):
            assert [group.keys[k] for k in group.mul[i]] == [x.compose(y).key() for y in group.elements]


@given(generator_lists())
@settings(max_examples=60, deadline=None)
def test_closure_matches_breadth_first_oracle_at_every_product(gens):
    assert_closure_matches_breadth_first_oracle(gens)


@pytest.mark.parametrize("gens", [
    lambda: [ModMatrix(3, ((1, 1), (0, 1))), ModMatrix(3, ((0, 1), (2, 0)))],
    *(lambda n=n: oracles.family_generators(n) for n in (2, 3, 5)),
], ids=["sl2_mod3", "family_n2", "family_n3", "family_n5"])
def test_named_closures_match_breadth_first_oracle_at_every_product(gens):
    assert_closure_matches_breadth_first_oracle(gens())


def assert_inverse_folded(group):
    # the inverse folded along the cosets is a two-sided inverse, and it is
    # the row argmin of a writable copy of the table
    i = np.arange(group.order)
    assert group.inverse.dtype == np.int32
    assert (group.mul[i, group.inverse] == 0).all()
    assert (group.mul[group.inverse, i] == 0).all()
    assert np.array_equal(group.inverse, np.array(group.mul).argmin(axis=1))


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda name=name: small_group_corpus()[name], id=name)
      for name in sorted(small_group_corpus())),
    pytest.param(lambda: s5_representation().group, id="s5"),
    *(pytest.param(lambda n=n: close_generators(oracles.family_generators(n)), id="family_n%d" % n)
      for n in range(2, 14)),
    # family_n13.json loads as a FamilyGroup, which folds no inverse and has
    # no table; test_semidirect checks its inverse against the closed table
    *(pytest.param(lambda path=path: load_group(str(path)), id=path.name)
      for path in sorted(GROUPFILES.glob("*.json")) if path.name != "family_n13.json"),
])
def test_folded_inverse_matches_table(build):
    assert_inverse_folded(build())


@given(generator_lists())
@settings(max_examples=60, deadline=None)
def test_folded_inverse_matches_table_on_random_generators(gens):
    assert_inverse_folded(close_generators(gens))


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


def test_generator_count_bound_precedes_the_generators(monkeypatch):
    # each generator costs time and memory to parse, so a list past the
    # bound is refused before any of them is read
    def no_cycles(degree, cycles):
        raise AssertionError("generator read")

    def no_rows(raw, modulus):
        raise AssertionError("generator read")

    monkeypatch.setattr(groupfiles, "MAX_GENERATORS", 2)
    monkeypatch.setattr(Permutation, "from_cycles", staticmethod(no_cycles))
    monkeypatch.setattr(groupfiles, "_matrix_rows", no_rows)
    docs = [{"kind": "perm", "degree": 4, "generators": [[[1, 2]]] * 3},
            {"kind": "modmatrix", "modulus": 3, "generators": [[[2]]] * 3}]
    for doc in docs:
        with pytest.raises(GroupFileError, match="3 generators, more than MAX_GENERATORS=2"):
            parse_group(doc)
    monkeypatch.undo()
    assert [parse_group(doc).order for doc in docs] == [2, 2]


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
    # the health check refuses function-scoped fixtures under @given; a lemma52
    # group past MAX_TABLE_ORDER computes its products and holds no table, so
    # its order is bounded by MAX_FAMILY_ORDER instead
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "MAX_TABLE_BYTES", 64 * 64 * 4)
        mp.setattr(semidirect, "MAX_FAMILY_ORDER", 64)
        try:
            group = parse_group(doc)
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
    table = oracles.table_of(s4)
    inv = oracles.inverse_row(table)
    for cls in classes:
        members = set(cls)
        for g in range(s4.order):
            assert {table[table[g][x]][inv[g]] for x in cls} == members


@pytest.mark.parametrize("build", [
    lambda: small_group_corpus().values(), lambda: [build_group(5)], lambda: [build_group(7)],
    lambda: [load_group(str(GROUPFILES / "special_linear_mod3.json"))],
    lambda: [oracles.cyclic_product((2, 4, 4))],
    lambda: [close_generators([Permutation(tuple((i + 1) % 101 for i in range(101))),
                               Permutation(tuple(-i % 101 for i in range(101)))])],
], ids=["corpus", "family_n5", "family_n7", "special_linear_mod3", "cyclic(2, 4, 4)", "dihedral(101)"])
def test_conjugacy_classes_match_oracle_orbits(build):
    # the orbits of every element under conjugation by the whole group,
    # each listed once, in order of its smallest member; in the dihedral
    # group the 101 reflections form one class that takes many label rounds
    for group in build():
        table = oracles.table_of(group)
        expected, covered = [], set()
        for x in range(group.order):
            if x not in covered:
                orbit = oracles.conjugation_orbit(table, [x])
                covered |= orbit
                expected.append(tuple(sorted(orbit)))
        assert conjugacy_classes(group) == tuple(expected)


def test_normal_closure_is_minimal_normal(s4):
    table = oracles.table_of(s4)
    class_of = {x: cls for cls in conjugacy_classes(s4) for x in cls}
    transposition = s4.find(Permutation.from_cycles(4, [[1, 2]]))
    closure = set(s4.subgroup_closure(class_of[transposition]))
    assert oracles.is_normal_subset(table, closure)
    # the only normal subgroup containing a transposition is the whole group
    assert len(closure) == 24
    three_cycle = s4.find(Permutation.from_cycles(4, [[1, 2, 3]]))
    closure = set(s4.subgroup_closure(class_of[three_cycle]))
    assert oracles.is_normal_subset(table, closure)
    assert len(closure) == 12


def test_is_normal_and_commutator_subgroup_match_oracles(s4):
    # the derived subgroup is the product closure of every member-pair
    # commutator: that set is closed under conjugation by the members
    dp5 = s5_representation().group
    cases = [(s4, oracles.all_subgroups(oracles.table_of(s4)))]
    cases.append((dp5, [sub.members for _, sub in standard_subgroups(dp5)]))
    assert [len(subs) for _, subs in cases] == [30, 5]
    for group, subs in cases:
        table = oracles.table_of(group)
        inv = oracles.inverse_row(table)
        for members in subs:
            sub = group.subgroup(members)
            assert sub.is_normal() == oracles.is_normal_subset(table, members)
            assert sub.is_abelian() == oracles.is_abelian_subset(table, members)
            commutators = {table[table[a][b]][table[inv[a]][inv[b]]] for a in members for b in members}
            derived = oracles.close_under_product(table, commutators)
            assert commutator_subgroup(sub).members == tuple(sorted(derived))


def test_commutator_subgroup_s4_is_order_12(s4):
    derived = commutator_subgroup(whole(s4))
    assert derived.order == 12
    assert all(s4.elements[i].images != (1, 0, 2, 3) for i in derived.members)
    klein = small_group_corpus()["c4xc2"]
    assert commutator_subgroup(whole(klein)).order == 1


def assert_matches_reclosure(sub):
    """commutator_subgroup of ``sub`` against a re-closure of its payloads."""
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
    assert s4.order // derived.order == 2


def test_reprs_name_the_group_without_its_table():
    # a Subgroup's repr embeds its parent's: payloads and table would make an
    # S5 member's repr over 5 KB, and a failing assert unreadable
    group = s5_representation().group
    assert repr(group) == "FiniteGroup(order=120)"
    assert repr(build_group(13)) == "FamilyGroup(order=2028)"
    for sub in normal_subgroups(group):
        assert len(repr(sub)) < 1000, sub.order


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
        group = close_generators(oracles.family_generators(11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * group.mul.nbytes


def test_abelian_check_reads_every_generator(s4):
    # the dihedral subgroup <(13), (1234)> with its central (13)(24) also
    # listed: that generator alone commutes with every member
    z, r, s = (s4.find(Permutation.from_cycles(4, c)) for c in ([[1, 3], [2, 4]], [[1, 2, 3, 4]], [[1, 3]]))
    members = s4.subgroup_closure((r, s))
    assert len(members) == 8 and s4.centralizes([z], members)
    for gens in itertools.permutations((z, r, s)):
        assert not s4.subgroup(members, gens=gens).is_abelian()


def test_abelian_check_reads_no_member_block():
    # each generator against every member: an |N| x |N| block of the
    # order-4096 cyclic group alone would take 64 MB
    group = oracles.cyclic_product((4096,))
    whole = group.subgroup(range(group.order))
    tracemalloc.start()
    try:
        abelian = whole.is_abelian()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abelian
    assert peak < 4 << 20
