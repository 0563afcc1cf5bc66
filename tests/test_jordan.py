"""Normal-subgroup lattice and minimal abelian-normal index vs brute force."""

import random

import pytest

import oracles
from cremonalab.conic_fibers import FAMILY_REPRESENTATIVES
from cremonalab.corpus import small_group_corpus
from cremonalab.groups import FiniteGroup, Subgroup, close_generators, conjugacy_classes
from cremonalab.jordan import jordan_index, normal_subgroups, report_fragment
from cremonalab.semidirect import build_group, translation_subgroup

SMALL = ("s3", "c6", "q8", "c4xc2", "a4", "s4")


@pytest.fixture(scope="module")
def corpus():
    return small_group_corpus()


@pytest.mark.parametrize("name", SMALL)
def test_normal_subgroups_match_oracle(corpus, name):
    group = corpus[name]
    table = oracles.table_of(group)
    computed = {frozenset(sub.members) for sub in normal_subgroups(group)}
    assert computed == oracles.normal_subgroups_oracle(table)


@pytest.mark.parametrize("name", SMALL)
def test_jordan_index_matches_oracle(corpus, name):
    group = corpus[name]
    table = oracles.table_of(group)
    cert = jordan_index(group)
    assert cert.index == oracles.jordan_index_oracle(table)


def test_certificate_is_self_consistent(corpus):
    for name, group in corpus.items():
        cert = jordan_index(group)
        witness = cert.witness
        assert witness.is_abelian(), name
        assert witness.is_normal(), name
        assert group.order == cert.index * witness.order, name


def test_normal_subgroups_match_small_closure_oracle(corpus):
    # independently: every normal subgroup is the closure of <= 3 elements
    for name, group in corpus.items():
        table = oracles.table_of(group)
        computed = {frozenset(sub.members) for sub in normal_subgroups(group)}
        assert computed == oracles.normal_subgroups_small_closure_oracle(table), name


def test_jordan_index_invariant_under_generator_reordering(corpus):
    rng = random.Random(7)
    for name, group in corpus.items():
        base = jordan_index(group).index
        payloads = [group.elements[i] for i in group.generators]
        for _ in range(3):
            rng.shuffle(payloads)
            rebuilt = close_generators(payloads)
            assert rebuilt.order == group.order, name
            assert jordan_index(rebuilt).index == base, name


def test_lattice_is_deterministic(corpus):
    group = corpus["s4"]
    first = [sub.members for sub in normal_subgroups(group)]
    second = [sub.members for sub in normal_subgroups(group)]
    assert first == second


def test_known_indices(corpus):
    # abelian groups have index 1; the rest were cross-checked by brute force
    expected = {"s3": 2, "d6": 2, "c6": 1, "q8": 2, "c4xc2": 1, "a4": 3, "s4": 6, "h2": 6}
    for name, group in corpus.items():
        assert jordan_index(group).index == expected[name], name


@pytest.mark.parametrize(
    "build",
    [pytest.param(lambda name=name: small_group_corpus()[name], id=name)
     for name in sorted(small_group_corpus())]
    + [pytest.param(lambda n=n: build_group(n), id="family_n%d" % n) for n in (5, 7)])
def test_normal_joins_are_product_sets(build):
    # the closure of the union of two normal members is their product set, on
    # every pair of lattice members
    group = build()
    table = oracles.table_of(group)
    lattice = [sub.members for sub in normal_subgroups(group)]
    for i, a in enumerate(lattice):
        for b in lattice[:i + 1]:
            assert group.subgroup_closure(set(a) | set(b)) == oracles.product_set(table, a, b)


def test_report_fragment_shape(corpus):
    fragment = report_fragment(corpus["s3"])
    assert fragment == {
        "order": 6,
        "jordan_index": 2,
        "witness_order": 3,
        "normal_subgroup_count": 3,
    }


def test_trivial_and_full_subgroups_always_present(corpus):
    for name, group in corpus.items():
        lattice = normal_subgroups(group)
        sizes = {sub.order for sub in lattice}
        assert 1 in sizes and group.order in sizes, name


@pytest.mark.parametrize("n, orders", [
    (5, [1, 25, 50, 75, 150, 150, 150, 300]),
    (7, [1, 49, 98, 147, 294, 294, 294, 588]),
    (11, [1, 121, 242, 363, 726, 726, 726, 1452]),
    (13, [1, 169, 338, 507, 1014, 1014, 1014, 2028]),
    (17, [1, 289, 578, 867, 1734, 1734, 1734, 3468]),
])
def test_family_lattice_orders_and_translations(n, orders):
    # eight normal subgroups, the translations of order n^2 among them
    group = build_group(n)
    lattice = normal_subgroups(group)
    assert [sub.order for sub in lattice] == orders
    assert translation_subgroup(group).members in {sub.members for sub in lattice}


@pytest.mark.parametrize("factors", list(FAMILY_REPRESENTATIVES) + [(6, 4)], ids=str)
def test_cyclic_product_lattice_needs_no_payloads(factors):
    # elements of a cyclic_product are exponent tuples, which have no key
    group = oracles.cyclic_product(factors)
    table = oracles.table_of(group)
    classes = conjugacy_classes(group)
    assert {frozenset(c) for c in classes} == {
        oracles.conjugation_orbit(table, [g]) for g in range(group.order)}
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)
    computed = {frozenset(sub.members) for sub in normal_subgroups(group)}
    assert computed == oracles.normal_subgroups_oracle(table)
    assert jordan_index(group).index == oracles.jordan_index_oracle(table)
    assert "keys" not in vars(group)


LATTICE_GROUPS = (
    [pytest.param(lambda name=name: small_group_corpus()[name], id=name)
     for name in sorted(small_group_corpus())]
    + [pytest.param(lambda f=f: oracles.cyclic_product(f), id="cyclic%s" % (f,))
       for f in FAMILY_REPRESENTATIVES]
    + [pytest.param(lambda n=n: build_group(n), id="family_n%d" % n) for n in (5, 7)]
)


@pytest.mark.parametrize("build", LATTICE_GROUPS)
def test_lattice_matches_all_pairs_oracle_and_block_flags(build):
    # the containment skip and the seed-based flags change nothing
    group = build()
    lattice = normal_subgroups(group)
    members, flags = oracles.normal_subgroup_lattice_oracle(group)
    assert [sub.members for sub in lattice] == members
    assert list(lattice.abelian) == flags
    assert list(lattice.abelian) == [sub.is_abelian() for sub in lattice]


def test_lattice_joins_only_incomparable_pairs(monkeypatch):
    # 22 of the 28 pairs of the eight members are containments; none needs a
    # join and no flag needs an |N| x |N| block
    group = build_group(5)
    classes = {frozenset(cls) for cls in conjugacy_classes(group)}
    calls = []
    closure = FiniteGroup.subgroup_closure

    def recording_closure(self, seeds):
        seeds = tuple(seeds)
        members = closure(self, seeds)
        calls.append((frozenset(seeds), frozenset(members)))
        return members

    def no_block(self):
        raise AssertionError("Subgroup.is_abelian reached")

    monkeypatch.setattr(FiniteGroup, "subgroup_closure", recording_closure)
    monkeypatch.setattr(Subgroup, "is_abelian", no_block)
    lattice = normal_subgroups(group)
    # A member's seeds are its class, or the union of the seeds of the two
    # members it joins; any closure beyond the class closures is a join.
    seeded: dict[frozenset, frozenset] = {}
    joins = []
    for seeds, members in calls:
        if seeds not in classes:
            pairs = [(a, b) for x, a in seeded.items() for y, b in seeded.items() if x | y == seeds]
            assert pairs
            joins.append(pairs)
        if members not in seeded.values():
            seeded[seeds] = members
    assert len(lattice) == 8
    assert len(joins) == 6
    assert not any(a <= b or b <= a for pairs in joins for a, b in pairs)
