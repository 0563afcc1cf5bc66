"""Normal-subgroup lattice and minimal abelian-normal index vs brute force."""

import random
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from cremonalab.conic_fibers import FAMILY_REPRESENTATIVES
from cremonalab.corpus import small_group_corpus
from cremonalab.dp5 import s5_representation
from cremonalab.groupfiles import load_group
from cremonalab import jordan
from cremonalab.groups import (
    CapExceeded,
    FiniteGroup,
    Subgroup,
    close_generators,
    conjugacy_classes,
)
from cremonalab.jordan import jordan_index, normal_subgroups, report_fragment
from cremonalab.semidirect import FamilyGroup, build_group, translation_subgroup
from strategies import generator_lists

GROUPFILES = Path(__file__).resolve().parent.parent / "demos" / "groupfiles"

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
    cert = jordan_index(normal_subgroups(group))
    assert cert.index == oracles.jordan_index_oracle(table)


def test_certificate_is_self_consistent(corpus):
    for name, group in corpus.items():
        cert = jordan_index(normal_subgroups(group))
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
        base = jordan_index(normal_subgroups(group)).index
        payloads = [group.elements[i] for i in group.generators]
        for _ in range(3):
            rng.shuffle(payloads)
            rebuilt = close_generators(payloads)
            assert rebuilt.order == group.order, name
            assert jordan_index(normal_subgroups(rebuilt)).index == base, name


def test_lattice_is_deterministic(corpus):
    group = corpus["s4"]
    first = [sub.members for sub in normal_subgroups(group)]
    second = [sub.members for sub in normal_subgroups(group)]
    assert first == second


def test_known_indices(corpus):
    # abelian groups have index 1; the rest were cross-checked by brute force
    expected = {"s3": 2, "d6": 2, "c6": 1, "q8": 2, "c4xc2": 1, "a4": 3, "s4": 6, "h2": 6}
    for name, group in corpus.items():
        assert jordan_index(normal_subgroups(group)).index == expected[name], name


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
    assert jordan_index(normal_subgroups(group)).index == oracles.jordan_index_oracle(table)
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
    # the eight members meet the six distinct seeds in 48 pairs, of which 38
    # are containments; none needs a join and no flag needs an |N| x |N| block
    group = build_group(5)
    classes = set(conjugacy_classes(group))
    closure, extend = FiniteGroup.subgroup_closure, FiniteGroup._extend
    closed, joins, closing = [], [], []

    def recording_closure(self, seeds, start=None):
        seeds = tuple(seeds)
        closed.append(seeds)
        closing.append(seeds)
        try:
            return closure(self, seeds, start)
        finally:
            closing.pop()

    def recording_extend(self, seeds, start):
        # a join extends a member A by the class of a seed, whose normal
        # closure is B; a class closure, even one started from a normal
        # subgroup inside it, is not a join
        seeds = tuple(seeds)
        result = extend(self, seeds, start)
        if not closing:
            a = frozenset(np.flatnonzero(start).tolist())
            ncl = extend(self, seeds, np.arange(self.order) == 0)[0]
            b = frozenset(np.flatnonzero(ncl).tolist())
            joins.append((a, b, tuple(np.flatnonzero(result[0]).tolist())))
        return result

    def no_block(self):
        raise AssertionError("Subgroup.is_abelian reached")

    monkeypatch.setattr(FiniteGroup, "subgroup_closure", recording_closure)
    monkeypatch.setattr(FiniteGroup, "_extend", recording_extend)
    monkeypatch.setattr(Subgroup, "is_abelian", no_block)
    lattice = normal_subgroups(group)
    assert len(lattice) == 8
    assert len(joins) == 10
    assert not any(a <= b or b <= a for a, b, _ in joins)
    # every closure is a class closure, and every join is the product set
    assert set(closed) <= classes
    table = oracles.table_of(group)
    assert all(joined == oracles.product_set(table, a, b) for a, b, joined in joins)


def conjugacy_classes_of_prime_power_cyclic_subgroups(table):
    """How many conjugacy classes of cyclic subgroups of order 1 or a prime
    power, by brute force."""
    inv = oracles.inverse_row(table)
    return len({frozenset(frozenset(table[table[g][x]][inv[g]] for x in sub)
                          for g in range(len(table)))
                for sub in oracles.cyclic_subgroups(table)
                if len({p for p in range(2, len(sub) + 1)
                        if len(sub) % p == 0 and all(p % q for q in range(2, p))}) <= 1})


@pytest.mark.parametrize("build, closures", [
    *(pytest.param(lambda n=n: build_group(n), closures, id="family_n%d" % n)
      for n, closures in ((5, 7), (7, 8), (11, 8), (13, 9))),
    *(pytest.param(lambda name=name: small_group_corpus()[name], closures, id=name)
      for name, closures in (("s4", 5), ("q8", 5), ("a4", 3))),
    pytest.param(lambda: s5_representation().group, 6, id="s5"),
])
def test_one_class_closure_per_cyclic_subgroup(monkeypatch, build, closures):
    # g^k with gcd(k, ord g) = 1 has the normal closure of g, and a normal
    # subgroup is generated by its elements of prime-power order, so only one
    # class per conjugacy class of cyclic subgroups of order 1 or a prime
    # power is closed
    group = build()
    classes = set(conjugacy_classes(group))
    closure, closed, starts = FiniteGroup.subgroup_closure, [], []

    def recording_closure(self, seeds, start=None):
        seeds = tuple(seeds)
        closed.append(seeds)
        result = closure(self, seeds, start)
        if start is not None:
            starts.append((tuple(np.flatnonzero(start).tolist()), result))
        return result

    monkeypatch.setattr(FiniteGroup, "subgroup_closure", recording_closure)
    lattice = normal_subgroups(group)
    assert len(closed) == len(set(closed)) == closures
    assert set(closed) <= classes
    # a closure that does not start from the identity starts from a normal
    # subgroup that it contains
    members = {sub.members for sub in lattice}
    assert all(start in members and set(start) <= set(result) for start, result in starts)
    if group.order <= 120:
        assert closures == conjugacy_classes_of_prime_power_cyclic_subgroups(
            oracles.table_of(group))


@pytest.mark.parametrize("n", (5, 7, 11, 13))
def test_translations_close_from_the_identity_once(monkeypatch, n):
    # the second translation class names T only by its commutators with the
    # class representatives, so it starts from T instead of rebuilding it
    group = build_group(n)
    closure, from_identity = FiniteGroup.subgroup_closure, []

    def recording_closure(self, seeds, start=None):
        result = closure(self, seeds, start)
        if (start is None or np.count_nonzero(start) == 1) and len(result) > 1:
            from_identity.append(len(result))
        return result

    monkeypatch.setattr(FiniteGroup, "subgroup_closure", recording_closure)
    assert len(normal_subgroups(group)) == 8
    assert from_identity == [n * n]


def test_class_closures_start_inside_their_closure(monkeypatch):
    # three of the four closures of T and every larger class closure start
    # from a recorded normal subgroup inside them instead of the identity:
    # 280 products, where closing every class from the identity takes 1417
    group = build_group(13)
    assert isinstance(group, FamilyGroup)
    products, calls = FamilyGroup.products, []

    def counting_products(self, x, y):
        calls.append(1)
        return products(self, x, y)

    monkeypatch.setattr(FamilyGroup, "products", counting_products)
    assert len(normal_subgroups(group)) == 8
    assert len(calls) <= 400


REFERENCE_LATTICE_GROUPS = (
    [pytest.param(lambda name=name: small_group_corpus()[name], id=name)
     for name in sorted(small_group_corpus())]
    + [pytest.param(lambda path=path: load_group(str(path)), id=path.name)
       for path in sorted(GROUPFILES.glob("*.json"))]
    + [pytest.param(lambda n=n: build_group(n), id="family_n%d" % n)
       for n in (2, 3, 4, 5, 7, 11, 13)]
    + [pytest.param(lambda: s5_representation().group, id="s5")]
    + [pytest.param(lambda f=f: oracles.cyclic_product(f), id="cyclic%s" % (f,))
       for f in ((6, 36), (4, 4, 8))]
)


def assert_lattice_matches_closure_reference(group):
    lattice = normal_subgroups(group)
    members, flags = oracles.normal_subgroups_by_closure(group)
    assert [sub.members for sub in lattice] == members
    assert list(lattice.abelian) == flags


@pytest.mark.parametrize("build", REFERENCE_LATTICE_GROUPS)
def test_lattice_matches_closure_reference(build):
    # prime-power seeds, skipped classes and joins of each member with the
    # seeds give the members and flags of a Dimino closure per class and per
    # pairwise join (n = 3 has the tie; the cyclic products have long joins)
    assert_lattice_matches_closure_reference(build())


@given(generator_lists())
@settings(max_examples=60, deadline=None)
def test_lattice_matches_closure_reference_on_random_groups(gens):
    assert_lattice_matches_closure_reference(close_generators(gens))


@pytest.mark.slow
def test_large_abelian_lattice_is_built_quickly():
    # 1350 normal subgroups: one join per member and seed, not per pair of members
    group = oracles.cyclic_product((6, 6, 36))
    start = time.perf_counter()
    lattice = normal_subgroups(group)
    assert time.perf_counter() - start < 30
    assert len(lattice) == 1350
    assert all(lattice.abelian)


def elementary_abelian_subgroup_count(p, k):
    """Subgroups of (Z/p)^k: the sum over j of the Gaussian binomials [k choose j]_p."""
    total = 0
    for j in range(k + 1):
        top = bottom = 1
        for i in range(j):
            top *= p ** (k - i) - 1
            bottom *= p ** (i + 1) - 1
        total += top // bottom
    return total


def test_elementary_abelian_lattice_has_every_subgroup():
    # every subgroup of an abelian group is normal; 9518 class closures and joins
    lattice = normal_subgroups(oracles.cyclic_product((2,) * 5))
    assert len(lattice) == elementary_abelian_subgroup_count(2, 5) == 374


@pytest.mark.parametrize("bound, refused", [(9518, False), (9517, True)])
def test_lattice_bound_counts_every_closure_and_join(monkeypatch, bound, refused):
    monkeypatch.setattr(jordan, "MAX_LATTICE_EXTENSIONS", bound)
    group = oracles.cyclic_product((2,) * 5)
    if refused:
        with pytest.raises(CapExceeded, match="MAX_LATTICE_EXTENSIONS=9517"):
            normal_subgroups(group)
    else:
        assert len(normal_subgroups(group)) == 374


@pytest.mark.parametrize("k", (6, 7))
def test_lattice_past_the_bound_is_refused_quickly(k):
    # 2825 and 29 212 subgroups; (Z/2)^6 alone would take 154 414 extensions
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="MAX_LATTICE_EXTENSIONS=50000"):
        normal_subgroups(oracles.cyclic_product((2,) * k))
    assert time.perf_counter() - start < 20


def test_lattice_repr_names_its_size_without_its_members():
    lattice = normal_subgroups(build_group(13))
    assert len(repr(lattice)) < 200
    assert repr(lattice) == "NormalSubgroupLattice(members=%d, group_order=2028)" % len(lattice)
