"""The order-12n^2 family: determinant criteria, translations, commutators."""

import random
import tracemalloc
from math import gcd

import numpy as np
import pytest

import oracles
from cremonalab import semidirect
from cremonalab.groups import CapExceeded, IncompatiblePayloads, close_generators
from cremonalab.jordan import jordan_index, normal_subgroups
from cremonalab.semidirect import (
    FamilyGroup,
    HypothesisViolated,
    build_action_data,
    build_group,
    translation_subgroup,
    verify_lemma52,
)

UNIT_NS = (5, 7, 11, 13)
NON_UNIT_NS = (2, 3, 4, 6, 9)
# every n of Lemma 5.2's hypothesis that build_group admits: 5, 7, ..., 91
ADMISSIBLE_NS = tuple(n for n in range(2, 100)
                      if gcd(n, 6) == 1 and 12 * n * n <= semidirect.MAX_FAMILY_ORDER)


def pair_of(group, i):
    """(v, d) of element i, read off its key ``S|n|v0,v1|d``."""
    _, _, vector, twist = group.keys[i].decode().split("|")
    return tuple(map(int, vector.split(","))), int(twist)


def test_dihedral_product_relations():
    # the D6 table derived from the generator matrices is the oracle's product
    # of indices rotation + 6 * reflection bit, and the relations hold in both
    table, rho = semidirect._D6, np.array(semidirect._RHO)
    assert table.tolist() == [[oracles.dihedral_index_product(a, b) for b in range(12)]
                              for a in range(12)]
    # r has index 1, s has index 6
    r, s = 1, 6
    x = 0
    for _ in range(6):
        x = table[x, r]
    assert x == 0
    assert table[s, s] == 0
    assert table[table[s, r], s] == 5 == semidirect._D6_INVERSE[r]  # r^-1
    assert [table[a, semidirect._D6_INVERSE[a]] for a in range(12)] == [0] * 12
    identity = np.eye(2, dtype=int)
    assert np.array_equal(np.linalg.matrix_power(rho[r], 6), identity)
    assert np.array_equal(rho[s] @ rho[s], identity)
    assert np.array_equal(rho[s] @ rho[r] @ rho[s], rho[5])
    for a in range(12):
        for b in range(12):
            assert np.array_equal(rho[a] @ rho[b], rho[table[a, b]])


@pytest.mark.parametrize("n", range(2, 14))
def test_action_is_the_integer_matrices_reduced_mod_n(n):
    # rho(r^(d % 6) s^(d // 6)) over Z, by numpy from the generator matrices
    r, s = np.array(((0, 1), (-1, 1))), np.array(((0, 1), (1, 0)))
    over_z = np.array([np.linalg.matrix_power(r, d % 6) @ np.linalg.matrix_power(s, d // 6)
                       for d in range(12)])
    data = build_action_data(n)
    assert data.modulus == n
    assert data.rho == tuple(tuple(map(tuple, m)) for m in (over_z % n).tolist())
    assert data.u == data.rho[2] == ((n - 1, 1), (n - 1, 0))
    assert data.z == data.rho[3] == ((n - 1, 0), (0, n - 1))


@pytest.mark.parametrize("n", UNIT_NS)
def test_determinants_are_units_when_gcd_is_one(n):
    data = build_action_data(n)
    assert data.det_u_minus_identity == 3 % n
    assert data.det_z_minus_identity == 4 % n
    assert data.determinants_are_units()


@pytest.mark.parametrize("n", NON_UNIT_NS)
def test_determinants_fail_when_gcd_exceeds_one(n):
    data = build_action_data(n)
    assert data.det_u_minus_identity == 3 % n
    assert data.det_z_minus_identity == 4 % n
    assert not data.determinants_are_units()


@pytest.mark.parametrize("n", (2, 3, 5, 7))
def test_group_order_and_translations(n):
    group = build_group(n)
    assert group.order == 12 * n * n
    trans = translation_subgroup(group)
    assert trans.order == n * n
    assert group.order // trans.order == 12
    assert trans.is_abelian()
    assert trans.is_normal()
    assert all(pair_of(group, i)[1] == 0 for i in trans.members)
    assert [pair_of(group, g) for g in trans.gens] == [((1, 0), 0), ((0, 1), 0)]


def test_lemma52_path_builds_no_element_keys():
    group = build_group(5)
    lattice = normal_subgroups(group)
    jordan_index(lattice)
    translation_subgroup(group)
    assert "keys" not in vars(group)


def test_commutator_with_translation_is_twisted_difference():
    """[x, a] for a translation a is the translation by (rho(d) - I) w."""
    n = 7
    group = build_group(n)
    data = build_action_data(n)
    mul, inv = group.mul, group.inverse
    rng = random.Random(20240811)
    for _ in range(1000):
        d = rng.randrange(12)
        v = (rng.randrange(n), rng.randrange(n))
        w = (rng.randrange(n), rng.randrange(n))
        x = group.find(oracles.SemidirectPair(n, v, d, data.rho))
        a = group.find(oracles.SemidirectPair(n, w, 0, data.rho))
        commutator = pair_of(group, mul[mul[x, a], mul[inv[x], inv[a]]])
        m = data.rho[d]
        expected = (
            (m[0][0] * w[0] + m[0][1] * w[1] - w[0]) % n,
            (m[1][0] * w[0] + m[1][1] * w[1] - w[1]) % n,
        )
        assert commutator == (expected, 0)


def test_verify_lemma52_passes_for_n5():
    row = verify_lemma52(5)
    assert row.status == "pass"
    assert row.claim_id == "lemma52.n5"
    assert row.anchor == "Lemma 5.2 (n = 5)"
    assert row.computed["jordan_index"] == 12
    assert row.computed["witness_order"] == 25
    assert row.computed["witness_is_translation_subgroup"] is True


@pytest.mark.slow
@pytest.mark.parametrize("n", ADMISSIBLE_NS)
def test_lemma52_holds_at_every_admissible_n(n):
    assert len(ADMISSIBLE_NS) == 30 and ADMISSIBLE_NS[-1] == 91
    row = verify_lemma52(n)
    assert row.status == "pass"
    assert row.computed == {
        "order": 12 * n * n,
        "jordan_index": 12,
        "witness_order": n * n,
        "witness_is_translation_subgroup": True,
        "det_u_minus_identity": 3 % n,
        "det_z_minus_identity": 4 % n,
        "determinants_are_units": True,
    }


def test_bad_n_raises_unless_allowed():
    with pytest.raises(HypothesisViolated):
        verify_lemma52(4)
    with pytest.raises(HypothesisViolated):
        verify_lemma52(1, allow_bad_n=False)
    row = verify_lemma52(4, allow_bad_n=True)
    assert row.status == "informational"
    assert row.expected is None
    assert row.computed["determinants_are_units"] is False


def test_bad_n_three_tie_is_broken_by_key():
    # two abelian normal subgroups of order 9 tie; the smaller member key wins,
    # and that one is not the translation subgroup
    row = verify_lemma52(3, allow_bad_n=True)
    assert row.status == "informational"
    assert row.computed["jordan_index"] == 12
    assert row.computed["witness_order"] == 9
    assert row.computed["witness_is_translation_subgroup"] is False


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7, 11, 13) + tuple(
    pytest.param(n, marks=pytest.mark.slow) for n in ADMISSIBLE_NS if n > 13))
def test_translations_are_their_own_centralizer_but_at_two(n):
    # the witness side of Lemma 5.2 without the lattice: T is abelian and
    # normal, and C_G(T), the elements both unit translations fix under
    # conjugation, is T itself.  At n = 2, r^3 acts as -I = I, so it
    # centralizes T as well, and the index there is 6.
    group = build_group(n)
    trans = translation_subgroup(group)
    assert group.centralizes(trans.gens, trans.gens)
    assert trans.is_normal()
    everything = np.arange(group.order)
    fixed = (group.conjugates(trans.gens, everything) == everything).all(axis=0)
    centralizer = tuple(np.flatnonzero(fixed).tolist())
    if n == 2:
        assert len(centralizer) == 2 * n * n == 8
        assert {pair_of(group, c)[1] for c in centralizer} == {0, 3}
    else:
        assert centralizer == trans.members


def test_build_action_data_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        build_action_data(1)


def test_verify_lemma52_reads_its_determinants_from_the_action():
    # the three determinant fields are build_action_data(n)'s, on the table
    # path (n = 7) and the computed-product path (n = 13) alike
    for n in (7, 13):
        row = verify_lemma52(n)
        data = build_action_data(n)
        assert row.computed["det_u_minus_identity"] == data.det_u_minus_identity == 3
        assert row.computed["det_z_minus_identity"] == data.det_z_minus_identity == 4
        assert row.computed["determinants_are_units"] is data.determinants_are_units() is True


@pytest.mark.parametrize("n", range(2, 14))
def test_formula_group_matches_the_closed_table(n):
    # the same group twice: computed products against the Cayley table closed
    # from the payload generators, matched element by element through keys
    # (bad n included; n = 3 has the order-9 tie that the keys break)
    formula = FamilyGroup(build_action_data(n))
    table = close_generators(oracles.family_generators(n))
    to_formula = np.array([formula.find(e) for e in table.elements])
    assert sorted(to_formula.tolist()) == list(range(formula.order)) == list(range(12 * n * n))
    assert formula.generators == tuple(to_formula[list(table.generators)].tolist())
    for start in range(0, table.order, 256):
        rows = np.arange(start, min(start + 256, table.order))
        assert np.array_equal(formula.products(to_formula[rows, None], to_formula),
                              to_formula[table.mul[rows]])
    assert np.array_equal(formula.inverse[to_formula], to_formula[table.inverse])

    def mapped(sub):
        return tuple(sorted(to_formula[list(sub.members)].tolist()))

    lattices = normal_subgroups(formula), normal_subgroups(table)
    assert ({sub.members: flag for sub, flag in zip(lattices[0], lattices[0].abelian)}
            == {mapped(sub): flag for sub, flag in zip(lattices[1], lattices[1].abelian)})
    certs = jordan_index(lattices[0]), jordan_index(lattices[1])
    assert certs[0].index == certs[1].index == (6 if n == 2 else 12)
    assert certs[0].witness.members == mapped(certs[1].witness)
    assert translation_subgroup(formula).members == tuple(range(n * n))


@pytest.mark.parametrize("n, kind", [(5, "table"), (7, "table"), (10, "table"),
                                     (11, "formula"), (13, "formula"), (29, "formula")])
def test_build_group_tabulates_only_small_orders(n, kind):
    group = build_group(n)
    assert isinstance(group, FamilyGroup) == (kind == "formula")
    assert group.order == 12 * n * n


@pytest.mark.parametrize("n", range(2, 11))
def test_tabulated_family_is_the_closure_of_the_oracle_payloads(n):
    # the table is a FamilyGroup's products closed along the same generator
    # list, so Dimino numbers it as it numbers the reference payloads
    group, reference = build_group(n), close_generators(oracles.family_generators(n))
    assert np.array_equal(group.mul, reference.mul)
    assert np.array_equal(group.inverse, reference.inverse)
    assert group.generators == reference.generators
    assert group.keys == reference.keys


def test_tabulated_family_payload_refuses_a_foreign_payload():
    # an element of another family, and a reference payload with the same key
    element = build_group(5).elements[1]
    foreign = [build_group(7).elements[1], oracles.family_generators(5)[0]]
    assert foreign[1].key() == element.key()
    for other in foreign:
        with pytest.raises(IncompatiblePayloads):
            element.compose(other)


def test_family_order_bound_names_n_before_any_work(monkeypatch):
    # n = 92 is the first n past MAX_FAMILY_ORDER; no action is solved for it
    monkeypatch.setattr(semidirect, "build_action_data", lambda n: pytest.fail("solved %d" % n))
    assert 12 * 91 * 91 <= semidirect.MAX_FAMILY_ORDER < 12 * 92 * 92
    with pytest.raises(CapExceeded, match=r"^lemma52 n = 92 .* MAX_FAMILY_ORDER=100000$"):
        build_group(92)


def test_formula_group_memory_is_linear_in_the_order():
    # the Cayley table of order 10 092 would take 407 MB; the largest blocks
    # here are the four generators' conjugation rows of conjugacy_classes,
    # about 232 bytes per element in all
    tracemalloc.start()
    try:
        group = build_group(29)
        lattice = normal_subgroups(group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.order == 10_092
    assert peak < 384 * group.order
    assert jordan_index(lattice).witness.members == translation_subgroup(group).members
    assert "keys" not in vars(group)
