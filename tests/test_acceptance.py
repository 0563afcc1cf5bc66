"""Acceptance gate: the eight headline checks, one printed line each.

Each test emits ``ACCEPTANCE <k> <summary> PASS|FAIL`` and then asserts.
The lines go through print (visible with -s or on failure) and are repeated
in the terminal summary after the run via conftest, so a plain pytest run
always shows every verdict.
"""

import random
import time

import numpy as np
import pytest

import oracles
from conftest import ACCEPTANCE_LINES
from cremonalab.conic_fibers import simulate, swap_index_factor, weak_geometric_constant
from cremonalab.corpus import small_group_corpus
from cremonalab.dp5 import dp5_suite, fixed_space, s5_representation, standard_subgroups, verify_homomorphism
from cremonalab.jordan import jordan_index, normal_subgroups
from cremonalab.pole_cycles import conservation_violations, max_symmetry_by_degree
from cremonalab.semidirect import build_action_data, build_group, translation_subgroup

from math import gcd


def announce(index: int, summary: str, ok: bool) -> None:
    line = "ACCEPTANCE %d %s %s" % (index, summary, "PASS" if ok else "FAIL")
    print(line)
    ACCEPTANCE_LINES.append(line)


@pytest.fixture(scope="module")
def rep():
    return s5_representation()


def test_acceptance_1_jordan_index_of_the_family():
    failures = []
    for n in (5, 7, 11):
        start = time.perf_counter()
        group = build_group(n)
        cert = jordan_index(group)
        translations = translation_subgroup(group)
        elapsed = time.perf_counter() - start
        if cert.index != 12:
            failures.append("n=%d index %d" % (n, cert.index))
        if cert.witness.members != translations.members or cert.witness.order != n * n:
            failures.append("n=%d witness is not the n^2 translation subgroup" % n)
        if elapsed >= 60.0:
            failures.append("n=%d took %.1fs" % (n, elapsed))
    ok = not failures
    announce(1, "jordan index 12 with translation witness for n in {5,7,11}", ok)
    assert ok, failures


def test_acceptance_2_determinant_criteria():
    failures = []
    for n in (2, 3, 4, 5, 6, 7, 9, 11, 13):
        data = build_action_data(n)
        if data.det_u_minus_identity != 3 % n:
            failures.append("n=%d det(U-I)=%d" % (n, data.det_u_minus_identity))
        if data.det_z_minus_identity != 4 % n:
            failures.append("n=%d det(Z-I)=%d" % (n, data.det_z_minus_identity))
        if data.determinants_are_units() != (gcd(n, 6) == 1):
            failures.append("n=%d unit test disagrees with gcd" % n)
    ok = not failures
    announce(2, "det(U-I)=3, det(Z-I)=4 mod n, units iff gcd(n,6)=1", ok)
    assert ok, failures


def test_acceptance_3_max_symmetry_table():
    start = time.perf_counter()
    table = max_symmetry_by_degree()
    elapsed = time.perf_counter() - start
    expected = {6: 12, 5: 10, 4: 8, 3: 6, 2: 4, 1: 2}
    ok = table == expected and elapsed < 300.0
    announce(3, "max symmetry by degree {6:12,...,1:2} under 5 minutes", ok)
    assert table == expected
    assert elapsed < 300.0, elapsed


def test_acceptance_4_conservation_law():
    violations = conservation_violations(seed=0, words_per_base=1000)
    ok = set(violations.values()) == {0} and len(violations) == 3
    announce(4, "conservation law holds on 1000 random words per base pair", ok)
    assert ok, violations


def test_acceptance_5_line_verdicts_and_homomorphism(rep):
    start = time.perf_counter()
    pairs = verify_homomorphism(rep)
    verdicts = {r.name: r.has_rational_line for r in dp5_suite(rep)}
    elapsed = time.perf_counter() - start
    expected = {"s5": False, "a5": False, "g5_4": False, "g5_2": True, "c5": True}
    ok = verdicts == expected and pairs == 14400 and elapsed < 30.0
    announce(5, "line verdicts (F,F,F,T,T) and 14400-pair homomorphism check", ok)
    assert verdicts == expected
    assert pairs == 14400
    assert elapsed < 30.0, elapsed


def test_acceptance_6_fixed_space_cross_check(rep):
    group = rep.group
    subgroups = [sub for _, sub in standard_subgroups(group)]
    rng = random.Random(6)
    while len(subgroups) < 55:
        a, b = rng.randrange(group.order), rng.randrange(group.order)
        subgroups.append(group.subgroup(group.subgroup_closure((a, b))))
    failures = []
    for sub in subgroups:
        kernel_dim = len(fixed_space(rep, sub))
        projector_sum = np.zeros((6, 6), dtype=np.int64)
        for m in sub.members:
            projector_sum += rep.mats[m]
        trace = int(np.trace(projector_sum))
        if trace % sub.order != 0 or trace // sub.order != kernel_dim:
            failures.append((sub.order, kernel_dim, trace))
    ok = not failures
    announce(6, "fixed-space dimension equals projector trace on 55 subgroups", ok)
    assert ok, failures


def test_acceptance_7_fiber_model_bound():
    sim = simulate(0, 500)
    clean = (
        sim["greedy_failures"] == 0
        and sim["invariance_failures"] == 0
        and sim["scan_disagreements"] == 0
        and sim["bound_violations"] == 0
        and sim["max_index"] <= 16
    )
    constant_ok = swap_index_factor() == 16 and weak_geometric_constant() == 4608
    ok = clean and constant_ok
    announce(7, "500 fiber models: no swaps in A', index <= 16, constant 4608", ok)
    assert clean, sim
    assert constant_ok


def test_acceptance_8_small_group_oracle():
    failures = []
    for name, group in small_group_corpus().items():
        table = oracles.table_of(group)
        expected_normals = oracles.normal_subgroups_oracle(table)
        computed_normals = {frozenset(sub.members) for sub in normal_subgroups(group)}
        if computed_normals != expected_normals:
            failures.append("%s normal subgroups differ" % name)
        cert = jordan_index(group)
        expected_index = oracles.jordan_index_oracle(table)
        if cert.index != expected_index:
            failures.append("%s jordan %d vs oracle %d" % (name, cert.index, expected_index))
    ok = not failures
    announce(8, "normal subgroups and jordan index match brute force on the corpus", ok)
    assert ok, failures
