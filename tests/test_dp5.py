"""The 6-dimensional integral representation and invariant-line verdicts."""

import numpy as np
import pytest

import oracles
from cremonalab.groups import Permutation, commutator_subgroup, cyclic_product
from cremonalab.dp5 import (
    SUBGROUP_NAMES,
    Representation,
    _complex_note,
    dp5_suite,
    fixed_space,
    rational_invariant_lines,
    s5_representation,
    standard_subgroups,
    verify_homomorphism,
)

EXPECTED_VERDICTS = {
    "s5": False,
    "a5": False,
    "g5_4": False,
    "g5_2": True,
    "c5": True,
}


@pytest.fixture(scope="module")
def rep():
    return s5_representation()


@pytest.fixture(scope="module")
def subgroups(rep):
    return dict(standard_subgroups(rep.group))


def test_homomorphism_is_exhaustive(rep):
    assert verify_homomorphism(rep) == 120 * 120


def test_trace_distribution_identifies_the_character(rep):
    traces = {}
    for mat in rep.mats:
        t = int(np.trace(mat))
        traces[t] = traces.get(t, 0) + 1
    assert traces == {6: 1, 1: 24, -2: 15, 0: 80}


def test_determinants_are_unimodular(rep):
    for mat in rep.mats:
        assert oracles.frac_det(mat.tolist()) in (1, -1)


def test_standard_subgroup_orders_and_containments(rep, subgroups):
    orders = {name: sub.order for name, sub in subgroups.items()}
    assert orders == {"s5": 120, "a5": 60, "g5_4": 20, "g5_2": 10, "c5": 5}
    c5 = set(subgroups["c5"].members)
    g5_2 = set(subgroups["g5_2"].members)
    g5_4 = set(subgroups["g5_4"].members)
    a5 = set(subgroups["a5"].members)
    assert c5 < g5_2 < g5_4
    assert g5_2 < a5
    assert not g5_4 <= a5


def test_fixed_space_dimensions(rep, subgroups):
    trivial = rep.group.subgroup((0,))
    assert len(fixed_space(rep, trivial)) == 6
    assert len(fixed_space(rep, subgroups["a5"])) == 0
    assert len(fixed_space(rep, subgroups["s5"])) == 0
    assert len(fixed_space(rep, subgroups["c5"])) == 2
    assert len(fixed_space(rep, subgroups["g5_4"])) == 0


def test_fixed_space_vectors_are_fixed(rep, subgroups):
    basis = fixed_space(rep, subgroups["c5"])
    for vec in basis:
        arr = np.array(vec, dtype=np.int64)
        for m in subgroups["c5"].members:
            assert np.array_equal(rep.mats[m] @ arr, arr)


def test_line_verdicts(rep, subgroups):
    for name in SUBGROUP_NAMES:
        result = rational_invariant_lines(rep, subgroups[name], name)
        assert result.has_rational_line == EXPECTED_VERDICTS[name], name


def test_witnesses_span_invariant_lines(rep, subgroups):
    for report in dp5_suite(rep):
        if not report.has_rational_line:
            assert report.witness is None
            assert report.caveat == ""
            continue
        assert report.caveat != ""
        vec = np.array(report.witness, dtype=np.int64)
        assert vec.any()
        sub = subgroups[report.name]
        # each element maps the line to itself: image is +-1 times the vector
        for m in sub.members:
            image = rep.mats[m] @ vec
            assert np.array_equal(image, vec) or np.array_equal(image, -vec)


def test_suite_rows_are_ordered_and_complete(rep):
    rows = dp5_suite(rep)
    assert tuple(r.name for r in rows) == SUBGROUP_NAMES
    by_name = {r.name: r for r in rows}
    assert by_name["g5_4"].complex_note == (2,)
    assert by_name["g5_2"].complex_note == (1, 1)
    assert by_name["c5"].complex_note == (1, 1, 4)
    assert by_name["s5"].fix_space_dim == 0
    assert by_name["c5"].fix_space_dim == 6


def dual_representation(rep):
    """Inverse-transpose of every matrix; a homomorphism again."""
    mats = rep.mats[rep.group.inverse].transpose(0, 2, 1).copy()
    mats.flags.writeable = False
    return Representation(group=rep.group, mats=mats)


def test_dual_representation_same_verdicts(rep):
    # Phi_d is closed under inverting its roots, so the cyclotomic degrees
    # of the dual action agree as well as the verdicts and dimensions
    dual = dual_representation(rep)
    assert verify_homomorphism(dual) == 120 * 120

    def summary(r):
        return r.has_rational_line, r.fix_space_dim, r.complex_note

    primal = {r.name: summary(r) for r in dp5_suite(rep)}
    mirrored = {r.name: summary(r) for r in dp5_suite(dual)}
    assert primal == mirrored


def test_complex_note_rejects_a_wrong_length_basis(rep, subgroups):
    for name in ("g5_4", "c5"):
        derived = commutator_subgroup(subgroups[name])
        basis = fixed_space(rep, derived)
        with pytest.raises(ArithmeticError, match="fixes"):
            _complex_note(rep, subgroups[name], derived, basis[:-1])


def test_complex_note_rejects_a_non_normal_derived_subgroup(rep, subgroups):
    # <(2 3)(4 5)> is not normal in g5_2, and a 5-cycle moves its fixed plane
    group = rep.group
    invol = group.find(Permutation.from_cycles(5, [[2, 3], [4, 5]]))
    fake = group.subgroup(group.subgroup_closure([invol]), gens=(invol,))
    with pytest.raises(ArithmeticError, match="moves"):
        _complex_note(rep, subgroups["g5_2"], fake, fixed_space(rep, fake))


@pytest.mark.parametrize("images", [
    (1, -1, 1),  # Z/4: g fixes the line but g^2 does not, so m_2 = -1
    (-1, -1),  # Z/3: k_1 = 0 and k_3 = 1 would need half a Phi_3
])
def test_complex_note_rejects_impossible_kernel_dimensions(images):
    # 1-dimensional "representations" that are no homomorphisms
    group = cyclic_product([len(images) + 1])
    mats = np.array([[[1]], *([[x]] for x in images)], dtype=np.int64)
    fake = Representation(group=group, mats=mats)
    whole = group.subgroup(range(group.order), gens=(1,))
    trivial = group.subgroup((0,))
    with pytest.raises(ArithmeticError, match="splitting"):
        _complex_note(fake, whole, trivial, [(1,)])


def _cyclic_action(generator):
    # Z/d acting by powers of an integer matrix of order d
    d = 1
    while not np.array_equal(np.linalg.matrix_power(generator, d), np.eye(len(generator))):
        d += 1
    group = cyclic_product([d])
    mats = np.stack([np.linalg.matrix_power(generator, j) for j in range(d)])
    whole = group.subgroup(range(d), gens=(1,) if d > 1 else ())
    return Representation(group=group, mats=mats), whole, group.subgroup((0,))


@pytest.mark.parametrize("d", sorted(oracles.KNOWN_CYCLOTOMICS))
def test_complex_note_of_cyclotomic_companion(d):
    # the companion matrix of the transcribed Phi_d has order d and is one
    # Phi_d-piece, so the note is that polynomial's degree alone
    phi = oracles.KNOWN_CYCLOTOMICS[d]
    k = len(phi) - 1
    companion = np.zeros((k, k), dtype=np.int64)
    companion[1:, :-1] = np.eye(k - 1, dtype=np.int64)
    companion[:, -1] = [-c for c in phi[:0:-1]]
    rep, whole, trivial = _cyclic_action(companion)
    assert rep.group.order == d
    basis = fixed_space(rep, trivial)
    assert _complex_note(rep, whole, trivial, basis) == (k,)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 6, 8, 12, 15, 24))
def test_complex_note_of_regular_cyclic_action(n):
    # x^n - 1 is the product of Phi_d over d | n, so the n-cycle's
    # permutation matrix has one piece of each degree phi(d)
    shift = np.roll(np.eye(n, dtype=np.int64), 1, axis=0)
    rep, whole, trivial = _cyclic_action(shift)
    expected = sorted(len(oracles.KNOWN_CYCLOTOMICS[d]) - 1 for d in range(1, n + 1) if n % d == 0)
    assert _complex_note(rep, whole, trivial, fixed_space(rep, trivial)) == tuple(expected)
