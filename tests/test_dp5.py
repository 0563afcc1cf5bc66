"""The 6-dimensional integral representation and invariant-line verdicts."""

import numpy as np
import pytest

import oracles
from cremonalab.dp5 import (
    SUBGROUP_NAMES,
    Representation,
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
    return s5_representation(verify=False)


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
    dual = dual_representation(rep)
    assert verify_homomorphism(dual) == 120 * 120
    primal = {r.name: r.has_rational_line for r in dp5_suite(rep)}
    mirrored = {r.name: r.has_rational_line for r in dp5_suite(dual)}
    assert primal == mirrored


def test_verify_flag_builds_identical_rep():
    verified = s5_representation(verify=True)
    raw = s5_representation(verify=False)
    assert np.array_equal(verified.mats, raw.mats)
