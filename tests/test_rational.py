"""Exact linear algebra against Fraction-based oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cremonalab import dp5
from cremonalab.dp5 import dp5_suite, s5_representation
from cremonalab.rational import exact_det, kernel_basis

small_int = st.integers(min_value=-6, max_value=6)


def matrix(height, width, entries=small_int):
    row = st.lists(entries, min_size=width, max_size=width)
    return st.lists(row, min_size=height, max_size=height)


def square(n):
    return matrix(n, n)


@st.composite
def degenerate(draw, max_height=8, max_width=8, square_only=False):
    """A matrix whose rows past a drawn rank are integer combinations of the
    rows before it, in shuffled order, with some columns zeroed."""
    height = draw(st.integers(0 if square_only else 1, max_height))
    width = height if square_only else draw(st.integers(1, max_width))
    rank = draw(st.integers(0, height))
    rows = draw(matrix(rank, width))
    for _ in range(height - rank):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows[:rank])) for j in range(width)])
    zeroed = draw(st.sets(st.integers(0, max(width - 1, 0)), max_size=2))
    rows = [[0 if j in zeroed else x for j, x in enumerate(row)] for row in rows]
    return draw(st.permutations(rows))


@given(square(3))
@settings(max_examples=25, deadline=None)
def test_exact_det_matches_oracle(rows):
    assert exact_det(rows) == oracles.frac_det(rows)


@given(square(4))
@settings(max_examples=15, deadline=None)
def test_exact_det_matches_oracle_4x4(rows):
    assert exact_det(rows) == oracles.frac_det(rows)


@given(st.integers(0, 7).flatmap(square) | degenerate(max_height=7, square_only=True))
@settings(max_examples=60, deadline=None)
def test_exact_det_matches_oracle_up_to_7x7(rows):
    assert exact_det(rows) == oracles.frac_det(rows)


def test_exact_det_of_64_bit_20x20_matches_oracle():
    rng = random.Random(20)
    rows = [[rng.getrandbits(64) - 2 ** 63 for _ in range(20)] for _ in range(20)]
    det = exact_det(rows)
    assert det != 0 and det == oracles.frac_det(rows)


@given(st.lists(st.lists(small_int, min_size=4, max_size=4), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_kernel_basis_spans_nullspace(rows):
    basis = kernel_basis(rows, width=4)
    # every basis vector is killed by every row
    for vec in basis:
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0
    # dimension matches rank-nullity and the vectors are independent
    assert len(basis) == oracles.frac_nullity(rows, 4)
    if basis:
        assert oracles.frac_rank(list(basis)) == len(basis)
    # primitive integer vectors with positive leading entry
    for vec in basis:
        lead = next(x for x in vec if x != 0)
        assert lead > 0
        assert all(isinstance(x, int) for x in vec)


@given(matrix(6, 6, st.integers(-2, 2)) | matrix(12, 6, st.integers(-2, 2)))
@settings(max_examples=60, deadline=None)
def test_kernel_basis_equals_oracle_on_dp5_shapes(rows):
    assert kernel_basis(rows, width=6) == oracles.frac_kernel(rows, 6)


@given(degenerate())
@settings(max_examples=100, deadline=None)
def test_kernel_basis_equals_oracle_on_rank_deficient_matrices(rows):
    width = len(rows[0])
    assert kernel_basis(rows, width=width) == oracles.frac_kernel(rows, width)


def test_every_dp5_kernel_equals_oracle(monkeypatch):
    calls = []

    def recording(rows, width):
        basis = kernel_basis(rows, width=width)
        calls.append((rows, width, basis))
        return basis

    monkeypatch.setattr(dp5, "kernel_basis", recording)
    dp5_suite(s5_representation())
    assert len(calls) == 27
    for rows, width, basis in calls:
        assert basis == oracles.frac_kernel(rows, width)


def test_kernel_basis_of_no_rows_is_standard_basis():
    basis = kernel_basis([], width=3)
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 0.5, 2.0])
def test_non_integer_entries_raise_type_error(entry):
    with pytest.raises(TypeError):
        kernel_basis([[1, entry]], width=2)
    with pytest.raises(TypeError):
        exact_det([[1, 0], [entry, 1]])


def test_ragged_rows_are_refused():
    with pytest.raises(ValueError):
        kernel_basis([[1, 2], [3]], width=2)
    with pytest.raises(ValueError):
        exact_det([[1, 2, 3], [4, 5, 6]])
