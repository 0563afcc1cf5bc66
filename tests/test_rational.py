"""Exact linear algebra against Fraction-based oracles."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cremonalab.rational import exact_det, kernel_basis

small_int = st.integers(min_value=-6, max_value=6)


def square(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)


@given(square(3))
@settings(max_examples=25, deadline=None)
def test_exact_det_matches_oracle(rows):
    assert exact_det(rows) == oracles.frac_det(rows)


@given(square(4))
@settings(max_examples=15, deadline=None)
def test_exact_det_matches_oracle_4x4(rows):
    assert exact_det(rows) == oracles.frac_det(rows)


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


def test_kernel_basis_of_no_rows_is_standard_basis():
    basis = kernel_basis([], width=3)
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_kernel_basis_fraction_rows():
    rows = [[Fraction(1, 2), Fraction(1, 3)]]
    basis = kernel_basis(rows, width=2)
    assert len(basis) == 1
    x, y = basis[0]
    assert Fraction(1, 2) * x + Fraction(1, 3) * y == 0
