"""Exact linear algebra against Fraction-based oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cremonalab.rational import (
    charpoly,
    cyclotomic_factor_indices,
    cyclotomic_polynomial,
    exact_det,
    kernel_basis,
    poly_divmod,
    solve_in_span,
)

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


def test_charpoly_known_matrices():
    assert charpoly([[0, 1], [-1, 0]]) == [1, 0, 1]  # x^2 + 1
    assert charpoly([[2, 0], [0, 3]]) == [1, -5, 6]  # (x-2)(x-3)
    assert charpoly([[1]]) == [1, -1]


@given(square(3))
@settings(max_examples=20, deadline=None)
def test_charpoly_satisfies_cayley_hamilton(rows):
    coeffs = charpoly(rows)
    assert coeffs[0] == 1
    assert len(coeffs) == 4
    evaluated = oracles.poly_eval_at_matrix(coeffs, rows)
    assert all(x == 0 for row in evaluated for x in row)
    # constant term is (-1)^n det
    assert coeffs[-1] == -oracles.frac_det(rows)


def test_poly_divmod_roundtrip():
    # (x^2 + 1)(x - 1) = x^3 - x^2 + x - 1
    q, r = poly_divmod((1, -1, 1, -1), (1, 0, 1))
    assert q == [1, -1]
    assert r == []
    q, r = poly_divmod((1, 0, 0), (1, 1))
    assert q == [1, -1]
    assert r == [1]


@pytest.mark.parametrize("d", sorted(oracles.KNOWN_CYCLOTOMICS))
def test_cyclotomic_polynomials_match_table(d):
    assert cyclotomic_polynomial(d) == oracles.KNOWN_CYCLOTOMICS[d]


@pytest.mark.parametrize("n", (1, 2, 3, 4, 6, 8, 12, 15, 24))
def test_cyclotomic_product_identity(n):
    # prod over d | n of Phi_d equals x^n - 1
    product = (1,)
    for d in range(1, n + 1):
        if n % d == 0:
            phi = cyclotomic_polynomial(d)
            product = _poly_mul(product, phi)
    expected = (1,) + (0,) * (n - 1) + (-1,)
    assert product == expected


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_cyclotomic_factor_indices():
    # x^2 + 1 is Phi_4
    assert cyclotomic_factor_indices((1, 0, 1), 4) == [4]
    # (x - 1)^2 for a trivial action of any order
    assert cyclotomic_factor_indices((1, -2, 1), 4) == [1, 1]
    # x^4 + x^3 + x^2 + x + 1 times x - 1 under order 5
    poly = _poly_mul((1, 1, 1, 1, 1), (1, -1))
    assert cyclotomic_factor_indices(poly, 5) == [1, 5]
    with pytest.raises(ArithmeticError):
        cyclotomic_factor_indices((1, 0, -2), 4)  # x^2 - 2 is no cyclotomic product


@given(st.lists(small_int, min_size=4, max_size=4), st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=2, max_size=2),
    min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_solve_in_span_recovers_coordinates(row, coords):
    # a kernel basis is independent; build targets from known coordinates
    basis = kernel_basis([row], width=4)[:2]
    coords = [c[: len(basis)] for c in coords]
    targets = [[sum(c[j] * basis[j][i] for j in range(len(basis))) for i in range(4)]
               for c in coords]
    solved = solve_in_span(basis, targets)
    assert [[solved[j][k] for j in range(len(basis))] for k in range(len(targets))] == coords


def test_solve_in_span_rejects_escapes_and_dependent_bases():
    with pytest.raises(ArithmeticError, match="escapes"):
        solve_in_span([(1, 0, 0)], [[0, 1, 0]])
    with pytest.raises(ArithmeticError, match="dependent"):
        solve_in_span([(1, 1, 0), (2, 2, 0)], [[1, 1, 0]])
