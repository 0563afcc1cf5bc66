"""Exact linear algebra over the integers and rationals.

Everything here is deterministic and fraction-free where possible: kernels
come back as primitive integer vectors, determinants and characteristic
polynomials are computed without floating point, and cyclotomic polynomials
are built by exact division.  All arithmetic goes through Python ints and
fractions, and one Gauss-Jordan routine serves every Fraction elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

__all__ = [
    "kernel_basis",
    "solve_in_span",
    "exact_det",
    "charpoly",
    "cyclotomic_polynomial",
    "cyclotomic_factor_indices",
    "poly_divmod",
]


def _primitive(vec: list[Fraction]) -> tuple[int, ...]:
    # clear denominators, divide by content, make first nonzero entry positive
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def _reduce(mat: list[list[Fraction]], columns: int) -> list[int]:
    """Gauss-Jordan elimination in place over the first ``columns`` columns.

    Leaves those columns in reduced row echelon form and returns the pivot
    columns; the pivot of column ``pivots[r]`` is the 1 in row ``r``.
    """
    pivots: list[int] = []
    for col in range(columns):
        rank = len(pivots)
        if rank == len(mat):
            break
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
    return pivots


def kernel_basis(rows: Sequence[Sequence], width: int | None = None) -> list[tuple[int, ...]]:
    """Basis of the right kernel of a matrix with integer or Fraction entries.

    Returns primitive integer vectors, one per free column, in column order.
    An empty matrix (no rows) has the full standard basis as its kernel.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if width is None:
        if not mat:
            raise ValueError("width required for empty matrix")
        width = len(mat[0])
    if any(len(row) != width for row in mat):
        raise ValueError("ragged matrix")

    pivots = _reduce(mat, width)
    pivot_set = set(pivots)
    basis: list[tuple[int, ...]] = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][free]
        basis.append(_primitive(vec))
    return basis


def solve_in_span(basis: Sequence[Sequence[int]], targets: Sequence[Sequence]) -> list[list[Fraction]]:
    """Coordinates of target vectors in the span of the basis, exact.

    basis has d independent integer vectors of length n; targets are vectors
    expected to lie in their span.  Returns the d x len(targets) coordinate
    matrix as Fractions; raises ArithmeticError if the basis is dependent or
    a target escapes the span.
    """
    d = len(basis)
    aug = [
        [Fraction(vec[i]) for vec in basis] + [Fraction(vec[i]) for vec in targets]
        for i in range(len(basis[0]))
    ]
    if _reduce(aug, d) != list(range(d)):
        raise ArithmeticError("basis vectors are dependent")
    if any(x != 0 for row in aug[d:] for x in row[d:]):
        raise ArithmeticError("target vector escapes the span")
    return [aug[j][d:] for j in range(d)]


def exact_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    m = [[int(x) for x in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = None
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    swap = r
                    break
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def charpoly(matrix: Sequence[Sequence[Fraction | int]]) -> list[Fraction]:
    """Coefficients of det(xI - M), highest degree first, via Faddeev-LeVerrier."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("characteristic polynomial needs a square matrix")
    coeffs = [Fraction(1)]
    aux = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # aux <- M @ (aux + c_{k-1} I)
        shifted = [row[:] for row in aux]
        for i in range(n):
            shifted[i][i] += coeffs[-1]
        aux = [
            [sum(m[i][t] * shifted[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(aux[i][i] for i in range(n))
        coeffs.append(-trace / k)
    return coeffs


def poly_divmod(
    num: Sequence[Fraction | int], den: Sequence[Fraction | int]
) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of polynomials given highest-degree-first."""
    num_f = [Fraction(x) for x in num]
    den_f = [Fraction(x) for x in den]
    while den_f and den_f[0] == 0:
        den_f.pop(0)
    if not den_f:
        raise ZeroDivisionError("polynomial division by zero")
    if len(num_f) < len(den_f):
        return [], num_f
    quot = [Fraction(0)] * (len(num_f) - len(den_f) + 1)
    rem = num_f[:]
    lead = den_f[0]
    for i in range(len(quot)):
        q = rem[i] / lead
        quot[i] = q
        if q != 0:
            for j, d in enumerate(den_f):
                rem[i + j] -= q * d
    rem = rem[len(quot):]
    while rem and rem[0] == 0:
        rem.pop(0)
    return quot, rem


def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Integer coefficients of the d-th cyclotomic polynomial, highest first."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    # x^d - 1 divided by the cyclotomic polynomials of all proper divisors
    num: list[Fraction] = [Fraction(1)] + [Fraction(0)] * (d - 1) + [Fraction(-1)]
    for e in range(1, d):
        if d % e == 0:
            num, rem = poly_divmod(num, cyclotomic_polynomial(e))
            if rem:
                raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(int(c) for c in num)


def cyclotomic_factor_indices(
    poly: Sequence[Fraction | int], element_order: int
) -> list[int]:
    """Factor a polynomial into cyclotomics Phi_d with d dividing element_order.

    Returns the sorted list of indices d, with multiplicity.  Raises if the
    polynomial is not a product of such cyclotomics (it always is for the
    characteristic polynomial of a finite-order integer matrix restricted to
    an invariant subspace, which is the only use here).
    """
    rem = [Fraction(x) for x in poly]
    while rem and rem[0] == 0:
        rem.pop(0)
    if not rem:
        raise ValueError("zero polynomial")
    found: list[int] = []
    divisors = [d for d in range(1, element_order + 1) if element_order % d == 0]
    progress = True
    while len(rem) > 1 and progress:
        progress = False
        for d in divisors:
            phi = cyclotomic_polynomial(d)
            if len(phi) > len(rem):
                continue
            quot, r = poly_divmod(rem, phi)
            if not r:
                found.append(d)
                rem = quot
                progress = True
                break
    if len(rem) != 1 or rem[0] != 1:
        raise ArithmeticError("polynomial is not a product of expected cyclotomics")
    return sorted(found)
