"""Exact linear algebra over the integers and rationals.

Two routines, both deterministic and free of floating point: ``kernel_basis``
returns a kernel as primitive integer vectors by Gauss-Jordan elimination
over Fractions, and ``exact_det`` takes an integer determinant by
fraction-free Bareiss elimination.  dp5 reads every subspace dimension it
reports, the cyclotomic degrees of ``complex_note`` included, off kernels.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

__all__ = ["kernel_basis", "exact_det"]


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
