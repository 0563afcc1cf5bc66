"""Exact linear algebra over the integers.

One fraction-free (Bareiss) eliminator, ``_echelon``, serves both routines:
``exact_det`` reads the determinant off its last pivot, and ``kernel_basis``
back-substitutes one primitive integer vector per free column.  Entries stay
integers throughout (a non-integer entry raises TypeError).  dp5 reads every
subspace dimension it reports, ``complex_note`` included, off kernels.
"""

from __future__ import annotations

from math import gcd
from operator import index
from typing import Sequence

__all__ = ["kernel_basis", "exact_det"]


def _integer_rows(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    mat = [[index(x) for x in row] for row in rows]
    if any(len(row) != width for row in mat):
        raise ValueError("every row must have %d entries" % width)
    return mat


def _echelon(mat: list[list[int]]) -> tuple[list[int], int]:
    """Bareiss forward elimination in place; returns (pivot columns, minor).

    A column with no nonzero entry at or below the current row is skipped,
    so the matrix may be rectangular and rank-deficient.  Afterwards row r
    starts at column ``pivots[r]`` and the rows past the rank are zero.  Each
    entry is a minor of the input, so every division is exact; ``minor`` is
    the one on the pivot rows and columns (the last pivot, signed by the row
    swaps; 1 if there is no pivot).
    """
    pivots: list[int] = []
    sign = 1
    prev = 1
    height = len(mat)
    width = len(mat[0]) if mat else 0
    for col in range(width):
        k = len(pivots)
        if k == height:
            break
        if mat[k][col] == 0:
            swap = next((r for r in range(k + 1, height) if mat[r][col] != 0), None)
            if swap is None:
                continue
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        top = mat[k]
        pivot = top[col]
        for row in mat[k + 1:]:
            f = row[col]
            for j in range(col + 1, width):
                row[j] = (row[j] * pivot - f * top[j]) // prev
            row[col] = 0
        prev = pivot
        pivots.append(col)
    return pivots, sign * prev


def _primitive(vec: list[int]) -> tuple[int, ...]:
    # divide by the content and make the first nonzero entry positive
    g = gcd(*vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)


def kernel_basis(rows: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel of an integer matrix with ``width`` columns.

    Returns primitive integer vectors, one per free column, in column order:
    the reduced-row-echelon basis, scaled to integers.  An empty matrix (no
    rows) has the full standard basis as its kernel.
    """
    mat = _integer_rows(rows, width)
    pivots, minor = _echelon(mat)
    basis: list[tuple[int, ...]] = []
    for free in sorted(set(range(width)) - set(pivots)):
        # scaled by the minor, the solution is a vector of minors (Cramer's
        # rule), so each division below is exact
        vec = [0] * width
        vec[free] = minor
        for row, pc in reversed(list(zip(mat, pivots))):
            vec[pc] = -sum(row[j] * vec[j] for j in range(pc + 1, width)) // row[pc]
        basis.append(_primitive(vec))
    return basis


def exact_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(matrix)
    pivots, minor = _echelon(_integer_rows(matrix, n))
    return minor if len(pivots) == n else 0
