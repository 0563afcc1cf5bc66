"""Load finite groups from JSON definition documents.

The accepted document shape is
``{"kind": "perm" | "modmatrix" | "lemma52", "degree": k, "modulus": n,
"generators": [...]}`` where permutation generators are lists of cycles in
1-based point labels and matrix generators are row-major integer arrays
reduced mod n.  Matrix generators must be invertible mod n (the determinant is
taken after reduction, and an error reports it mod n); the order-12n^2
family needs only ``modulus``.
"""

from __future__ import annotations

import json
from math import gcd, isqrt

from .groups import FiniteGroup, ModMatrix, Permutation, close_generators
from .rational import exact_det
from .semidirect import build_group

__all__ = ["MAX_DEGREE", "MAX_GENERATORS", "MAX_MATRIX_DIM", "MAX_MODULUS_BITS", "GroupFileError",
           "parse_group", "load_group"]

# Parsing costs time and memory per generator, so their number is bounded
# before any is read: a group whose table fits MAX_TABLE_BYTES has order at
# most 16 384 = 2^14, so an irredundant generating list has at most 14 entries.
MAX_GENERATORS = 64
# Permutation generators are built point by point, so the degree is bounded
# before any of them is.
MAX_DEGREE = 4096
# Each matrix generator's determinant is computed exactly before the table
# bound applies, so its dimension is bounded first (``exact_det`` takes about
# 0.007 s at 32 x 32 with 20-bit entries).
MAX_MATRIX_DIM = 32
# ``exact_det`` works on entries below the modulus, and its cost grows with
# their size: at 32 x 32 about 0.03 s with 64-bit entries and 0.33 s with
# 256-bit ones (best of 7, 2-vCPU host).  A lemma52 modulus n is held to the
# same bound, though semidirect.MAX_FAMILY_ORDER refuses any n above 91.
MAX_MODULUS_BITS = 64


class GroupFileError(ValueError):
    """Malformed or inconsistent group definition document."""


def _require_int(doc: dict, key: str, minimum: int) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise GroupFileError("%r must be an integer >= %d, got %r" % (key, minimum, value))
    return value


def _modulus(doc: dict) -> int:
    modulus = _require_int(doc, "modulus", 2)
    if modulus.bit_length() > MAX_MODULUS_BITS:
        raise GroupFileError("'modulus' has %d bits, more than MAX_MODULUS_BITS=%d"
                             % (modulus.bit_length(), MAX_MODULUS_BITS))
    return modulus


def _matrix_rows(raw, modulus: int) -> tuple[tuple[int, ...], ...]:
    if not isinstance(raw, list) or not raw:
        raise GroupFileError("matrix generator must be a non-empty array")
    flat = all(isinstance(e, int) and not isinstance(e, bool) for e in raw)
    dim = isqrt(len(raw)) if flat else len(raw)
    if dim > MAX_MATRIX_DIM:
        raise GroupFileError("matrix dimension %d exceeds MAX_MATRIX_DIM=%d" % (dim, MAX_MATRIX_DIM))
    if flat:
        if dim * dim != len(raw):
            raise GroupFileError("flat matrix of length %d is not square" % len(raw))
        rows = [raw[i * dim:(i + 1) * dim] for i in range(dim)]
    elif all(isinstance(row, list) for row in raw):
        rows = raw
        if any(len(row) != len(rows) for row in rows):
            raise GroupFileError("matrix generator must be square")
        for row in rows:
            if any(isinstance(e, bool) or not isinstance(e, int) for e in row):
                raise GroupFileError("matrix entries must be integers")
    else:
        raise GroupFileError("matrix generator must be a flat or nested integer array")
    # the determinant mod n only depends on the entries mod n, and reducing
    # first keeps Bareiss off the raw (possibly huge) integers
    reduced = tuple(tuple(e % modulus for e in row) for row in rows)
    det = exact_det(reduced) % modulus
    if gcd(det, modulus) != 1:
        raise GroupFileError("matrix generator is not invertible mod %d (det = %d)" % (modulus, det))
    return reduced


def parse_group(doc) -> FiniteGroup:
    """Build the FiniteGroup described by an already-parsed JSON document."""
    if not isinstance(doc, dict):
        raise GroupFileError("group definition must be a JSON object")
    kind = doc.get("kind")
    if kind == "lemma52":
        return build_group(_modulus(doc))
    raw_gens = doc.get("generators")
    if not isinstance(raw_gens, list) or not raw_gens:
        raise GroupFileError("'generators' must be a non-empty array")
    if len(raw_gens) > MAX_GENERATORS:
        raise GroupFileError("%d generators, more than MAX_GENERATORS=%d"
                             % (len(raw_gens), MAX_GENERATORS))
    if kind == "perm":
        degree = _require_int(doc, "degree", 1)
        if degree > MAX_DEGREE:
            raise GroupFileError("'degree' must be at most %d, got %d" % (MAX_DEGREE, degree))
        payloads = []
        for cycles in raw_gens:
            if not isinstance(cycles, list):
                raise GroupFileError("permutation generator must be an array of cycles")
            # True - 1 == 0, so a boolean would pass for the point 1
            if any(isinstance(p, bool) for cycle in cycles if isinstance(cycle, list) for p in cycle):
                raise GroupFileError("cycle points must be integers, got %r" % (cycles,))
            try:
                payloads.append(Permutation.from_cycles(degree, cycles))
            except (ValueError, TypeError) as exc:
                raise GroupFileError("bad permutation generator %r: %s" % (cycles, exc)) from exc
        return close_generators(payloads)
    if kind == "modmatrix":
        modulus = _modulus(doc)
        payloads = [ModMatrix(modulus, _matrix_rows(raw, modulus)) for raw in raw_gens]
        dims = {p.dim for p in payloads}
        if len(dims) != 1:
            raise GroupFileError("matrix generators disagree on dimension: %s" % sorted(dims))
        return close_generators(payloads)
    raise GroupFileError("'kind' must be 'perm', 'modmatrix' or 'lemma52', got %r" % (kind,))


def load_group(path: str) -> FiniteGroup:
    """Read and build a group definition from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:  # a ValueError, so caught first
            raise GroupFileError("not UTF-8 text: %s" % exc) from exc
        except (ValueError, RecursionError) as exc:  # bad syntax, too deep, or too many digits
            raise GroupFileError("not valid JSON: %s" % exc) from exc
    return parse_group(doc)
