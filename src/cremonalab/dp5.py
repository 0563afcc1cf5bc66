"""Rational invariant lines for subgroups acting on a rank-6 lattice.

The symmetric group on five letters acts on a rank-6 lattice spanned by six
labeled classes; the action of a transposition is a permutation of the labels
while a 5-cycle mixes them with signs.  For each subgroup of interest the
question is whether the action fixes a rational line, i.e. whether some
one-dimensional eigenspace with eigenvalues +-1 is defined over the rationals.

Eigenlines for non-real characters exist over an extension field only; the
``complex_note`` field records the degrees of the cyclotomic factors of the
relevant restricted action so those invisible lines are still accounted for.
Every subspace here is an exact kernel from ``rational.kernel_basis``, and
the cyclotomic degrees are read off the dimensions of such kernels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import product
from math import gcd

import numpy as np

from .groups import (
    FiniteGroup,
    Permutation,
    Subgroup,
    close_generators,
    commutator_subgroup,
)
from .rational import exact_det, kernel_basis

__all__ = [
    "SUBGROUP_ORDERS",
    "SUBGROUP_NAMES",
    "CAVEAT",
    "HomomorphismFailure",
    "ProjectorMismatch",
    "Representation",
    "InvariantLineReport",
    "s5_representation",
    "verify_homomorphism",
    "standard_subgroups",
    "fixed_space",
    "rational_invariant_lines",
    "dp5_suite",
]

# The five subgroups the verdict table is about, largest first, by order.
SUBGROUP_ORDERS = {"s5": 120, "a5": 60, "g5_4": 20, "g5_2": 10, "c5": 5}
SUBGROUP_NAMES = tuple(SUBGROUP_ORDERS)
# A positive verdict certifies the linear-algebra condition only; whether
# the corresponding hyperplane section is nodal is outside this model.
CAVEAT = "line existence shown representation-theoretically; nodality of the section not checked"

# Images of the basis vectors under the two generators, as matrix columns in
# the label order s12, s13, s21, s23, s31, s32.  The transposition permutes
# labels; the 5-cycle sends a label to a signed combination because two of
# the six classes trade places with differences of the others.
_SWAP_COLUMNS = (
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, 0),
)
_CYCLE_COLUMNS = (
    (0, 0, 0, 0, 1, 0),
    (0, 1, 0, -1, -1, 0),
    (0, 0, 1, 0, 0, 0),
    (1, 0, -1, 0, 0, -1),
    (0, 1, 1, 0, -1, 0),
    (1, 0, -1, 0, 1, 0),
)


class HomomorphismFailure(RuntimeError):
    pass


class ProjectorMismatch(RuntimeError):
    pass


@dataclass(frozen=True)
class Representation:
    group: FiniteGroup
    mats: np.ndarray

    @property
    def dim(self) -> int:
        return self.mats.shape[1]


@dataclass(frozen=True)
class InvariantLineReport:
    name: str
    subgroup_order: int
    has_rational_line: bool
    witness: tuple[int, ...] | None
    fix_space_dim: int
    complex_note: tuple[int, ...]
    seconds: float = field(default=0.0, compare=False)  # set by dp5_suite


def _matrix_from_columns(columns) -> np.ndarray:
    return np.array(columns, dtype=np.int64).T


def s5_representation() -> Representation:
    """Integral 6-dimensional representation of the degree-5 symmetric group.

    Built by closure from a transposition and a 5-cycle, then by a walk of
    the Cayley graph from the identity: rho(g . x) = rho(g) rho(x) for each
    generator g and each element x already reached.  The walk covers the
    group because the two generators generate it.  ``verify_homomorphism``
    checks the result.
    """
    swap = Permutation.from_cycles(5, [[1, 2]])
    cycle = Permutation.from_cycles(5, [[1, 2, 3, 4, 5]])
    group = close_generators([swap, cycle])
    genmats = (
        _matrix_from_columns(_SWAP_COLUMNS),
        _matrix_from_columns(_CYCLE_COLUMNS),
    )
    mats = np.zeros((group.order, 6, 6), dtype=np.int64)
    mats[0] = np.eye(6, dtype=np.int64)
    reached, seen = [0], {0}  # ``reached`` grows while it is walked
    for x in reached:
        for g, mat in zip(group.generators, genmats):
            y = int(group.products(g, x))
            if y not in seen:
                seen.add(y)
                reached.append(y)
                mats[y] = mat @ mats[x]
    mats.flags.writeable = False
    return Representation(group=group, mats=mats)


def verify_homomorphism(rep: Representation) -> int:
    """Check rho(ab) == rho(a) rho(b) for every pair and unimodularity.

    Returns the number of pairs checked; raises HomomorphismFailure on any
    discrepancy or non-unit determinant.
    """
    mats, group = rep.mats, rep.group
    order = group.order
    everything = np.arange(order)
    for a in range(order):
        if not np.array_equal(mats[a] @ mats, mats[group.products(a, everything)]):
            raise HomomorphismFailure("matrix product disagrees at row %d" % a)
    for j in range(order):
        det = exact_det(mats[j].tolist())
        if det not in (1, -1):
            raise HomomorphismFailure("non-unimodular matrix at %d (det %d)" % (j, det))
    return order * order


def standard_subgroups(group: FiniteGroup) -> list[tuple[str, Subgroup]]:
    """The five subgroups of SUBGROUP_ORDERS, in its order.

    Everything, the commutator subgroup, the normalizer of a 5-cycle, the
    5-cycle with an inverting involution, and the cycle alone.
    """
    full = group.subgroup(range(group.order), gens=group.generators)
    alt = commutator_subgroup(full)

    five = group.find(Permutation.from_cycles(5, [[1, 3, 4, 5, 2]]))
    c5_members = group.subgroup_closure([five])
    c5 = group.subgroup(c5_members, gens=(five,))
    in_c5 = np.zeros(group.order, dtype=bool)
    in_c5[list(c5_members)] = True
    # the normalizer: every x with x five x^-1 in c5, all x at once
    g5_4 = group.subgroup(np.flatnonzero(in_c5[group.conjugates(np.arange(group.order), [five])]))

    invol = group.find(Permutation.from_cycles(5, [[2, 3], [4, 5]]))
    g5_2_members = group.subgroup_closure([five, invol])
    g5_2 = group.subgroup(g5_2_members, gens=(five, invol))

    named = list(zip(SUBGROUP_NAMES, (full, alt, g5_4, g5_2, c5)))
    for name, sub in named:
        if sub.order != SUBGROUP_ORDERS[name]:
            raise RuntimeError("subgroup %s has order %d, expected %d"
                               % (name, sub.order, SUBGROUP_ORDERS[name]))
    return named


def _kernel_of_elements(rep: Representation, indices, signs=None) -> list[tuple[int, ...]]:
    # kernel of stacked (rho(g) - sign_g * I); each sign is +-1, all +1 by default
    width = rep.dim
    eye = np.eye(width, dtype=np.int64)
    rows: list[list[int]] = []
    for g, sign in zip(indices, signs or [1] * len(indices)):
        rows.extend((rep.mats[g] - sign * eye).tolist())
    return kernel_basis(rows, width=width)


def fixed_space(rep: Representation, subgroup: Subgroup) -> list[tuple[int, ...]]:
    """Basis of the subspace fixed pointwise by the subgroup.

    Cross-checked against the averaging projector: the trace sum over the
    subgroup must equal the kernel dimension times the subgroup order.
    """
    basis = _kernel_of_elements(rep, subgroup.generating_set())
    trace_sum = int(sum(int(np.trace(rep.mats[m])) for m in subgroup.members))
    if trace_sum != len(basis) * subgroup.order:
        raise ProjectorMismatch(
            "projector trace %d != dim %d x order %d"
            % (trace_sum, len(basis), subgroup.order)
        )
    return basis


def _complex_note(
    rep: Representation, subgroup: Subgroup, derived: Subgroup, basis: list[tuple[int, ...]]
) -> tuple[int, ...]:
    """Degrees of the cyclotomic factors acting on the commutator-fixed space.

    ``basis`` spans the subspace W fixed by the subgroup's derived subgroup,
    on which the abelianization acts.  When the quotient is cyclic of order
    N, a coset generator g splits W into m_d copies of the Phi_d-piece for
    each d dividing N.  The part of W fixed by g^d has dimension k_d, the sum
    of m_e phi(e) over e dividing d, so the m_d follow from kernel dimensions
    in increasing d.  Non-linear factors explain lines that exist over an
    extension field but not over the rationals.  Returns the empty tuple
    when W is zero or the quotient not cyclic; raises ArithmeticError when g
    does not preserve W or the dimensions admit no such splitting.
    """
    if not basis:
        return ()
    group = rep.group
    derived_set = set(derived.members)
    quotient_order = subgroup.order // len(derived_set)
    # a member whose first power in the derived subgroup is its
    # quotient_order-th generates the quotient (the identity, when it is 1)
    generator = next((m for m in subgroup.members
                      if next(k for k, p in enumerate(group.powers(m), 1) if p in derived_set)
                      == quotient_order), None)
    if generator is None:
        return ()

    derived_gens = derived.generating_set()
    images = rep.mats[generator] @ np.array(basis, dtype=np.int64).T
    eye = np.eye(rep.dim, dtype=np.int64)
    if any(((rep.mats[h] - eye) @ images).any() for h in derived_gens):
        raise ArithmeticError("coset generator moves the fixed space")
    pieces: dict[int, int] = {}  # d -> m_d phi(d), the dimension of the Phi_d-piece
    degrees: list[int] = []
    powers = group.powers(generator)  # powers[d - 1] is g^d; ord g is a multiple of N
    # g^N lies in the derived subgroup, which fixes W, so g's order on W divides N
    for d in range(1, quotient_order + 1):
        if quotient_order % d == 0:
            fixed_dim = len(_kernel_of_elements(rep, (*derived_gens, powers[d - 1])))
            rest = fixed_dim - sum(dim for e, dim in pieces.items() if d % e == 0)
            phi = sum(1 for j in range(1, d + 1) if gcd(j, d) == 1)
            copies, remainder = divmod(rest, phi)
            if copies < 0 or remainder:
                raise ArithmeticError("kernel dimensions admit no cyclotomic splitting")
            pieces[d] = rest
            degrees.extend([phi] * copies)
    if fixed_dim != len(basis):
        raise ArithmeticError("g^N fixes %d dimensions, not dim W = %d" % (fixed_dim, len(basis)))
    return tuple(sorted(degrees))


def rational_invariant_lines(
    rep: Representation, subgroup: Subgroup, name: str
) -> InvariantLineReport:
    """Decide whether the subgroup fixes a rational line.

    A member that maps a rational line to itself acts on it by a rational
    root of unity, +1 or -1.  So a line is invariant exactly when it
    lies in the joint eigenspace of one sign vector on the generators, and
    the witness is the first kernel vector of the first such sign vector
    with a nonzero kernel (a sign vector that is no character has none).
    The verdict is conjugation-invariant: conjugating the subgroup
    transports invariant lines by the conjugating matrix.
    """
    gens = subgroup.generating_set()
    witness: tuple[int, ...] | None = None
    for signs in product((1, -1), repeat=len(gens)):
        basis = _kernel_of_elements(rep, gens, signs)
        if basis:
            witness = basis[0]
            break

    derived = commutator_subgroup(subgroup)
    fixed = fixed_space(rep, derived)
    return InvariantLineReport(
        name=name,
        subgroup_order=subgroup.order,
        has_rational_line=witness is not None,
        witness=witness,
        fix_space_dim=len(fixed),
        complex_note=_complex_note(rep, subgroup, derived, fixed),
    )


def dp5_suite(rep: Representation) -> list[InvariantLineReport]:
    """Reports for the five standard subgroups, in SUBGROUP_NAMES order, of
    ``rep`` as given: ``verify_homomorphism(rep)`` is the caller's step.

    Each report carries its measured seconds; the first also covers building
    the subgroups.
    """
    reports, start = [], time.perf_counter()
    for name, sub in standard_subgroups(rep.group):
        line = rational_invariant_lines(rep, sub, name)
        reports.append(replace(line, seconds=time.perf_counter() - start))
        start = time.perf_counter()
    return reports
