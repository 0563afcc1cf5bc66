"""Normal-subgroup lattices and the Jordan index of a finite group.

The Jordan index is the minimal index of an abelian normal subgroup.  A group
is a union of conjugacy classes and every normal subgroup is generated by the
classes it contains, so the full lattice of normal subgroups is the closure of
the class normal-closures under pairwise join.  A class is closed once per
cyclic subgroup: the classes of the other generators g^k of <g> have the same
normal closure and are skipped.  Each member is a boolean mask over the
classes.  A pair where one member contains the other joins to the larger one,
so only the other pairs are joined, and the join of two normal subgroups is
their product A B, computed on classes: A times the representatives of B's
seed classes until no class is added (Holt, Eick and O'Brien, Handbook of
Computational Group Theory).  Each member keeps a generating seed set (its
class, or the union of its two factors' seeds), and the abelian flag is read
off the seeds: a subgroup is abelian exactly when its generators commute
pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

import numpy as np

from .groups import FiniteGroup, GroupError, Subgroup, conjugacy_classes

__all__ = [
    "NormalSubgroupLattice",
    "JordanCertificate",
    "normal_subgroups",
    "jordan_index",
    "report_fragment",
]


@dataclass(frozen=True)
class NormalSubgroupLattice:
    """All normal subgroups of a group, canonically sorted."""

    subgroups: tuple[Subgroup, ...]
    abelian: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.subgroups)

    def __iter__(self):
        return iter(self.subgroups)


@dataclass(frozen=True)
class JordanCertificate:
    index: int
    witness: Subgroup


def _commute(group: FiniteGroup, left: Sequence[int], right: Sequence[int]) -> bool:
    """Whether every element of ``left`` commutes with every element of ``right``."""
    right = np.asarray(right)
    return all(np.array_equal(group.mul[x, right], group.mul[right, x]) for x in left)


def _join(group: FiniteGroup, label: np.ndarray, reps: np.ndarray,
          mask: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Class mask of A B, for A given by its class ``mask`` and B normal,
    generated by the classes in the mask ``seeds``.

    A B is the set reached from A by right products with B's seed classes.
    For a union of classes X and a class C, x (h c h^-1) = h (h^-1 x h) c h^-1,
    so the classes of X C are those of X c for the representative c alone:
    each round multiplies the members of the classes new in the last round by
    the seed representatives, at most |A B| x (number of seed classes) lookups.
    """
    mask, fresh, right = mask.copy(), mask, reps[seeds]
    while fresh.any():
        reached = np.zeros_like(mask)
        reached[label[group.mul[np.flatnonzero(fresh[label])[:, None], right]]] = True
        fresh = reached & ~mask
        mask |= fresh
    return mask


def normal_subgroups(group: FiniteGroup) -> NormalSubgroupLattice:
    """Enumerate every normal subgroup of ``group``.

    Seeds are the normal closures of the conjugacy classes (each class is
    already conjugation-invariant, so its subgroup closure is normal), one
    closure per cyclic subgroup: g^k with gcd(k, ord g) = 1 generates the
    same normal subgroup as g, so its class is skipped.  The seed set is then
    closed under pairwise join, each unordered pair joined once and only when
    neither member contains the other.  Sorted by (order, member tuple):
    trivial subgroup first, whole group last.
    """
    classes = conjugacy_classes(group)
    label = np.empty(group.order, dtype=np.intp)  # element -> its class
    label[[x for cls in classes for x in cls]] = np.repeat(
        np.arange(len(classes)), [len(cls) for cls in classes])
    reps = np.array([cls[0] for cls in classes])
    skipped = np.zeros(len(classes), dtype=bool)
    # (class mask, generating seed-class mask, abelian) per member, in the order found
    found: list[tuple[np.ndarray, np.ndarray, bool]] = []
    seen: set[bytes] = set()
    for c, cls in enumerate(classes):
        if skipped[c]:
            continue
        row, powers = group.mul[cls[0]], [cls[0]]
        while powers[-1] != 0:
            powers.append(row[powers[-1]])
        order = len(powers)  # powers[k - 1] is g^k, and g^order = 1
        skipped[[label[p] for k, p in enumerate(powers[1:], 2) if gcd(k, order) == 1]] = True
        mask = np.zeros(len(classes), dtype=bool)
        mask[label[list(group.subgroup_closure(cls))]] = True
        if mask.tobytes() not in seen:
            seen.add(mask.tobytes())
            seeds = np.zeros(len(classes), dtype=bool)
            seeds[c] = True
            found.append((mask, seeds, _commute(group, cls, cls)))
    # ``found`` grows inside the loop, so every later member meets all earlier ones.
    for i, (a, a_seeds, a_abelian) in enumerate(found):
        for b, b_seeds, b_abelian in found[:i]:
            if not (a & ~b).any() or not (b & ~a).any():
                continue
            joined = _join(group, label, reps, a, b_seeds)
            if joined.tobytes() not in seen:
                seen.add(joined.tobytes())
                abelian = a_abelian and b_abelian and _commute(
                    group, np.flatnonzero(a_seeds[label]), np.flatnonzero(b_seeds[label]))
                found.append((joined, a_seeds | b_seeds, abelian))

    members = [tuple(np.flatnonzero(mask[label]).tolist()) for mask, _, _ in found]
    ordered = sorted(range(len(members)), key=lambda i: (len(members[i]), members[i]))
    return NormalSubgroupLattice(tuple(Subgroup(group, members[i]) for i in ordered),
                                 tuple(found[i][2] for i in ordered))


def jordan_index(
    group: FiniteGroup, lattice: NormalSubgroupLattice | None = None
) -> JordanCertificate:
    """Minimal index of an abelian normal subgroup, with its witness.

    The witness is an abelian normal subgroup of maximal order; when several
    share that order, the one with the smallest sorted member-key list, so
    the choice does not depend on the group's numbering.  It is
    checked on its whole member table, independently of the lattice's
    seed-based flags, and a witness that fails raises GroupError.
    """
    if lattice is None:
        lattice = normal_subgroups(group)
    # the trivial subgroup is always abelian normal, so ``abelian`` is non-empty
    abelian = [sub for sub, ab in zip(lattice.subgroups, lattice.abelian) if ab]
    top = max(sub.order for sub in abelian)
    ties = [sub for sub in abelian if sub.order == top]
    best = ties[0] if len(ties) == 1 else min(ties, key=Subgroup.key)
    if not best.is_abelian():
        raise GroupError("jordan witness of order %d is not abelian" % best.order)
    if not best.is_normal():
        raise GroupError("jordan witness of order %d is not normal" % best.order)
    return JordanCertificate(index=group.order // best.order, witness=best)


def report_fragment(group: FiniteGroup) -> dict:
    """JSON-able summary: order, jordan index, witness order, lattice size."""
    lattice = normal_subgroups(group)
    cert = jordan_index(group, lattice=lattice)
    return {
        "order": group.order,
        "jordan_index": cert.index,
        "witness_order": cert.witness.order,
        "normal_subgroup_count": len(lattice),
    }
