"""Normal-subgroup lattices and the Jordan index of a finite group.

The Jordan index is the minimal index of an abelian normal subgroup.  A group
is a union of conjugacy classes and every normal subgroup is generated by the
classes it contains, so the full lattice of normal subgroups is the closure of
the class normal-closures under pairwise join.  A pair where one member
contains the other joins to the larger one, so only the other pairs are
joined.  Each member keeps a generating seed set (its class, or the union of
its two factors' seeds); a join is the subgroup closure of that union, and
the abelian flag is read off the seeds: a subgroup is abelian exactly when
its generators commute pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def normal_subgroups(group: FiniteGroup) -> NormalSubgroupLattice:
    """Enumerate every normal subgroup of ``group``.

    Seeds are the normal closures of the conjugacy classes (each class is
    already conjugation-invariant, so its subgroup closure is normal); the
    seed set is then closed under pairwise join, each unordered pair joined
    once and only when neither member contains the other.  Sorted by (order,
    member tuple): trivial subgroup first, whole group last.
    """
    # members -> (member set, generating seeds, abelian)
    found: dict[tuple[int, ...], tuple[frozenset[int], tuple[int, ...], bool]] = {}
    for cls in conjugacy_classes(group):
        members = group.subgroup_closure(cls)
        if members not in found:
            found[members] = (frozenset(members), cls, _commute(group, cls, cls))
    # ``pending`` grows inside the loop, so every later member meets all earlier ones.
    pending = list(found)
    for i, a in enumerate(pending):
        a_set, a_seeds, a_abelian = found[a]
        for b in pending[:i]:
            b_set, b_seeds, b_abelian = found[b]
            if a_set <= b_set or b_set <= a_set:
                continue
            seeds = tuple(sorted(set(a_seeds) | set(b_seeds)))
            joined = group.subgroup_closure(seeds)
            if joined not in found:
                abelian = a_abelian and b_abelian and _commute(group, a_seeds, b_seeds)
                found[joined] = (frozenset(joined), seeds, abelian)
                pending.append(joined)

    ordered = sorted(found, key=lambda m: (len(m), m))
    return NormalSubgroupLattice(tuple(group.subgroup(m) for m in ordered),
                                 tuple(found[m][2] for m in ordered))


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
