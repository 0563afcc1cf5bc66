"""Normal-subgroup lattices and the Jordan index of a finite group.

The Jordan index is the minimal index of an abelian normal subgroup.  Every
normal subgroup is generated by its elements of prime-power order, so it is
the join of the normal closures of the classes of those elements (Holt, Eick
and O'Brien, Handbook of Computational Group Theory).  These class closures
are the seeds, one per cyclic subgroup: the classes of the other generators
g^k of <g> have the same normal closure and are skipped.  A class closure
starts from a normal subgroup it already contains: the commutator [g, x] =
g (x g^-1 x^-1) of its representative g with any x lies in it, and so does
the closure of the class of [g, x], if that closure is known.  Each member is a
boolean mask over the elements.  Every member is joined with each seed that
it neither contains nor lies in, so the lattice is closed under joins with
the seeds, and hence complete.  A join A ncl(c) is one Dimino coset
extension of A over the class of c, started from A itself
(``FiniteGroup._extend``).  The abelian flag is read off the representative
c: ncl(c) is abelian exactly when c commutes with its class, and A ncl(c),
for A normal, exactly when both factors are abelian and c commutes with A.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd

import numpy as np

from .groups import CapExceeded, FiniteGroup, GroupError, Subgroup, conjugacy_classes

__all__ = [
    "MAX_LATTICE_EXTENSIONS",
    "NormalSubgroupLattice",
    "JordanCertificate",
    "normal_subgroups",
    "jordan_index",
    "report_fragment",
]

# Class closures and joins that one lattice may take, one coset extension
# each: (Z/6)^2 x Z/36 takes 34 884 of them, and (Z/2)^6, with 2825 normal
# subgroups, 154 414.
MAX_LATTICE_EXTENSIONS = 50_000


@dataclass(frozen=True)
class NormalSubgroupLattice:
    """All normal subgroups of a group, canonically sorted."""

    subgroups: tuple[Subgroup, ...]
    abelian: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.subgroups)

    def __iter__(self):
        return iter(self.subgroups)

    def __repr__(self) -> str:
        # not the member tuples, 1.93 MB of them for build_group(89)
        return "%s(members=%d, group_order=%d)" % (
            type(self).__name__, len(self), self.subgroups[0].parent.order)


@dataclass(frozen=True)
class JordanCertificate:
    index: int
    witness: Subgroup


def normal_subgroups(group: FiniteGroup) -> NormalSubgroupLattice:
    """Enumerate every normal subgroup of ``group``.

    Seeds are the normal closures of the classes of elements of order 1 or a
    prime power (each class is already conjugation-invariant, so its subgroup
    closure is normal), one closure per cyclic subgroup: g^k with
    gcd(k, ord g) = 1 generates the same normal subgroup as g, so its class
    is skipped, and its closure is recorded as that of g.  Each closure of
    the class C of g starts from the largest recorded closure among the
    classes of [g, x] for the group's generators x, or from the identity
    when none is recorded: [g, x] = g (x g^-1 x^-1) lies in the normal
    subgroup <C>, so the closure of its class does too.  Each member, seeds
    included, is joined with every seed that
    it neither contains nor lies in, by one coset extension of the member
    over the seed's class.  Sorted by (order, member tuple): trivial
    subgroup first, whole group last.  Raises CapExceeded before the
    closure or join past the first MAX_LATTICE_EXTENSIONS.
    """
    extensions = count(1)
    classes = conjugacy_classes(group)
    class_of = np.empty(group.order, dtype=np.intp)
    for i, cls in enumerate(classes):
        class_of[list(cls)] = i
    skipped: set[int] = set()  # the classes of the generators g^k of every <g> walked
    closure_of: dict[int, np.ndarray] = {}  # class -> its normal closure's mask, once known
    # (class, closure mask, abelian) per seed with a new closure
    seeds: list[tuple[tuple[int, ...], np.ndarray, bool]] = []
    seen: set[bytes] = set()
    for i, cls in enumerate(classes):
        if i in skipped:
            continue
        powers = group.powers(cls[0])
        order = len(powers)  # powers[k - 1] is g^k, and g^order = 1
        coprime = {int(class_of[p]) for k, p in enumerate(powers, 1) if gcd(k, order) == 1}
        skipped.update(coprime)
        least = next((p for p in range(2, order + 1) if order % p == 0), 1)
        if pow(least, order, order) != 0:  # ord g is neither 1 nor a prime power
            continue
        _spend(extensions)
        # [g, x] = g (x g^-1 x^-1) lies in <cls>, and so does any recorded
        # closure of its class: start from the largest of them
        commutators = group.commutators([cls[0]], group.generators)[0]
        below = [closure_of[c] for c in class_of[commutators].tolist() if c in closure_of]
        start = max(below, key=np.count_nonzero, default=None)
        mask = np.zeros(group.order, dtype=bool)
        mask[list(group.subgroup_closure(cls, start))] = True
        closure_of.update(dict.fromkeys(coprime, mask))
        if mask.tobytes() not in seen:
            seen.add(mask.tobytes())
            seeds.append((cls, mask, group.centralizes(cls[0], cls)))
    # (member mask, abelian) in the order found; it grows inside the loop, so
    # every member meets every seed
    found = [(mask, abelian) for _, mask, abelian in seeds]
    for a, a_abelian in found:
        for cls, s, s_abelian in seeds:
            if not (a & ~s).any() or not (s & ~a).any():
                continue
            _spend(extensions)
            joined = group._extend(cls, a)[0]
            if joined.tobytes() not in seen:
                seen.add(joined.tobytes())
                found.append((joined, a_abelian and s_abelian
                              and group.centralizes(cls[0], np.flatnonzero(a))))

    members = [tuple(np.flatnonzero(mask).tolist()) for mask, _ in found]
    ordered = sorted(range(len(members)), key=lambda i: (len(members[i]), members[i]))
    return NormalSubgroupLattice(tuple(Subgroup(group, members[i]) for i in ordered),
                                 tuple(found[i][1] for i in ordered))


def _spend(extensions: count) -> None:
    """Count one class closure or join, and refuse it past MAX_LATTICE_EXTENSIONS."""
    if next(extensions) > MAX_LATTICE_EXTENSIONS:
        raise CapExceeded("normal subgroup lattice needs more than MAX_LATTICE_EXTENSIONS=%d "
                          "class closures and joins" % MAX_LATTICE_EXTENSIONS)


def jordan_index(lattice: NormalSubgroupLattice) -> JordanCertificate:
    """Minimal index of an abelian normal subgroup, with its witness, read
    off ``normal_subgroups(group)``: the witness's index in its parent.

    The witness is an abelian normal subgroup of maximal order; when several
    share that order, the one with the smallest sorted member-key list, so
    the choice does not depend on the group's numbering.  It is checked
    apart from the lattice's seed-based flags, on generators that close to
    exactly it, and a witness that fails raises GroupError.
    """
    # the trivial subgroup is always abelian normal, so ``abelian`` is non-empty
    abelian = [sub for sub, ab in zip(lattice.subgroups, lattice.abelian) if ab]
    top = max(sub.order for sub in abelian)
    ties = [sub for sub in abelian if sub.order == top]
    best = ties[0] if len(ties) == 1 else min(ties, key=Subgroup.key)
    if not best.is_abelian():
        raise GroupError("jordan witness of order %d is not abelian" % best.order)
    if not best.is_normal():
        raise GroupError("jordan witness of order %d is not normal" % best.order)
    return JordanCertificate(index=best.parent.order // best.order, witness=best)


def report_fragment(group: FiniteGroup) -> dict:
    """JSON-able summary: order, jordan index, witness order, lattice size."""
    lattice = normal_subgroups(group)
    cert = jordan_index(lattice)
    return {
        "order": group.order,
        "jordan_index": cert.index,
        "witness_order": cert.witness.order,
        "normal_subgroup_count": len(lattice),
    }
