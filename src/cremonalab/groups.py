"""Finite groups as explicit multiplication tables over typed element payloads.

Elements are small immutable payloads (permutations, matrices over Z/nZ, or
semidirect-product pairs defined elsewhere) that know how to compose and how to
serialize themselves to a canonical byte key.  A group is closed in one
breadth-first walk from a generator list, then numbered by (shortest word
length, canonical key) with the identity first, so two closures of the same
generator list are byte-identical.

Every group and subgroup operation works from the Cayley table alone: a
subgroup stays a member list inside its parent.  Only ``find`` and ``keys``
need payloads, and ``jordan_index`` reads keys only to break a real tie.
Subgroups are generated one way, by Dimino's coset extension: subgroup
closures, the lattice joins built on them and greedy generating sets all
read ``FiniteGroup._extend``.  Conjugation is one table gather over an index
array, x -> g x g^-1 = ``mul[mul[g, x], inverse[g]]``, never one element at
a time: conjugacy classes, normality and derived subgroups all read it so.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Protocol, Sequence

import numpy as np

__all__ = [
    "DEFAULT_CAP",
    "MAX_TABLE_BYTES",
    "GroupError",
    "CapExceeded",
    "IncompatiblePayloads",
    "Payload",
    "Permutation",
    "ModMatrix",
    "FiniteGroup",
    "Subgroup",
    "check_table_bytes",
    "close_generators",
    "conjugacy_classes",
    "commutator_subgroup",
    "minimal_generators",
]

DEFAULT_CAP = 100_000
MAX_TABLE_BYTES = 1 << 30


class GroupError(RuntimeError):
    pass


class CapExceeded(GroupError):
    """Closure grew past the element cap or its table past MAX_TABLE_BYTES."""


class IncompatiblePayloads(GroupError):
    """Two payloads cannot be composed (different kinds or parameters)."""


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as ints (so True is 1), ValueError unless each is an integer."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError("%s must be integers" % what) from None


class Payload(Protocol):
    kind: str

    def key(self) -> bytes: ...

    def compose(self, other: "Payload") -> "Payload": ...

    def identity(self) -> "Payload": ...


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0, ..., degree-1}; images[i] is the image of point i."""

    images: tuple[int, ...]

    kind = "perm"

    def __post_init__(self) -> None:
        images = _integers(self.images, "images")
        if sorted(images) != list(range(len(images))):
            raise ValueError("images must be a permutation of 0..%d" % (len(images) - 1))
        object.__setattr__(self, "images", images)

    @staticmethod
    def identity_of_degree(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    @staticmethod
    def from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles in 1-based point labels."""
        images = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            pts = [p - 1 for p in _integers(cycle, "cycle points")]
            if any(p < 0 or p >= degree for p in pts):
                raise ValueError("cycle point out of range 1..%d" % degree)
            if seen.intersection(pts) or len(set(pts)) != len(pts):
                raise ValueError("cycles must be disjoint")
            seen.update(pts)
            for i, p in enumerate(pts):
                images[p] = pts[(i + 1) % len(pts)]
        return Permutation(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def key(self) -> bytes:
        return ("P|%d|" % self.degree + ",".join(map(str, self.images))).encode()

    def compose(self, other: "Payload") -> "Permutation":
        if not isinstance(other, Permutation) or other.degree != self.degree:
            raise IncompatiblePayloads("cannot compose %r with %r" % (self, other))
        # (self . other)(x) = self(other(x))
        return Permutation(tuple(self.images[j] for j in other.images))

    def identity(self) -> "Permutation":
        return Permutation.identity_of_degree(self.degree)


@dataclass(frozen=True)
class ModMatrix:
    """Square matrix over Z/modulus, entries reduced to 0..modulus-1."""

    modulus: int
    entries: tuple[tuple[int, ...], ...]

    kind = "modmatrix"

    def __post_init__(self) -> None:
        (n,) = _integers((self.modulus,), "modulus")
        if n < 2:
            raise ValueError("modulus must be at least 2")
        k = len(self.entries)
        if any(len(row) != k for row in self.entries):
            raise ValueError("matrix must be square")
        entries = tuple(tuple(e % n for e in _integers(row, "entries")) for row in self.entries)
        object.__setattr__(self, "modulus", n)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def key(self) -> bytes:
        flat = ",".join(str(e) for row in self.entries for e in row)
        return ("M|%d|%d|" % (self.modulus, self.dim) + flat).encode()

    def compose(self, other: "Payload") -> "ModMatrix":
        if (
            not isinstance(other, ModMatrix)
            or other.modulus != self.modulus
            or other.dim != self.dim
        ):
            raise IncompatiblePayloads("cannot compose %r with %r" % (self, other))
        n, k = self.modulus, self.dim
        a, b = self.entries, other.entries
        rows = tuple(
            tuple(sum(a[i][t] * b[t][j] for t in range(k)) % n for j in range(k))
            for i in range(k)
        )
        return ModMatrix(n, rows)

    def identity(self) -> "ModMatrix":
        k = self.dim
        return ModMatrix(self.modulus, tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k)))


@dataclass
class FiniteGroup:
    """Explicit finite group: payload list plus an index multiplication table.

    Element 0 is the identity.  ``mul[i, j]`` is the index of elements[i]
    composed with elements[j]; ``inverse[i]`` the index of the inverse.
    ``keys`` and the key index behind ``find`` are derived from the payloads
    on first use.
    """

    elements: tuple
    mul: np.ndarray
    generators: tuple[int, ...]
    inverse: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        # each row of mul permutes the indices, so its single 0 sits at the inverse
        self.inverse = self.mul.argmin(axis=1).astype(np.int32)
        self.mul.flags.writeable = False
        self.inverse.flags.writeable = False

    @cached_property
    def keys(self) -> tuple[bytes, ...]:
        return tuple(e.key() for e in self.elements)

    @cached_property
    def _index(self) -> dict[bytes, int]:
        return {k: i for i, k in enumerate(self.keys)}

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        return 0

    def find(self, payload) -> int:
        """Index of a payload in this group (KeyError if absent)."""
        return self._index[payload.key()]

    def _extend(self, seeds: Iterable[int]) -> tuple[np.ndarray, list[int]]:
        """Dimino's coset extension: membership mask and kept generators of <seeds>.

        Seeds are taken in order; one already in the subgroup H found so far
        is skipped, and any other is kept as a generator and extends H to the
        union of the left cosets y H, one row gather each.  The cosets are
        closed under left multiplication by the generators, so the
        representatives are the products g y that fall outside every coset so
        far (Holt, Eick and O'Brien, Handbook of Computational Group Theory).
        """
        mask = np.zeros(self.order, dtype=bool)
        mask[0] = True
        gens: list[int] = []
        for s in seeds:
            if mask[s]:
                continue
            gens.append(int(s))
            members = np.flatnonzero(mask)
            reps = [0]  # ``reps`` grows while it is walked
            for y in reps:
                for g in gens:
                    z = self.mul[g, y]
                    if not mask[z]:
                        mask[self.mul[z, members]] = True
                        reps.append(z)
        return mask, gens

    def subgroup_closure(self, seeds: Iterable[int]) -> tuple[int, ...]:
        """Sorted member indices of the subgroup generated by ``seeds``."""
        return tuple(np.flatnonzero(self._extend(seeds)[0]).tolist())

    def subgroup(self, members: Iterable[int], gens: tuple[int, ...] | None = None) -> "Subgroup":
        return Subgroup(self, tuple(sorted(int(m) for m in set(members))), gens)


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a FiniteGroup given by its sorted member indices."""

    parent: FiniteGroup
    members: tuple[int, ...]
    gens: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def key(self) -> bytes:
        return b"|".join(self.parent.keys[m] for m in self.members)

    def generating_set(self) -> tuple[int, ...]:
        if self.gens is not None:
            return self.gens
        return minimal_generators(self.parent, self.members)

    def is_abelian(self) -> bool:
        m = np.asarray(self.members, dtype=np.int64)
        block = self.parent.mul[np.ix_(m, m)]
        return bool(np.array_equal(block, block.T))

    def is_normal(self) -> bool:
        """Every parent generator conjugates the whole member set into itself."""
        group = self.parent
        members, gens = np.asarray(self.members), np.asarray(group.generators)
        inside = np.zeros(group.order, dtype=bool)
        inside[members] = True
        conjugates = group.mul[group.mul[np.ix_(gens, members)], group.inverse[gens, None]]
        return bool(inside[conjugates].all())


def check_table_bytes(order: int) -> None:
    """Raise CapExceeded when an int32 Cayley table of ``order`` exceeds MAX_TABLE_BYTES."""
    if order * order * 4 > MAX_TABLE_BYTES:
        raise CapExceeded("a Cayley table of order %d needs %d bytes, over MAX_TABLE_BYTES=%d"
                          % (order, order * order * 4, MAX_TABLE_BYTES))


def close_generators(gens: Sequence, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Close a generator list into a FiniteGroup in one breadth-first walk.

    The walk numbers each product as it finds it.  A FIFO walk first reaches
    an element at its shortest positive word length (the same whether words
    grow on the left or the right), and the final numbering sorts by (that
    length, canonical payload key), so it depends only on the generator *set*.
    Raises CapExceeded when the closure grows past ``cap`` or its table past
    MAX_TABLE_BYTES, and IncompatiblePayloads when generators cannot be
    composed.
    """
    if not gens:
        raise ValueError("need at least one generator")
    kinds = {getattr(g, "kind", None) for g in gens}
    if len(kinds) != 1:
        raise IncompatiblePayloads("mixed payload kinds: %r" % kinds)

    ident = gens[0].identity()
    elements: list = [ident]
    index: dict[bytes, int] = {ident.key(): 0}
    depth, parent, via = [0], [0], [0]
    # left[i][pos]: discovery number of generator pos composed with element
    # i, each composed once; the identity's row is the generators.
    left: list[list[int]] = []
    for i, x in enumerate(elements):  # ``elements`` grows while it is walked
        row = []
        for pos, g in enumerate(gens):
            prod = g if i == 0 else g.compose(x)
            k = prod.key()
            j = index.get(k)
            if j is None:
                j = index[k] = len(elements)
                # checked as each product is found, so at most cap are ever kept
                if j >= cap:
                    raise CapExceeded("closure exceeds cap=%d" % cap)
                check_table_bytes(j + 1)
                elements.append(prod)
                depth.append(depth[i] + 1)
                parent.append(i)
                via.append(pos)
            row.append(j)
        left.append(row)

    order = len(elements)
    keys = list(index)  # in discovery order
    ranked = sorted(range(order), key=lambda j: (depth[j], keys[j]))
    rank = np.argsort(ranked).astype(np.int32)
    left_by_gen = rank[np.array(left, dtype=np.int32)[ranked]].T.copy()

    # Element j = gen via[j] . element parent[j] and its parent ranks lower, so
    # row rank[j] of the table is one gather, j . x = gen . (parent[j] . x): the
    # gen's left products read along the parent's row (every index is in range,
    # so "clip" only skips the bounds check and the default mode's buffering).
    mul = np.empty((order, order), dtype=np.int32)
    mul[0] = np.arange(order, dtype=np.int32)
    for i, j in enumerate(ranked[1:], 1):
        left_by_gen[via[j]].take(mul[rank[parent[j]]], out=mul[i], mode="clip")

    return FiniteGroup(elements=tuple(elements[j] for j in ranked), mul=mul,
                       generators=tuple(left_by_gen[:, 0].tolist()))


def conjugacy_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as sorted index tuples, in order of their smallest member.

    The identity class (0,) comes first.  Each class grows from its smallest
    member as a frontier over one conjugation array per group generator (a
    finite set closed under conjugation by g is closed under g^-1 too).
    """
    gens = np.asarray(group.generators)
    conjugations = group.mul[group.mul[gens], group.inverse[gens, None]]
    seen = np.zeros(group.order, dtype=bool)
    classes: list[tuple[int, ...]] = []
    for start in range(group.order):
        if seen[start]:
            continue
        mask = np.zeros(group.order, dtype=bool)
        mask[start] = True
        frontier = np.array([start])
        while frontier.size:
            before = mask.copy()
            mask[conjugations[:, frontier].ravel()] = True
            frontier = np.flatnonzero(mask > before)  # the members new in this step
        seen |= mask
        classes.append(tuple(np.flatnonzero(mask).tolist()))
    return tuple(classes)


def commutator_subgroup(sub: Subgroup) -> Subgroup:
    """Derived subgroup of ``sub``, inside the same parent group.

    It is generated by the commutators [a, s] = a s a^-1 s^-1 of every member
    a with every generator s, one |H| x |S| gather.  Since [h a, s] =
    h [a, s] h^-1 . [h, s], they generate a subgroup N normal in ``sub``, and
    modulo N every generator is central, so the quotient is abelian.
    """
    group, inverse = sub.parent, sub.parent.inverse
    members, gens = np.asarray(sub.members), np.asarray(sub.generating_set())
    commutators = group.mul[group.mul[np.ix_(members, gens)],
                            group.mul[np.ix_(inverse[members], inverse[gens])]]
    return group.subgroup(group.subgroup_closure(commutators.ravel()))


def minimal_generators(group: FiniteGroup, members: Sequence[int]) -> tuple[int, ...]:
    """Greedy small generating set for a subgroup: each member, in order, that
    the ones kept before it do not generate."""
    closure, chosen = group._extend(members)
    # the closure holds every member, so it is the member set when no larger
    if np.count_nonzero(closure) != len(set(members)):
        raise GroupError("member list is not closed")
    return tuple(chosen) or (0,)

