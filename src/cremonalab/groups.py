"""Finite groups as explicit multiplication tables over typed element payloads.

Elements are small immutable payloads (permutations, matrices over Z/nZ, or
semidirect-product pairs defined elsewhere) that know how to compose and how to
serialize themselves to a canonical byte key.  A group is closed breadth-first
from a generator list; the element order is deterministic (identity first, then
layer by layer, each layer sorted by canonical key), so two closures of the same
generator list are byte-identical.

Every group and subgroup operation works from the Cayley table alone: a
subgroup stays a member list inside its parent.  Only ``find`` and ``keys``
need payloads, and ``jordan_index`` reads keys only to break a real tie.
Subgroups are generated one way, by Dimino's coset extension: subgroup
closures, the lattice joins built on them and greedy generating sets all
read ``FiniteGroup._extend``.
"""

from __future__ import annotations

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
    "sign_characters",
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
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError("images must be a permutation of 0..%d" % (n - 1))

    @staticmethod
    def identity_of_degree(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    @staticmethod
    def from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles in 1-based point labels."""
        images = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            pts = [p - 1 for p in cycle]
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
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        k = len(self.entries)
        if any(len(row) != k for row in self.entries):
            raise ValueError("matrix must be square")
        if any(not (0 <= e < self.modulus) for row in self.entries for e in row):
            object.__setattr__(
                self,
                "entries",
                tuple(tuple(e % self.modulus for e in row) for row in self.entries),
            )

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

    def product(self, i: int, j: int) -> int:
        return int(self.mul[i, j])

    def conjugate(self, g: int, x: int) -> int:
        """Index of g x g^-1."""
        return int(self.mul[self.mul[g, x], self.inverse[g]])

    def commutator(self, a: int, b: int) -> int:
        """Index of a b a^-1 b^-1."""
        ab = self.mul[a, b]
        return int(self.mul[ab, self.mul[self.inverse[a], self.inverse[b]]])

    def element_order(self, i: int) -> int:
        n, x = 1, i
        while x != 0:
            x = int(self.mul[x, i])
            n += 1
        return n

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

    def conjugation_closure(
        self, seeds: Iterable[int], by: Sequence[int] | None = None
    ) -> tuple[int, ...]:
        """Closure of a set under conjugation by ``by`` (default: the group generators).

        Conjugation by g permutes the finite closed set, so the set is closed
        under conjugation by g's inverse too, and the inverses are not added.
        """
        closed = set(int(s) for s in seeds)
        frontier = list(closed)
        gens = [int(g) for g in (self.generators if by is None else by)]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.conjugate(g, x)
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        return tuple(sorted(closed))

    def tree(self, gens: Sequence[int]) -> list[tuple[int, int, int]]:
        """Breadth-first spanning tree of the subgroup generated by ``gens``.

        One ``(x, parent, pos)`` triple per non-identity member, in discovery
        order, with x = parent . gens[pos]; each parent precedes its children.
        """
        reached, steps = [0], []
        seen = {0}
        for x in reached:  # ``reached`` grows while it is walked
            for pos, g in enumerate(gens):
                y = int(self.mul[x, g])
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
                    steps.append((y, x, pos))
        return steps

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
        return self.parent.conjugation_closure(self.members) == self.members


def check_table_bytes(order: int) -> None:
    """Raise CapExceeded when an int32 Cayley table of ``order`` exceeds MAX_TABLE_BYTES."""
    if order * order * 4 > MAX_TABLE_BYTES:
        raise CapExceeded("a Cayley table of order %d needs %d bytes, over MAX_TABLE_BYTES=%d"
                          % (order, order * order * 4, MAX_TABLE_BYTES))


def close_generators(gens: Sequence, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Close a generator list into a FiniteGroup, breadth-first.

    Deterministic: the identity is element 0 and every subsequent layer is
    sorted by canonical payload key, so the element order depends only on the
    generator *set*.  Raises CapExceeded when the closure grows past ``cap``
    or its table past MAX_TABLE_BYTES, and IncompatiblePayloads when
    generators cannot be composed.
    """
    if not gens:
        raise ValueError("need at least one generator")
    kinds = {getattr(g, "kind", None) for g in gens}
    if len(kinds) != 1:
        raise IncompatiblePayloads("mixed payload kinds: %r" % kinds)

    ident = gens[0].identity()
    elements: list = [ident]
    index: dict[bytes, int] = {ident.key(): 0}
    parent: list[int] = [-1]
    via: list[int] = [-1]
    # right[i][pos]: index of element i composed with generator pos, each
    # composed once; the identity's row is the generators.  A product first
    # found in the current layer holds -1 - (its slot in ``discovered``)
    # until the layer is numbered.
    right: list[list[int]] = []

    frontier = [0]
    layers = [1]  # index where each BFS layer after the identity starts
    while frontier:
        discovered: dict[bytes, tuple[int, int, int, Payload]] = {}
        first_row = len(right)
        for fi in frontier:
            row = []
            for pos, g in enumerate(gens):
                prod = g if fi == 0 else elements[fi].compose(g)
                k = prod.key()
                j = index.get(k)
                if j is None:
                    found = discovered.get(k)
                    if found is None:
                        found = discovered[k] = (-1 - len(discovered), fi, pos, prod)
                        # checked per product: a whole layer can be far past the cap
                        if len(elements) + len(discovered) > cap:
                            raise CapExceeded("closure exceeds cap=%d" % cap)
                        check_table_bytes(len(elements) + len(discovered))
                    j = found[0]
                row.append(j)
            right.append(row)
        frontier = []
        layers.append(len(elements) + len(discovered))
        numbered = [0] * len(discovered)
        for k in sorted(discovered):
            slot, fi, pos, prod = discovered[k]
            numbered[-1 - slot] = len(elements)
            frontier.append(len(elements))
            index[k] = len(elements)
            elements.append(prod)
            parent.append(fi)
            via.append(pos)
        for row in right[first_row:]:
            row[:] = [numbered[-1 - j] if j < 0 else j for j in row]

    # Element j = element parent[j] . gen via[j], and each BFS layer is a
    # contiguous index range whose parents lie in earlier layers.  First the
    # generators' left products: g . j is the via-gen right product of
    # g . parent[j], filled one layer at a time.
    order = len(elements)
    right_index = np.array(right, dtype=np.int32)
    parent_arr = np.array(parent, dtype=np.intp)
    via_arr = np.array(via, dtype=np.intp)
    left = np.empty((len(gens), order), dtype=np.intp)  # take's native index type
    left[:, 0] = right_index[0]
    for start, stop in zip(layers, layers[1:]):
        left[:, start:stop] = right_index[left[:, parent_arr[start:stop]], via_arr[start:stop]]
    # Then the Cayley table row by row: i . x = parent[i] . (gen via[i] . x),
    # one contiguous gather per row (every index is in range, so "clip" only
    # skips the bounds check and the buffered write of the default mode).
    mul = np.empty((order, order), dtype=np.int32)
    mul[0] = np.arange(order, dtype=np.int32)
    for i in range(1, order):
        mul[parent[i]].take(left[via[i]], out=mul[i], mode="clip")

    return FiniteGroup(
        elements=tuple(elements),
        mul=mul,
        generators=tuple(right[0]),
    )


def conjugacy_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as sorted index tuples, in order of their smallest member.

    The identity class (0,) comes first.
    """
    seen = np.zeros(group.order, dtype=bool)
    classes: list[tuple[int, ...]] = []
    for start in range(group.order):
        if not seen[start]:
            orbit = group.conjugation_closure([start])
            seen[list(orbit)] = True
            classes.append(orbit)
    return tuple(classes)


def commutator_subgroup(sub: Subgroup) -> Subgroup:
    """Derived subgroup of ``sub``, inside the same parent group.

    The commutators of ``sub``'s generators, closed under conjugation by those
    generators, generate a subgroup normal in ``sub``: the derived subgroup.
    """
    group, gens = sub.parent, sub.generating_set()
    seeds = {group.commutator(a, b) for a in gens for b in gens}
    return group.subgroup(group.subgroup_closure(group.conjugation_closure(seeds, by=gens)))


def minimal_generators(group: FiniteGroup, members: Sequence[int]) -> tuple[int, ...]:
    """Greedy small generating set for a subgroup: each member, in order, that
    the ones kept before it do not generate."""
    closure, chosen = group._extend(members)
    # the closure holds every member, so it is the member set when no larger
    if np.count_nonzero(closure) != len(set(members)):
        raise GroupError("member list is not closed")
    return tuple(chosen) or (0,)


def sign_characters(sub: Subgroup) -> tuple[tuple[int, ...], ...]:
    """All homomorphisms from ``sub`` to {+1, -1}, trivial first.

    Each is a value tuple aligned with ``sub.members``.  Every sign assignment
    to the generators is propagated along ``tree`` and kept when it is
    multiplicative against each generator column.
    """
    group, gens = sub.parent, sub.generating_set()
    steps = group.tree(gens)
    members = np.asarray(sub.members)
    found: set[tuple[int, ...]] = set()
    for bits in range(1 << len(gens)):
        eps = [-1 if (bits >> pos) & 1 else 1 for pos in range(len(gens))]
        chi = [0] * group.order
        chi[0] = 1
        for x, parent, pos in steps:
            chi[x] = chi[parent] * eps[pos]
        values = np.asarray(chi)
        if all(np.array_equal(values[group.mul[members, g]], values[members] * values[g]) for g in gens):
            found.add(tuple(values[members].tolist()))
    return tuple(sorted(found, reverse=True))
