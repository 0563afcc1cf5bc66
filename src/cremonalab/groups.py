"""Finite groups as explicit multiplication tables over typed element payloads.

Elements are small immutable payloads (permutations, matrices over Z/nZ, or
semidirect.FamilyGroup's element indices) that know how to compose and how to
serialize themselves to a canonical byte key.  A group is closed from a
generator list by Dimino's coset extension over payloads, one stage per
generator not already in the closure and about one compose per element, and
numbered in the order the cosets are found, the identity first, so two
closures of the same generator list are byte-identical.  The Cayley table is
filled a coset block at a time, and the inverse is folded along the same
cosets.

Every group and subgroup operation works from ``products`` and ``inverse``
alone, so a group may compute them instead of storing a table, as
``semidirect.FamilyGroup`` does: a subgroup stays a member list inside its
parent.  Only ``find`` and ``keys`` need payloads, and ``jordan_index``
reads keys only to break a real tie.  ``FiniteGroup.products`` (x . y for
every pair of broadcast index arrays) is the one reader of ``mul``.  dp5's
S5 representation multiplies through it, and so do ``powers``,
``conjugates`` (x -> g x g^-1, one gather over index arrays),
``commutators`` ([x, y] = x y x^-1 y^-1, one gather) and ``centralizes``,
which conjugacy classes, normality, derived subgroups, the lattice and the
abelian check use.  Subgroup closures, the lattice's joins and greedy
generating sets all read Dimino's coset extension ``FiniteGroup._extend``,
which may start from any normal subgroup N inside the result.  The
lattice's class closures start from the closure of the class of a
commutator [g, x] of their representative g: [g, x] = g (x g^-1 x^-1) lies
in the normal closure of g's class, and so does the closure of its class.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Protocol, Sequence

import numpy as np

__all__ = [
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

MAX_TABLE_BYTES = 1 << 30


class GroupError(RuntimeError):
    pass


class CapExceeded(GroupError):
    """A Cayley table past MAX_TABLE_BYTES or a lattice past MAX_LATTICE_EXTENSIONS."""


class IncompatiblePayloads(GroupError):
    """Payloads that cannot be composed, or generators without one shared identity key."""


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as ints (so True is 1), ValueError unless each is an integer."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError("%s must be integers" % what) from None


class Payload(Protocol):
    def key(self) -> bytes: ...

    def compose(self, other: "Payload") -> "Payload": ...

    def identity(self) -> "Payload": ...


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0, ..., degree-1}; images[i] is the image of point i."""

    images: tuple[int, ...]

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


@dataclass(eq=False)
class FiniteGroup:
    """Explicit finite group: payload list plus an index multiplication table.

    Element 0 is the identity; ``close_generators`` numbers the rest in the
    order it finds them, fixed by the generator list, fills ``mul`` a coset
    block at a time and folds ``inverse`` along the same cosets.
    ``mul[i, j]`` is the index of elements[i] composed with elements[j];
    ``inverse[i]`` the index of the inverse.  Both are int32 and made
    read-only here.  ``keys`` and the key index behind ``find`` are derived
    from the payloads on first use.  A subclass that computes its products
    (``semidirect.FamilyGroup``) provides ``products``, ``inverse``,
    ``generators`` and ``keys``, and no ``elements`` or ``mul``; ``order`` is
    the length of ``inverse``.
    """

    elements: tuple
    mul: np.ndarray
    generators: tuple[int, ...]
    inverse: np.ndarray

    def __post_init__(self) -> None:
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
        return len(self.inverse)

    def find(self, payload) -> int:
        """Index of a payload in this group (KeyError if absent)."""
        return self._index[payload.key()]

    def products(self, x, y) -> np.ndarray:
        """Index of x . y for every pair of x and y, broadcast as NumPy index
        arrays, as ``mul[x, y]``; the one reader of ``mul``."""
        return self.mul[x, y]

    def _extend(self, seeds: Iterable[int], start: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Dimino's coset extension: membership mask and kept generators of
        <N, seeds>, for the normal subgroup N whose membership mask is ``start``.

        Seeds are taken in order; one already in the subgroup H found so far
        is skipped, and any other is kept as a generator and extends H to the
        union of the left cosets y H, one row gather each.  The cosets are
        closed under left multiplication by the kept generators, and by N
        without any of its generators, since n y H = y (y^-1 n y) H = y H
        for N normal; so the representatives are the products g y that fall
        outside every coset so far (Holt, Eick and O'Brien, Handbook of
        Computational Group Theory).  ``start`` is the identity alone for a
        plain closure, a normal subgroup inside the closure for a lattice
        class closure and a lattice member for a join; it is not modified.
        """
        mask = start.copy()
        gens: list[int] = []
        for s in seeds:
            if mask[s]:
                continue
            gens.append(int(s))
            members = np.flatnonzero(mask)
            reps = [0]  # ``reps`` grows while it is walked
            for y in reps:
                for g in gens:
                    z = self.products(g, y)
                    if not mask[z]:
                        mask[self.products(z, members)] = True
                        reps.append(z)
        return mask, gens

    def powers(self, g: int) -> list[int]:
        """[g, g^2, ..., 1], each power times g; its length is the order of g."""
        found = [int(g)]
        while found[-1] != 0:
            found.append(int(self.products(g, found[-1])))
        return found

    def conjugates(self, by, xs) -> np.ndarray:
        """g x g^-1 for each g in ``by`` (rows) and x in ``xs`` (columns), one gather."""
        by = np.asarray(by).reshape(-1, 1)
        return self.products(self.products(by, np.asarray(xs)), self.inverse[by])

    def commutators(self, xs, ys) -> np.ndarray:
        """[x, y] = x y x^-1 y^-1 for each x in ``xs`` (rows) and y in ``ys``
        (columns), one gather."""
        ys = np.asarray(ys)
        return self.products(self.conjugates(xs, ys), self.inverse[ys])

    def centralizes(self, xs, members) -> bool:
        """Whether every element of ``xs`` commutes with every one of ``members``."""
        return bool((self.conjugates(xs, members) == np.asarray(members)).all())

    def subgroup_closure(self, seeds: Iterable[int],
                         start: np.ndarray | None = None) -> tuple[int, ...]:
        """Sorted member indices of the subgroup generated by ``seeds`` and the
        normal subgroup whose membership mask is ``start`` (by default the
        identity alone)."""
        if start is None:
            start = np.arange(self.order) == 0
        return tuple(np.flatnonzero(self._extend(seeds, start)[0]).tolist())

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

    def key(self) -> bytes:
        return b"|".join(sorted(self.parent.keys[m] for m in self.members))

    def generating_set(self) -> tuple[int, ...]:
        if self.gens is not None:
            return self.gens
        return minimal_generators(self.parent, self.members)

    def is_abelian(self) -> bool:
        """Every generator commutes with every member, O(|N| |gens|)."""
        return self.parent.centralizes(self.generating_set(), self.members)

    def is_normal(self) -> bool:
        """Every parent generator conjugates the whole member set into itself."""
        group = self.parent
        inside = np.zeros(group.order, dtype=bool)
        inside[list(self.members)] = True
        return bool(inside[group.conjugates(group.generators, self.members)].all())


def check_table_bytes(order: int) -> None:
    """Raise CapExceeded when an int32 Cayley table of ``order`` exceeds MAX_TABLE_BYTES."""
    if order * order * 4 > MAX_TABLE_BYTES:
        raise CapExceeded("a Cayley table of order %d needs %d bytes, over MAX_TABLE_BYTES=%d"
                          % (order, order * order * 4, MAX_TABLE_BYTES))


def close_generators(gens: Sequence) -> FiniteGroup:
    """Close a generator list into a FiniteGroup by Dimino's coset extension.

    A generator already in the closure so far is skipped; each other one is
    kept and grows that closure H by left cosets y H, composing each kept
    generator with each representative y and each new y with each member of
    H: about one payload compose per element.  Elements are numbered in the
    order they are found, identity first, so the numbering is fixed by the
    generator list, and each j > 0 is g . p for a kept generator g and some
    p < j.  When g y = y' h', g's left-product row on y H is y' H read along
    h''s row in H, gathered through the previous stage's rows.  The table is
    filled a coset block at a time: the rows of z H = g (y H) are g's
    left-product row read along the rows of y H.  The inverse is folded
    along the same cosets, (g p)^-1 = p^-1 g^-1, one gather per coset.  Raises
    CapExceeded before composing a coset whose table would outgrow
    MAX_TABLE_BYTES, so at most 16 384 payloads, the identity among them,
    are ever kept, and IncompatiblePayloads before any compose unless all
    generators share one identity key (a skipped generator is never composed).
    """
    if not gens:
        raise ValueError("need at least one generator")
    ident = gens[0].identity()
    for gen in gens:
        if gen.identity().key() != ident.key():
            raise IncompatiblePayloads("%r and %r have different identities" % (gens[0], gen))
    elements: list = [ident]
    index: dict[bytes, int] = {ident.key(): 0}
    kept: list = []
    # (j, y, pos, size): elements j + t = kept[pos] . elements[y + t], t < size
    cosets: list[tuple[int, int, int, int]] = []
    # element j = kept[chain_via[j]] . elements[chain_parent[j]], a chain down to 0
    chain_parent, chain_via = [0], [0]
    left = np.zeros((0, 1), dtype=np.intp)  # left[g, j]: index of kept[g] . elements[j]
    for gen in gens:
        if gen.key() in index:
            continue
        kept.append(gen)
        size = len(elements)
        rows = {0: np.arange(size)}  # left-multiplication rows in H, per stage

        def row(target: int) -> np.ndarray:
            chain, t = [], target
            while t not in rows:
                chain.append(t)
                t = chain_parent[t]
            found = rows[t]
            for t in reversed(chain):
                found = left[chain_via[t]][found]
            rows[target] = found
            return found

        reps, blocks = [0], [[] for _ in kept]  # ``reps`` grows while it is walked
        for y in reps:
            for pos, g in enumerate(kept):
                z = g if y == 0 else g.compose(elements[y])
                j = index.setdefault(z.key(), len(elements))
                if j == len(elements):  # a new coset z H, checked before it is composed
                    check_table_bytes(j + size)
                    coset = [z] + [z.compose(h) for h in elements[1:size]]
                    index.update((coset[t].key(), j + t) for t in range(1, size))
                    elements += coset
                    chain_parent += range(y, y + size)
                    chain_via += [pos] * size
                    cosets.append((j, y, pos, size))
                    reps.append(j)
                blocks[pos].append(j - j % size + row(j % size))
        left = np.array([np.concatenate(b) for b in blocks])

    # The rows of a coset are one block, (g . p) . x = g . (p . x): the kept
    # generator's left products read along the rows of p < j, taken a chunk
    # of at most 2**16 entries at a time, so that the int32 -> intp copy of
    # the index stays small (every index is in range, so "clip" only skips
    # the bounds check and the default mode's buffering).  Once the table is
    # full, the inverse folds along the same cosets, (g . p)^-1 = p^-1 . g^-1,
    # where g^-1 is the 0 in g's left-product row.
    order, left = len(elements), left.astype(np.int32)
    mul = np.empty((order, order), dtype=np.int32)
    mul[0] = np.arange(order, dtype=np.int32)
    step = max(1, (1 << 16) // order)
    for j, y, pos, size in cosets:
        for t in range(0, size, step):
            stop = min(t + step, size)
            left[pos].take(mul[y + t:y + stop], out=mul[j + t:j + stop], mode="clip")
    inverse = np.zeros(order, dtype=np.int32)
    gen_inverse = left.argmin(axis=1)
    for j, y, pos, size in cosets:
        inverse[j:j + size] = mul[inverse[y:y + size], gen_inverse[pos]]

    return FiniteGroup(elements=tuple(elements), mul=mul,
                       generators=tuple(index[g.key()] for g in gens), inverse=inverse)


def conjugacy_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as sorted index tuples, in order of their smallest member.

    The identity class (0,) comes first.  Every element starts labelled by its
    own index, and each round takes the least label among its conjugates by
    each group generator until no label changes.  A finite set closed under
    conjugation by g is closed under g^-1 too, so each class ends labelled by
    its smallest member; a stable sort of the labels lists the classes.
    """
    conjugations = group.conjugates(group.generators, np.arange(group.order))
    labels = np.arange(group.order)
    while True:
        least = labels[conjugations].min(axis=0, initial=group.order)
        if not (least < labels).any():
            break
        np.minimum(labels, least, out=labels)
    ranked = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[ranked])) + 1
    members, bounds = ranked.tolist(), [0, *starts.tolist(), group.order]
    return tuple(tuple(members[a:b]) for a, b in zip(bounds, bounds[1:]))


def commutator_subgroup(sub: Subgroup) -> Subgroup:
    """Derived subgroup of ``sub``, inside the same parent group.

    It is generated by the commutators [a, s] = (a s a^-1) s^-1 of every
    member a with every generator s, one |H| x |S| gather.  Since [h a, s] =
    h [a, s] h^-1 . [h, s], they generate a subgroup N normal in ``sub``, and
    modulo N every generator is central, so the quotient is abelian.
    """
    group = sub.parent
    commutators = group.commutators(sub.members, sub.generating_set())
    return group.subgroup(group.subgroup_closure(commutators.ravel()))


def minimal_generators(group: FiniteGroup, members: Sequence[int]) -> tuple[int, ...]:
    """Greedy small generating set for a subgroup: each member, in order, that
    the ones kept before it do not generate."""
    closure, chosen = group._extend(members, np.arange(group.order) == 0)
    # the closure holds every member, so it is the member set when no larger
    if np.count_nonzero(closure) != len(set(members)):
        raise GroupError("member list is not closed")
    return tuple(chosen) or (0,)

