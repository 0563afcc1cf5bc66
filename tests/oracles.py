"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive: direct loops over multiplication
tables, permutation images and Fraction matrices.  The only shared substrate
with the package is the Cayley table itself, read through ``products`` and
validated against raw payload composition (test_groups) or against the
closure of the oracle payloads (test_semidirect) before anything else relies
on it, and the dihedral action rho that the order-12n^2 family's payloads
read from ``semidirect.build_action_data``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import numpy as np

from cremonalab.groups import IncompatiblePayloads


def table_of(group) -> list[list[int]]:
    """Every product of a group, tabulated or computed, as nested lists."""
    everything = np.arange(group.order)
    return group.products(everything[:, None], everything).tolist()


def inverse_row(table: list[list[int]]) -> list[int]:
    n = len(table)
    inv = [0] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == 0:
                inv[a] = b
                break
        else:
            raise AssertionError("row %d has no inverse" % a)
    return inv


def close_under_product(table: list[list[int]], seed) -> frozenset[int]:
    """Smallest subset containing the seed and the identity, closed under *.

    Closure under products alone suffices in a finite group: powers of each
    element cycle back through its inverse.
    """
    members = set(seed)
    members.add(0)
    work = list(members)
    while work:
        a = work.pop()
        for b in list(members):
            for c in (table[a][b], table[b][a]):
                if c not in members:
                    members.add(c)
                    work.append(c)
    return frozenset(members)


def cyclic_subgroups(table: list[list[int]]) -> set[frozenset[int]]:
    subs = set()
    for g in range(len(table)):
        members = {0}
        cur = g
        while cur not in members:
            members.add(cur)
            cur = table[cur][g]
        subs.add(frozenset(members))
    return subs


def element_order(group, i: int) -> int:
    """Order of element i, by walking its powers in the table to the identity."""
    n, x = 1, i
    while x != 0:
        x = int(group.mul[x, i])
        n += 1
    return n


def all_subgroups(table: list[list[int]]) -> set[frozenset[int]]:
    """Every subgroup, as the join-closure of all cyclic subgroups.

    Complete because any subgroup is the join of the cyclic subgroups of its
    own elements, and arbitrary joins are reachable through binary ones.
    """
    order: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()

    def add(s: frozenset[int]) -> None:
        if s not in seen:
            seen.add(s)
            order.append(s)

    for c in sorted(cyclic_subgroups(table), key=sorted):
        add(c)
    i = 0
    while i < len(order):
        a = order[i]
        for j in range(i):
            b = order[j]
            if a <= b or b <= a:
                continue
            add(close_under_product(table, a | b))
        i += 1
    return seen


def is_subgroup(table: list[list[int]], members) -> bool:
    mset = set(members)
    if 0 not in mset:
        return False
    return all(table[a][b] in mset for a in mset for b in mset)


def is_abelian_subset(table: list[list[int]], members) -> bool:
    ms = list(members)
    return all(table[a][b] == table[b][a] for a in ms for b in ms)


def is_normal_subset(table: list[list[int]], members) -> bool:
    mset = set(members)
    inv = inverse_row(table)
    n = len(table)
    return all(table[table[g][h]][inv[g]] in mset for g in range(n) for h in mset)


def normal_subgroups_oracle(table: list[list[int]]) -> set[frozenset[int]]:
    return {s for s in all_subgroups(table) if is_normal_subset(table, s)}


def conjugation_orbit(table: list[list[int]], seeds) -> frozenset[int]:
    """Orbit of the seeds under conjugation by every element of the group."""
    inv = inverse_row(table)
    orbit = set(seeds)
    work = list(orbit)
    while work:
        x = work.pop()
        for g in range(len(table)):
            c = table[table[g][x]][inv[g]]
            if c not in orbit:
                orbit.add(c)
                work.append(c)
    return frozenset(orbit)


def breadth_first_elements(gens) -> list:
    """Every payload of the group ``gens`` generate, recomputed naively: the
    identity, then the right product of each element found with each
    generator, breadth first."""
    ident = gens[0].identity()
    found, seen = [ident], {ident.key()}
    for x in found:  # ``found`` grows while it is walked
        for g in gens:
            y = x.compose(g)
            if y.key() not in seen:
                seen.add(y.key())
                found.append(y)
    return found


def normal_closure_oracle(table: list[list[int]], seeds) -> frozenset[int]:
    """Smallest normal subgroup containing the seeds.

    Product-closing the conjugation orbit is enough: conjugates of products
    are products of conjugates, so the result stays conjugation-stable.
    """
    return close_under_product(table, conjugation_orbit(table, seeds))


def normal_subgroups_small_closure_oracle(table: list[list[int]]) -> set[frozenset[int]]:
    """Normal closures of every subset of at most 3 non-identity elements.

    closure({a, b, c}) == closure(closure({a}) | closure({b}) | closure({c})),
    so subsets sharing that union are only closed once.
    """
    n = len(table)
    singles = {g: normal_closure_oracle(table, (g,)) for g in range(1, n)}
    found: set[frozenset[int]] = {frozenset({0})}
    memo: dict[frozenset[int], frozenset[int]] = {}
    for size in (1, 2, 3):
        for subset in combinations(range(1, n), size):
            union = frozenset().union(*(singles[g] for g in subset))
            closure = memo.get(union)
            if closure is None:
                closure = close_under_product(table, union)
                memo[union] = closure
            found.add(closure)
    return found


def product_set(table: list[list[int]], left, right) -> tuple[int, ...]:
    """Sorted products x y with x in ``left`` and y in ``right``."""
    return tuple(sorted({table[x][y] for x in left for y in right}))


def greedy_generators(table: list[list[int]], members) -> tuple[int, ...]:
    """Each member, in order, that the ones kept before it do not generate,
    re-closed from scratch after every kept one; ``(0,)`` for the trivial
    subgroup."""
    kept: list[int] = []
    closure = frozenset({0})
    for m in members:
        if m not in closure:
            kept.append(m)
            closure = close_under_product(table, kept)
    return tuple(kept) or (0,)


def normal_subgroup_lattice_oracle(group):
    """``(members, abelian flags)`` of every normal subgroup of a FiniteGroup,
    sorted by (order, members): the class closures closed under every pairwise
    product-set join, containments included, and each member's flag read off
    every pair of its members by ``is_abelian_subset``.  The reference that
    ``jordan.normal_subgroups`` must match member for member and flag for flag."""
    from cremonalab.groups import conjugacy_classes

    table = table_of(group)
    found = list(dict.fromkeys(group.subgroup_closure(cls) for cls in conjugacy_classes(group)))
    seen = set(found)
    for i, a in enumerate(found):
        for b in found[:i]:
            joined = product_set(table, a, b)
            if joined not in seen:
                seen.add(joined)
                found.append(joined)
    members = sorted(found, key=lambda m: (len(m), m))
    return members, [is_abelian_subset(table, m) for m in members]


def normal_subgroups_by_closure(group):
    """``(members, abelian flags)`` of every normal subgroup, sorted by (order,
    members), with a Dimino closure per conjugacy class and per join.

    Each class is closed on its own, none skipped; each incomparable pair of
    members is joined as the subgroup closure of the union of their seeds
    (a class, or the union of the seeds of the two members joined), and the
    flag is read off the seeds: a subgroup is abelian exactly when its
    generators commute pairwise.  The reference for ``jordan.normal_subgroups``,
    reached with no class skipped, no prime-power filter and no join started
    from a member."""
    from cremonalab.groups import conjugacy_classes

    def commute(left, right):
        return all(group.products(x, y) == group.products(y, x) for x in left for y in right)

    # members -> (member set, generating seeds, abelian)
    found: dict[tuple[int, ...], tuple[frozenset[int], tuple[int, ...], bool]] = {}
    for cls in conjugacy_classes(group):
        members = group.subgroup_closure(cls)
        if members not in found:
            found[members] = (frozenset(members), cls, commute(cls, cls))
    pending = list(found)  # grows inside the loop
    for i, a in enumerate(pending):
        a_set, a_seeds, a_abelian = found[a]
        for b in pending[:i]:
            b_set, b_seeds, b_abelian = found[b]
            if a_set <= b_set or b_set <= a_set:
                continue
            seeds = tuple(sorted(set(a_seeds) | set(b_seeds)))
            joined = group.subgroup_closure(seeds)
            if joined not in found:
                abelian = a_abelian and b_abelian and commute(a_seeds, b_seeds)
                found[joined] = (frozenset(joined), seeds, abelian)
                pending.append(joined)
    members = sorted(found, key=lambda m: (len(m), m))
    return members, [found[m][2] for m in members]


def jordan_index_oracle(table: list[list[int]]) -> int:
    n = len(table)
    best = n
    for s in normal_subgroups_oracle(table):
        if is_abelian_subset(table, s):
            best = min(best, n // len(s))
    return best


def cyclic_product(factors):
    """Z/d_1 x ... x Z/d_k as a Cayley table, without a closure search.

    Element i is its exponent vector ``np.unravel_index(i, factors)`` (first
    factor most significant), a tuple rather than a payload; generator t is
    the t-th unit vector, index 0 when d_t = 1.  The Cayley table is a fold
    of cyclic ones, one factor at a time, and the inverse of i negates each
    digit modulo its factor.  A payload-free group: ``find``
    and ``keys`` do not work on it, every other operation does.  Not naive
    itself: test_groups matches it against a closure of block cycles.
    """
    from cremonalab.groups import FiniteGroup

    factors = tuple(factors)
    mul = np.zeros((1, 1), dtype=np.int32)
    for d in factors:
        r = np.arange(d, dtype=np.int32)
        n = len(mul)
        cyclic = (r[:, None] + r) % d
        mul = ((mul * d)[:, None, :, None] + cyclic[:, None, :]).reshape(n * d, n * d)

    order = prod(factors)
    digits = np.stack(np.unravel_index(np.arange(order), factors))
    strides = order // np.cumprod(factors)
    negated = -digits % np.array(factors, dtype=np.intp).reshape(-1, 1)
    return FiniteGroup(
        elements=tuple(map(tuple, digits.T.tolist())),
        mul=mul,
        generators=tuple(int(s) if d > 1 else 0 for s, d in zip(strides, factors)),
        inverse=np.ravel_multi_index(tuple(negated), factors).astype(np.int32),
    )


# --- the order-12n^2 family as payloads ----------------------------------

def dihedral_index_product(a: int, b: int) -> int:
    """D6 product of indices rotation + 6 * reflection_bit, by composing the
    maps x -> rotation + (-1)^reflection x of Z/6 they stand for and reading
    the product's rotation and reflection back off its images of 0 and 1."""
    def images(d):
        return [(d % 6 + (-x if d >= 6 else x)) % 6 for x in range(6)]

    left, right = images(a), images(b)
    composed = [left[right[x]] for x in range(6)]
    return composed[0] + 6 * ((composed[1] - composed[0]) % 6 == 5)


@dataclass(frozen=True)
class SemidirectPair:
    """Element (vector, dihedral index) of (Z/n)^2 x| D6 as a payload, with
    (v, d) . (w, e) = (v + rho(d) w, d e) by a direct matrix-vector product
    and ``dihedral_index_product``: the reference the package's FamilyGroup
    must match, sharing only the action rho with it."""

    modulus: int
    vector: tuple[int, int]
    twist: int
    rho: tuple

    def key(self) -> bytes:
        return ("S|%d|%d,%d|%d" % (self.modulus, self.vector[0], self.vector[1], self.twist)).encode()

    def compose(self, other: "SemidirectPair") -> "SemidirectPair":
        if not isinstance(other, SemidirectPair) or other.modulus != self.modulus:
            raise IncompatiblePayloads("cannot compose %r with %r" % (self, other))
        n, m = self.modulus, self.rho[self.twist]
        moved = tuple((self.vector[i] + sum(m[i][j] * other.vector[j] for j in range(2))) % n
                      for i in range(2))
        return SemidirectPair(n, moved, dihedral_index_product(self.twist, other.twist), self.rho)

    def identity(self) -> "SemidirectPair":
        return SemidirectPair(self.modulus, (0, 0), 0, self.rho)


def family_generators(n: int) -> list[SemidirectPair]:
    """The unit translations, the rotation r and the reflection s, as payloads."""
    from cremonalab.semidirect import build_action_data

    rho = build_action_data(n).rho
    return [
        SemidirectPair(n, (1, 0), 0, rho),
        SemidirectPair(n, (0, 1), 0, rho),
        SemidirectPair(n, (0, 0), 1, rho),   # order-6 rotation
        SemidirectPair(n, (0, 0), 6, rho),   # reflection
    ]


# --- permutation and matrix arithmetic ---------------------------------

def compose_images(a, b):
    """Left-to-right application oracle: (a after b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def perm_order(images) -> int:
    n = len(images)
    cur = tuple(images)
    ident = tuple(range(n))
    k = 1
    while cur != ident:
        cur = compose_images(tuple(images), cur)
        k += 1
    return k


def matmul_mod(a, b, modulus: int):
    k = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) % modulus for j in range(k))
        for i in range(k)
    )


# --- exact linear algebra ------------------------------------------------

def frac_rref(rows, width=None):
    """Row-reduce over Fraction; returns (rref rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if width is None:
        width = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def frac_rank(rows) -> int:
    return len(frac_rref(rows)[0])


def frac_nullity(rows, width: int) -> int:
    if not rows:
        return width
    return width - frac_rank(rows)


def primitive(vec) -> tuple[int, ...]:
    """A nonzero rational vector cleared of denominators, divided by its
    content and signed so that its first nonzero entry is positive."""
    vec = [Fraction(x) for x in vec]
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def frac_kernel(rows, width: int) -> list[tuple[int, ...]]:
    """Kernel basis read off the RREF: for each free column f, the primitive
    multiple of the vector with 1 at f, 0 at the other free columns and
    -rref[r][f] at pivot r."""
    rref, pivots = frac_rref(rows, width)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][free]
        basis.append(primitive(vec))
    return basis


def frac_det(rows) -> Fraction:
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        inv = mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] / inv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return det


# Cyclotomic polynomials, highest-first coefficients, transcribed from the
# standard table rather than computed.
KNOWN_CYCLOTOMICS = {
    1: (1, -1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
    15: (1, -1, 0, 1, -1, 1, 0, -1, 1),
    24: (1, 0, 0, 0, -1, 0, 0, 0, 1),
}


# --- labeled-cycle symmetry ---------------------------------------------

def cycle_symmetries(components) -> list[tuple[str, int]]:
    """All rotations/reflections of a labeled cycle fixing it, brute force."""
    comps = list(components)
    length = len(comps)
    found = []
    for r in range(length):
        if comps[r:] + comps[:r] == comps:
            found.append(("rot", r))
    rev = comps[::-1]
    for r in range(length):
        if rev[r:] + rev[:r] == comps:
            found.append(("ref", r))
    return found


# --- blow-up words --------------------------------------------------------

def apply_word(base, word):
    """The cycle reached from ``base`` by a word of ``(kind, index)`` moves."""
    from cremonalab.pole_cycles import blow_up_node, blow_up_smooth

    cycle = base
    for kind, index in word:
        if kind == "node":
            cycle = blow_up_node(cycle, index)
        elif kind == "smooth":
            cycle = blow_up_smooth(cycle, index)
        else:
            raise ValueError("unknown move %r" % (kind,))
    return cycle


def raw_cycle_levels(lowest: int) -> dict[int, set]:
    """Every component tuple reachable at each degree from 9 down to lowest,
    as written, not up to rotation or reflection: a breadth-first search
    with its own blow-ups and Fano floor, sharing no code with
    ``pole_cycles``."""

    def fano(ring):
        return all(s >= (1 if g else -1) for s, g in ring)

    def moves(ring):
        if len(ring) == 1:  # the node of the genus-1 loop separates its branches
            yield ((ring[0][0] - 4, 0), (-1, 0))
        else:
            for i in range(len(ring)):  # the node between i and i + 1, cyclically
                j = (i + 1) % len(ring)
                cut = [(s - (k in (i, j)), g) for k, (s, g) in enumerate(ring)]
                yield tuple(cut[:i + 1] + [(-1, 0)] + cut[i + 1:])
        for i in range(len(ring)):
            yield tuple((s - (k == i), g) for k, (s, g) in enumerate(ring))

    levels = {9: {((1, 0), (1, 0), (1, 0)), ((4, 0), (1, 0)), ((9, 1),)}}
    for degree in range(8, lowest - 1, -1):
        levels[degree] = {succ for ring in levels[degree + 1] for succ in moves(ring)
                          if fano(succ)}
    return levels


def pole_cycle_walk_ends(seed: int, words_per_base: int, max_moves: int = 8):
    """``(base name, components, K^2)`` at the end of each random word, walked
    on whole ``PoleCycle`` objects: every step builds each Fano-filtered
    successor, node moves first, and draws one of them.  The reference the
    memoized walk must match word by word."""
    import random

    from cremonalab.pole_cycles import (
        base_pairs,
        blow_up_node,
        blow_up_smooth,
        satisfies_fano_bound,
    )

    ends = []
    for base in base_pairs():
        rng = random.Random("%d:%s" % (seed, base.base_name))
        for _ in range(words_per_base):
            cycle = base
            for _ in range(rng.randrange(max_moves + 1)):
                options = [blow_up_node(cycle, i) for i in range(cycle.length)]
                options += [blow_up_smooth(cycle, i) for i in range(cycle.length)]
                options = [c for c in options if satisfies_fano_bound(c)]
                if not options or cycle.k2 <= 1:
                    break
                cycle = options[rng.randrange(len(options))]
            ends.append((base.base_name, cycle.components, cycle.k2))
    return ends


# --- component selections ------------------------------------------------

def greedy_walk(model, members):
    """The orbit-by-orbit selection walked member by member, lowest fiber
    first: ``("sides", sides)``, or ``("swap", (element, fiber))`` at the
    first member that reaches a fiber on the side opposite an earlier one,
    the element being that member times the earlier one's inverse.  The
    reference ``conic_fibers.greedy_selection`` must match on any member list
    that holds the identity."""
    member_list = sorted(members)
    sides = [None] * model.fiber_count
    for f in range(model.fiber_count):
        if sides[f] is not None:
            continue
        reached = {}
        for a in member_list:
            f2, s2 = divmod(model.components[a][2 * f], 2)
            if f2 in reached and reached[f2][0] != s2:
                return "swap", (digit_quotient(model.factors, a, reached[f2][1]), f2)
            reached[f2] = (s2, a)
        for f2, (s2, _) in reached.items():
            sides[f2] = s2
    return "sides", tuple(sides)


def digit_quotient(factors, a: int, b: int) -> int:
    """a * b^-1 in Z/d_1 x ... x Z/d_k, elements in mixed radix (first factor
    most significant), by subtracting digits."""
    index, stride = 0, 1
    for d in reversed(factors):
        index += (a - b) % d * stride
        a, b, stride = a // d, b // d, stride * d
    return index
