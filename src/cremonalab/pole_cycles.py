"""Cycles of rational curves on surfaces, tracked through blow-ups.

A cycle is a closed chain of curve components on a surface of given degree
(self-intersection of the canonical class).  Two birational moves are
available: blowing up a node of the cycle and blowing up a smooth point on
one component.  Both drop the degree by one.  Enumerating all cycles
reachable at a given degree, up to rotation and reflection, yields a small
table of configurations together with their symmetry groups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "PoleCycle",
    "SymmetryGroup",
    "InvalidDegree",
    "base_pairs",
    "blow_up_node",
    "blow_up_smooth",
    "conservation_defect",
    "satisfies_fano_bound",
    "canonical_components",
    "symmetry_group",
    "enumerate_configurations",
    "max_symmetry_levels",
    "max_symmetry_by_degree",
    "configuration_rows",
    "random_word_ends",
    "conservation_violations",
    "MAX_WORD_MOVES",
]

Component = tuple[int, int]  # (self-intersection, genus)
Move = tuple[str, int]

MAX_WORD_MOVES = 8


class InvalidDegree(ValueError):
    pass


@dataclass(frozen=True)
class PoleCycle:
    components: tuple[Component, ...]
    k2: int
    base_name: str
    word: tuple[Move, ...] = ()

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("cycle needs at least one component")
        for self_int, genus in self.components:
            if genus not in (0, 1):
                raise ValueError("component genus must be 0 or 1")
        genus_total = sum(g for _, g in self.components)
        if genus_total and (genus_total != 1 or len(self.components) != 1):
            raise ValueError("a genus-1 component must be the whole cycle")
        if len(self.components) == 1 and self.components[0][1] == 0:
            raise ValueError("a one-component cycle must have genus 1")

    @property
    def length(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class SymmetryGroup:
    order: int
    kind: str


def base_pairs() -> list[PoleCycle]:
    """The three starting cycles at degree 9."""
    return [
        PoleCycle(((1, 0), (1, 0), (1, 0)), 9, "triangle"),
        PoleCycle(((4, 0), (1, 0)), 9, "conic_line"),
        PoleCycle(((9, 1),), 9, "nodal_cubic"),
    ]


def conservation_defect(cycle: PoleCycle) -> int:
    """Zero for every cycle reachable from a base pair by blow-ups."""
    total_self = sum(s for s, _ in cycle.components)
    total_genus = sum(g for _, g in cycle.components)
    return total_self - cycle.k2 + 2 * cycle.length - 2 * total_genus


def blow_up_node(cycle: PoleCycle, node: int) -> PoleCycle:
    """Blow up the intersection point between components node and node+1.

    For a one-component cycle the node is the self-crossing of the genus-1
    component; it separates into a two-component cycle.
    """
    length = cycle.length
    if not 0 <= node < length:
        raise ValueError("node index out of range")
    word = cycle.word + (("node", node),)
    if length == 1:
        self_int, genus = cycle.components[0]
        if genus != 1:
            raise ValueError("one-component cycle without a node")
        # multiplicity-2 point: self-intersection drops by 4, branches separate
        comps = ((self_int - 4, 0), (-1, 0))
        return PoleCycle(comps, cycle.k2 - 1, cycle.base_name, word)
    nxt = (node + 1) % length
    comps = list(cycle.components)
    comps[node] = (comps[node][0] - 1, comps[node][1])
    comps[nxt] = (comps[nxt][0] - 1, comps[nxt][1])
    comps.insert(node + 1, (-1, 0))
    return PoleCycle(tuple(comps), cycle.k2 - 1, cycle.base_name, word)


def blow_up_smooth(cycle: PoleCycle, comp: int) -> PoleCycle:
    """Blow up a smooth point on one component; the cycle keeps its length."""
    if not 0 <= comp < cycle.length:
        raise ValueError("component index out of range")
    comps = list(cycle.components)
    comps[comp] = (comps[comp][0] - 1, comps[comp][1])
    word = cycle.word + (("smooth", comp),)
    return PoleCycle(tuple(comps), cycle.k2 - 1, cycle.base_name, word)


def satisfies_fano_bound(cycle: PoleCycle) -> bool:
    """Ampleness floor: genus-0 components need self-intersection >= -1,
    a genus-1 component needs >= 1.  Labels only decrease under blow-ups,
    so a failing cycle can be pruned permanently."""
    for self_int, genus in cycle.components:
        if self_int < (1 if genus else -1):
            return False
    return True


def _dihedral_images(components: tuple[Component, ...]) -> Iterator[tuple[Component, ...]]:
    """The len(components) rotations of the ring, then those of its reversal."""
    for seq in (components, components[::-1]):
        for shift in range(len(seq)):
            yield seq[shift:] + seq[:shift]


def canonical_components(components: tuple[Component, ...]) -> tuple[Component, ...]:
    """Least rotation/reflection representative of the component tuple."""
    return min(_dihedral_images(components))


def symmetry_group(cycle: PoleCycle) -> SymmetryGroup:
    """Symmetry of the labeled cycle inside the dihedral group of the ring.

    The dihedral count already includes the node swaps of short rings: the
    reversal of one component exchanges its two self-crossing branches, and
    that of two components their two intersection points.
    """
    comps = cycle.components
    length = len(comps)
    fixed = [image == comps for image in _dihedral_images(comps)]
    rotations = sum(fixed[:length])
    reflects = any(fixed[length:])
    order = rotations * (2 if reflects else 1)
    if order == 1:
        return SymmetryGroup(1, "trivial")
    if order == 2:
        return SymmetryGroup(2, "c2")
    if reflects:
        if rotations == 2:
            return SymmetryGroup(4, "klein4")
        return SymmetryGroup(order, "dihedral(%d)" % rotations)
    return SymmetryGroup(order, "cyclic(%d)" % rotations)


def _successors(cycle: PoleCycle) -> Iterator[PoleCycle]:
    for i in range(cycle.length):
        yield blow_up_node(cycle, i)
    for i in range(cycle.length):
        yield blow_up_smooth(cycle, i)


def _conserved(frontier: dict[tuple[Component, ...], PoleCycle]) -> dict[tuple[Component, ...], PoleCycle]:
    """frontier, once Prop 4.4's conservation law holds on each witness in
    it; else RuntimeError names the first class breaking it and the defect."""
    for key, cycle in frontier.items():
        if defect := conservation_defect(cycle):
            raise RuntimeError("conservation defect %d on the degree-%d class %r" % (defect, cycle.k2, key))
    return frontier


def _levels(degrees: Iterable[int]) -> Iterator[tuple[int, dict[tuple[Component, ...], PoleCycle]]]:
    """``(degree, frontier)`` for each given degree, highest first, in one walk
    down from degree 9.  The frontier maps each canonical component tuple to
    its witness, the first cycle found when bases are taken in their listed
    order and moves node-first in component order, so reruns are
    byte-identical and every witness word replays from its base pair."""
    wanted = set(degrees)
    for degree in wanted:
        if not 1 <= degree <= 8:
            raise InvalidDegree("degree must be between 1 and 8, got %r" % (degree,))
    frontier = _conserved({canonical_components(base.components): base for base in base_pairs()})
    for degree in range(8, min(wanted, default=9) - 1, -1):
        new_frontier: dict[tuple[Component, ...], PoleCycle] = {}
        for key in sorted(frontier):
            for succ in _successors(frontier[key]):
                if not satisfies_fano_bound(succ):
                    continue
                new_frontier.setdefault(canonical_components(succ.components), succ)
        frontier = _conserved(new_frontier)
        if degree in wanted:
            yield degree, frontier


def enumerate_configurations(degree: int) -> list[tuple[PoleCycle, SymmetryGroup]]:
    """All cycles reachable at the given degree, one witness per canonical
    class, in canonical order."""
    ((_, frontier),) = _levels((degree,))
    return [(frontier[key], symmetry_group(frontier[key])) for key in sorted(frontier)]


def max_symmetry_levels(degrees: Iterable[int]) -> Iterator[tuple[int, int]]:
    """``(degree, largest symmetry order)`` for each given degree, highest
    first, each yielded as soon as the walk down reaches its level."""
    for degree, frontier in _levels(degrees):
        yield degree, max(symmetry_group(cycle).order for cycle in frontier.values())


def max_symmetry_by_degree(degrees: Iterable[int] = range(1, 7)) -> dict[int, int]:
    """Largest symmetry order occurring at each given degree (default 1 to 6)."""
    degrees = list(degrees)
    found = dict(max_symmetry_levels(degrees))
    return {degree: found[degree] for degree in degrees}


def configuration_rows(degree: int) -> list[dict]:
    rows = []
    for cycle, sym in enumerate_configurations(degree):
        rows.append(
            {
                "labels": [s for s, _ in cycle.components],
                "genus": [g for _, g in cycle.components],
                "K2": cycle.k2,
                "symmetry_order": sym.order,
                "symmetry_kind": sym.kind,
                "witness_base": cycle.base_name,
                "witness_word": [[kind, index] for kind, index in cycle.word],
            }
        )
    return rows


def random_word_ends(seed: int, words_per_base: int) -> Iterator[tuple[str, tuple[Component, ...], int]]:
    """``(base name, components, K^2)`` at the end of each random word.

    Each base pair gets its own derived random stream, so adding bases or
    changing word counts for one base never disturbs the others.  A word
    takes up to MAX_WORD_MOVES moves, each drawn uniformly from the
    Fano-filtered successors (node moves first, then smooth moves), and
    stops early at K^2 = 1 or when no successor survives the filter.  The
    successors depend only on the component tuple, so each tuple's are
    built once per call from real blow-ups and looked up after that.
    """
    successors: dict[tuple[Component, ...], tuple[tuple[Component, ...], ...]] = {}
    for base in base_pairs():
        rng = random.Random("%d:%s" % (seed, base.base_name))
        for _ in range(words_per_base):
            components, k2 = base.components, base.k2
            for _ in range(rng.randrange(MAX_WORD_MOVES + 1)):
                options = successors.get(components)
                if options is None:
                    cycle = PoleCycle(components, k2, base.base_name)
                    options = successors[components] = tuple(
                        c.components for c in _successors(cycle) if satisfies_fano_bound(c)
                    )
                if not options or k2 <= 1:
                    break
                components = options[rng.randrange(len(options))]
                k2 -= 1
            yield base.base_name, components, k2


def conservation_violations(seed: int, words_per_base: int) -> dict[str, int]:
    """Count conservation-law violations over random words, per base pair.

    Many words end at the same cycle, so each distinct end is checked once,
    in the order first reached, and counted once per word that ends there.
    """
    out = {base.base_name: 0 for base in base_pairs()}
    words: dict[tuple[str, tuple[Component, ...], int], int] = {}
    for end in random_word_ends(seed, words_per_base):
        words[end] = words.get(end, 0) + 1
    for (name, components, k2), count in words.items():
        if conservation_defect(PoleCycle(components, k2, name)) != 0:
            out[name] += count
    return out
