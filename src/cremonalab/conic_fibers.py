"""Component selections for abelian actions on fibered surfaces.

The model: a surface fibered over a base, with ``fiber_count`` chosen fibers
each split into two components (a pair of lines).  An abelian group acts so
that fibers map to fibers and pairs map to pairs; marked fibers are fixed by
every generator.  Contracting one component in each fiber equivariantly
requires a selection of components that the group preserves, which fails
exactly when some element fixes a fiber while exchanging its two components.

The main construction finds a bounded-index subgroup that does admit a
selection; a seeded simulation measures how the achieved index compares with
the elementary-abelian 2-rank bound across random models.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd, lcm, prod
from typing import Iterable, Sequence

__all__ = [
    "AbelianType",
    "FiberActionModel",
    "ComponentSelection",
    "NoSwapConstruction",
    "ModelError",
    "SwapFailure",
    "BASE_ORDER_BOUND",
    "FAMILY_REPRESENTATIVES",
    "make_model",
    "greedy_selection",
    "swap_scan",
    "selection_invariant",
    "construct_no_swap_subgroup",
    "random_model",
    "simulate",
    "swap_index_factor",
    "weak_geometric_constant",
]

# order bound for the image of the action on the base and on a smooth fiber
BASE_ORDER_BOUND = 288

# admissible abelian types with the largest 2-rank each family allows
FAMILY_REPRESENTATIVES = (
    (2, 2),
    (2, 2, 2),
    (2, 4, 4),
    (3, 3, 3),
    (2, 2, 2, 2),
)


class ModelError(ValueError):
    pass


class SwapFailure(RuntimeError):
    def __init__(self, element: int, fiber: int):
        super().__init__("element %d swaps the components of fiber %d" % (element, fiber))
        self.element = element
        self.fiber = fiber


@dataclass(frozen=True)
class AbelianType:
    """Abelian group type in invariant-factor form (each factor divides the next)."""

    invariant_factors: tuple[int, ...]

    @staticmethod
    def from_factors(factors: Iterable[int]) -> "AbelianType":
        lst = [int(d) for d in factors]
        if any(d < 1 for d in lst):
            raise ValueError("factors must be positive")
        changed = True
        while changed:
            changed = False
            for i in range(len(lst)):
                for j in range(i + 1, len(lst)):
                    if lst[j] % lst[i] != 0:
                        g = gcd(lst[i], lst[j])
                        lst[i], lst[j] = g, lst[i] * lst[j] // g
                        changed = True
        lst = [d for d in lst if d > 1]
        lst.sort()
        return AbelianType(tuple(lst))

    @property
    def two_rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d % 2 == 0)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def is_admissible(self) -> bool:
        """Whether the type occurs for an abelian action on a fibered surface.

        Rank at most two is always possible; in rank three only (2,2,2n),
        (2,4,4) and (3,3,3); in rank four only (2,2,2,2).
        """
        f = self.invariant_factors
        if len(f) <= 2:
            return True
        if len(f) == 3:
            if f[0] == 2 and f[1] == 2 and f[2] % 2 == 0:
                return True
            return f in ((2, 4, 4), (3, 3, 3))
        if len(f) == 4:
            return f == (2, 2, 2, 2)
        return False


@dataclass
class FiberActionModel:
    """Z/d_1 x ... x Z/d_k acting on the split fibers over a fibered base.

    Element e of the group is its exponent vector, the digits of e in mixed
    radix over ``factors`` (first factor most significant).  ``gen_perms``
    gives each generator's permutation of the 2 * fiber_count components,
    component ``2f + s`` being side ``s`` of fiber ``f``; ``components[e]`` is
    element e's permutation of them and ``element_orders[e]`` its order in
    the group.  ``base_order`` is the order of the cyclic group the
    generators induce on the fibers.
    """

    factors: tuple[int, ...]
    abelian_type: AbelianType
    fiber_count: int
    marked: tuple[int, ...]
    gen_perms: tuple[tuple[int, ...], ...]
    base_order: int
    components: tuple[tuple[int, ...], ...] = field(repr=False)
    element_orders: tuple[int, ...] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.components)


def _fiber_row(components: tuple[int, ...]) -> tuple[int, ...]:
    """The fiber permutation a component permutation induces."""
    return tuple([c // 2 for c in components[::2]])


def _cycle_lcm(perm: tuple[int, ...]) -> int:
    """Order of a permutation: the lcm of its cycle lengths."""
    seen = [False] * len(perm)
    order = 1
    for start in range(len(perm)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            order = lcm(order, length)
    return order


def make_model(
    factors: Sequence[int],
    fiber_count: int,
    marked: Sequence[int],
    gen_perms: Sequence[Sequence[int]],
) -> FiberActionModel:
    """Validate and assemble a fiber action model.

    Checks that every generator permutation preserves the fiber pairing,
    fixes the marked fibers, commutes with the others, has order dividing
    its cyclic factor, and that the induced action on fibers is cyclic.
    """
    factors = tuple(int(d) for d in factors)
    if not factors or any(d < 1 for d in factors):
        raise ModelError("factors must be positive integers")
    order = prod(factors)
    if order > 4096:
        raise ModelError("group order %d too large for the model" % order)
    if fiber_count < 1:
        raise ModelError("need at least one fiber")
    marked = tuple(sorted(set(int(f) for f in marked)))
    if marked and not (0 <= marked[0] and marked[-1] < fiber_count):
        raise ModelError("marked fiber out of range")
    if len(marked) > 2:
        raise ModelError("at most two fibers may be marked")
    perms = tuple(tuple(int(x) for x in p) for p in gen_perms)
    if len(perms) != len(factors):
        raise ModelError("one component permutation per factor required")

    width = 2 * fiber_count
    for gi, perm in enumerate(perms):
        if sorted(perm) != list(range(width)):
            raise ModelError("generator %d is not a permutation of components" % gi)
        for f in range(fiber_count):
            if perm[2 * f] // 2 != perm[2 * f + 1] // 2:
                raise ModelError("generator %d breaks the pairing at fiber %d" % (gi, f))
        for f in marked:
            if perm[2 * f] // 2 != f:
                raise ModelError("generator %d moves marked fiber %d" % (gi, f))
    # Row e of the component table is the product of the generator powers
    # named by the digits of e, folded in mixed-radix order; the order of e
    # is folded beside it, digit k of Z/d having order d / gcd(k, d).
    # perm^d is the identity exactly when perm's order divides d.
    identity = tuple(range(width))
    components = (identity,)
    orders = (1,)
    for gi, (d, perm) in enumerate(zip(factors, perms)):
        powers = [identity]
        for _ in range(d):
            powers.append(tuple(map(perm.__getitem__, powers[-1])))
        if powers.pop() != identity:
            raise ModelError("generator %d has component order not dividing %d" % (gi, d))
        components = tuple(
            [tuple(map(power.__getitem__, row)) for row in components for power in powers]
        )
        orders = tuple([lcm(o, d // gcd(k, d)) for o in orders for k in range(d)])
    for i, pi in enumerate(perms):
        for j in range(i + 1, len(perms)):
            pj = perms[j]
            if tuple(map(pi.__getitem__, pj)) != tuple(map(pj.__getitem__, pi)):
                raise ModelError("generators %d and %d do not commute" % (i, j))

    # The fiber rows of the component table are the whole induced action,
    # and a cyclic group has an element whose order is the group order.
    fiber_rows = {_fiber_row(row) for row in components}
    base_order = len(fiber_rows)
    if all(_cycle_lcm(row) != base_order for row in fiber_rows):
        raise ModelError("induced fiber action is not cyclic")

    return FiberActionModel(
        factors=factors,
        abelian_type=AbelianType.from_factors(factors),
        fiber_count=fiber_count,
        marked=marked,
        gen_perms=perms,
        base_order=base_order,
        components=components,
        element_orders=orders,
    )


@dataclass(frozen=True)
class ComponentSelection:
    sides: tuple[int, ...]

    def components(self) -> tuple[int, ...]:
        return tuple(2 * f + s for f, s in enumerate(self.sides))


def greedy_selection(model: FiberActionModel, members: Sequence[int]) -> ComponentSelection:
    """Build an invariant selection orbit by orbit, lowest fiber first.

    Each uncovered fiber is seeded on side 0 and its whole orbit under the
    subgroup is assigned at once.  Raises SwapFailure with a witness element
    when an orbit reaches both components of one fiber, which is exactly
    when no invariant selection exists for that subgroup.
    """
    member_list = sorted(int(m) for m in members)
    if member_list[:1] != [0] or member_list[-1] >= model.order:
        raise ModelError("members must hold the identity 0 and lie in range(%d)" % model.order)
    sides: list[int | None] = [None] * model.fiber_count
    for f in range(model.fiber_count):
        if sides[f] is not None:
            continue
        reached: dict[int, tuple[int, int]] = {}
        for a in member_list:
            image = model.components[a][2 * f]
            f2, s2 = divmod(image, 2)
            if f2 in reached and reached[f2][0] != s2:
                raise SwapFailure(_quotient(model.factors, a, reached[f2][1]), f2)
            reached[f2] = (s2, a)
        for f2, (s2, _) in reached.items():
            sides[f2] = s2
    return ComponentSelection(tuple(int(s) for s in sides))


def _quotient(factors: tuple[int, ...], a: int, b: int) -> int:
    """The element a * b^-1: the digits of a minus those of b, mod each factor."""
    index, stride = 0, 1
    for d in reversed(factors):
        index += (a - b) % d * stride
        a, b, stride = a // d, b // d, stride * d
    return index


def swap_scan(model: FiberActionModel, members: Sequence[int]) -> tuple[int, int] | None:
    """Exhaustive oracle: first (element, fiber) pair where a member fixes a
    fiber and exchanges its components, or None."""
    for a in sorted(int(m) for m in members):
        perm = model.components[a]
        for f in range(model.fiber_count):
            if perm[2 * f] == 2 * f + 1:
                return (a, f)
    return None


def selection_invariant(
    model: FiberActionModel, members: Sequence[int], selection: ComponentSelection
) -> bool:
    chosen = set(selection.components())
    for a in members:
        if {model.components[a][x] for x in chosen} != chosen:
            return False
    return True


@dataclass(frozen=True)
class NoSwapConstruction:
    members: tuple[int, ...]
    index: int
    clean_lift: bool
    lift_generator: int | None
    rank_bound: int
    selection: ComponentSelection


def construct_no_swap_subgroup(model: FiberActionModel) -> NoSwapConstruction:
    """Bounded-index subgroup admitting an invariant component selection.

    The recipe: drop to the kernel of the marked swaps, split off the
    swap-free part of the fiber stabilizer, then look for one element whose
    order equals the base image order both as a group element and on fibers.
    That element together with the swap-free part generates the subgroup,
    read off the table as every element acting by a power of the lift;
    when no such element exists the swap-free part alone is returned without
    a clean lift, since the index may then exceed the 2-rank bound.  The
    returned subgroup always admits a selection.
    """
    rows = model.components
    marked_sides = [2 * f for f in model.marked]

    # a0: no marked fiber swapped.  The swap-free part of the fiber
    # stabilizer (every fiber fixed, none swapped; marked fibers are fixed by
    # every element) fixes every component: it is the kernel of the component
    # action, the rows equal to the identity row 0, and already a subgroup.
    a0 = [m for m, row in enumerate(rows) if all(row[c] != c + 1 for c in marked_sides)]
    kernel = tuple(m for m, row in enumerate(rows) if row == rows[0])

    # The base is cyclic, so an element's fiber order equals |base| exactly
    # when its fiber permutation generates the base.
    lift = None
    for m in a0:
        if _cycle_lcm(_fiber_row(rows[m])) == model.base_order == model.element_orders[m]:
            lift = m
            break

    # The kernel is that of the action e -> rows[e], so <kernel, lift> is the
    # preimage of the cyclic group the lift's row generates.
    members = kernel
    if lift is not None:
        powers, power = {rows[0]}, rows[lift]
        while power not in powers:
            powers.add(power)
            power = tuple(map(rows[lift].__getitem__, power))
        members = tuple(m for m, row in enumerate(rows) if row in powers)
        try:
            selection = greedy_selection(model, members)
        except SwapFailure:
            lift, members = None, kernel
    if lift is None:
        selection = greedy_selection(model, members)

    return NoSwapConstruction(
        members=members,
        index=len(rows) // len(members),
        clean_lift=lift is not None,
        lift_generator=lift,
        rank_bound=2 ** model.abelian_type.two_rank,
        selection=selection,
    )


def random_model(seed: int, trial: int) -> FiberActionModel:
    """Deterministic random model for one simulation trial.

    Trials cycle through five abelian families.  One designated generator
    acts on the unmarked fibers by free cycles with twist bits; the other
    generators act only by component swaps constant on those cycles, which
    keeps everything commuting and the induced fiber action cyclic.  The
    designated generator never swaps a marked fiber and its twist parity is
    forced even unless twice the cycle length divides its factor, so a clean
    lift exists by construction.
    """
    rng = random.Random("%d:%d" % (seed, trial))
    family = trial % 5
    if family == 0:
        m = rng.randint(2, 8)
        n = rng.randint(1, 8)
        factors = tuple(d for d in (m, n) if d > 1)
    elif family == 1:
        factors = (2, 2, 2 * rng.randint(1, 4))
    elif family == 2:
        factors = (2, 4, 4)
    elif family == 3:
        factors = (3, 3, 3)
    else:
        factors = (2, 2, 2, 2)

    fiber_count = rng.randint(1, 6)
    marked_count = rng.randint(0, min(2, fiber_count))
    marked = tuple(sorted(rng.sample(range(fiber_count), marked_count)))
    unmarked = [f for f in range(fiber_count) if f not in marked]

    j = rng.randrange(len(factors))
    dj = factors[j]
    if unmarked:
        candidates = [
            c
            for c in range(1, dj + 1)
            if dj % c == 0 and gcd(c, dj // c) == 1 and len(unmarked) % c == 0
        ]
        nontrivial = [c for c in candidates if c > 1]
        c = rng.choice(nontrivial) if nontrivial else 1
    else:
        c = 1

    width = 2 * fiber_count
    perms: list[list[int]] = [list(range(width)) for _ in factors]

    order_fibers = unmarked[:]
    rng.shuffle(order_fibers)
    orbits = [order_fibers[i : i + c] for i in range(0, len(order_fibers), c)]
    for orbit in orbits:
        twists = [rng.randint(0, 1) for _ in range(len(orbit))]
        if dj % (2 * c) != 0:
            twists[-1] = sum(twists[:-1]) % 2
        for i, f in enumerate(orbit):
            nxt = orbit[(i + 1) % len(orbit)]
            delta = twists[i]
            perms[j][2 * f] = 2 * nxt + delta
            perms[j][2 * f + 1] = 2 * nxt + (1 - delta)

    for gi, d in enumerate(factors):
        if gi == j or d % 2 != 0:
            continue
        for orbit in orbits:
            if rng.randint(0, 1):
                for f in orbit:
                    perms[gi][2 * f] = 2 * f + 1
                    perms[gi][2 * f + 1] = 2 * f
        for f in marked:
            if rng.randint(0, 1):
                perms[gi][2 * f] = 2 * f + 1
                perms[gi][2 * f + 1] = 2 * f

    return make_model(factors, fiber_count, marked, perms)


def simulate(seed: int, trials: int) -> dict:
    """Run the construction across random models and tally the outcomes.

    Every trial also cross-checks the greedy selection against the
    exhaustive swap scan and the invariance oracle, so a zero failure count
    means the three routes agree.
    """
    greedy_failures = 0
    invariance_failures = 0
    scan_disagreements = 0
    bound_violations = 0
    no_clean_lift = 0
    inadmissible = 0
    max_index = 0
    index_histogram: dict[int, int] = {}
    for t in range(trials):
        model = random_model(seed, t)
        if not model.abelian_type.is_admissible():
            inadmissible += 1
        try:
            cons = construct_no_swap_subgroup(model)
        except SwapFailure:
            greedy_failures += 1
            continue
        if swap_scan(model, cons.members) is not None:
            scan_disagreements += 1
        if not selection_invariant(model, cons.members, cons.selection):
            invariance_failures += 1
        if not cons.clean_lift:
            no_clean_lift += 1
        if cons.index > cons.rank_bound:
            bound_violations += 1
        max_index = max(max_index, cons.index)
        index_histogram[cons.index] = index_histogram.get(cons.index, 0) + 1
    return {
        "trials": trials,
        "seed": seed,
        "greedy_failures": greedy_failures,
        "invariance_failures": invariance_failures,
        "scan_disagreements": scan_disagreements,
        "bound_violations": bound_violations,
        "no_clean_lift": no_clean_lift,
        "inadmissible": inadmissible,
        "max_index": max_index,
        "index_histogram": {str(k): v for k, v in sorted(index_histogram.items())},
    }


def swap_index_factor() -> int:
    """Largest index the construction can cost over the admissible types."""
    worst = 1
    for rep in FAMILY_REPRESENTATIVES:
        typ = AbelianType.from_factors(rep)
        if not typ.is_admissible():
            raise RuntimeError("family representative %r is not admissible" % (rep,))
        worst = max(worst, 2 ** typ.two_rank)
    return worst


def weak_geometric_constant() -> int:
    """Order bound for the whole fibered action: base and fiber image bound
    times the worst selection index."""
    return BASE_ORDER_BOUND * swap_index_factor()
