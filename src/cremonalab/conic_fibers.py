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

import marshal
import operator
import os
import random
import struct
import time
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import lru_cache
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
    "MAX_FIBERS",
    "MAX_MODEL_ORDER",
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

# component rows are bytes, so a model has at most 256 components
MAX_FIBERS = 128
# a model lists one component row per group element
MAX_MODEL_ORDER = 4096

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
        lst = list(_integers(factors, "factors"))
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
    element e's permutation of them as ``bytes`` (one image per byte).
    ``base_order`` is the order of the cyclic group the generators induce on
    the fibers.
    """

    factors: tuple[int, ...]
    abelian_type: AbelianType
    fiber_count: int
    marked: tuple[int, ...]
    gen_perms: tuple[tuple[int, ...], ...]
    base_order: int
    components: tuple[bytes, ...] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.components)


_BYTES = bytes(range(256))
_HALF = bytes(c // 2 for c in range(256))


def _after(perm: bytes) -> bytes:
    """The translate table of perm: ``row.translate(_after(perm))[x]`` is
    ``perm[row[x]]``, the composite perm after row."""
    return perm + _BYTES[len(perm):]


def _fiber_row(components: bytes) -> bytes:
    """The fiber permutation a component permutation induces.  Rows have
    even length, so of a blob of rows this is the blob of their fiber rows."""
    return components[::2].translate(_HALF)


def _split(blob: bytes, width: int) -> tuple[bytes, ...]:
    """The consecutive rows of ``width`` bytes that make up blob, cut by one
    compiled struct."""
    return _cutter(width, len(blob) // width)(blob)


# Generator rows, fiber rows, factor tuples and row shapes repeat from model
# to model (2000 random models hold about 600 distinct rows, 63 factor tuples
# and 244 shapes, and random models have 270 shapes in all, more than the
# 100 formats the struct module keeps).  Every cache is bounded, so a long
# run keeps them at a constant size.
@lru_cache(maxsize=512)
def _cutter(width: int, count: int):
    """The unpack of count consecutive rows of width bytes each."""
    return struct.Struct("%ds" % width * count).unpack


@lru_cache(maxsize=1024)
def _cycle_lcm(perm: bytes) -> int:
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


def _element_order(factors: tuple[int, ...], e: int) -> int:
    """Order of element e: the lcm over its digits k of d / gcd(k, d)."""
    order = 1
    for d in reversed(factors):
        e, k = divmod(e, d)
        order = lcm(order, d // gcd(k, d))
    return order


@lru_cache(maxsize=256)
def _abelian_type(factors: tuple[int, ...]) -> AbelianType:
    return AbelianType.from_factors(factors)


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as ints, refused with ModelError unless each is an integer
    (so 2.5 is not read as 2)."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ModelError("%s must be integers" % what) from None


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
    factors = _integers(factors, "factors")
    if not factors or min(factors) < 1:
        raise ModelError("factors must be positive integers")
    order = prod(factors)
    if order > MAX_MODEL_ORDER:
        raise ModelError("group order %d over MAX_MODEL_ORDER=%d" % (order, MAX_MODEL_ORDER))
    (fiber_count,) = _integers((fiber_count,), "fiber_count")
    if fiber_count < 1:
        raise ModelError("need at least one fiber")
    if fiber_count > MAX_FIBERS:
        raise ModelError("at most %d fibers, got %d" % (MAX_FIBERS, fiber_count))
    marked = tuple(sorted(set(_integers(marked, "marked fibers"))))
    if marked and not (0 <= marked[0] and marked[-1] < fiber_count):
        raise ModelError("marked fiber out of range")
    if len(marked) > 2:
        raise ModelError("at most two fibers may be marked")
    perms = tuple(_integers(p, "permutation entries") for p in gen_perms)
    if len(perms) != len(factors):
        raise ModelError("one component permutation per factor required")

    width = 2 * fiber_count
    identity = _BYTES[:width]
    gens = []
    for gi, perm in enumerate(perms):
        try:
            row = bytes(perm)
        except ValueError:  # an entry outside range(256)
            row = b""
        # width entries that cover every component are a permutation of them
        if len(row) != width or identity.translate(None, row):
            raise ModelError("generator %d is not a permutation of components" % gi)
        if row[::2].translate(_HALF) != row[1::2].translate(_HALF):
            f = next(f for f in range(fiber_count) if row[2 * f] // 2 != row[2 * f + 1] // 2)
            raise ModelError("generator %d breaks the pairing at fiber %d" % (gi, f))
        for f in marked:
            if row[2 * f] // 2 != f:
                raise ModelError("generator %d moves marked fiber %d" % (gi, f))
        gens.append(row)
    # perm^d is the identity exactly when perm's order divides d
    for gi, (d, row) in enumerate(zip(factors, gens)):
        if d % _cycle_lcm(row):
            raise ModelError("generator %d has component order not dividing %d" % (gi, d))
    steps = list(map(_after, gens))
    for i, gi in enumerate(gens):
        for j in range(i + 1, len(gens)):
            if gens[j].translate(steps[i]) != gi.translate(steps[j]):
                raise ModelError("generators %d and %d do not commute" % (i, j))

    # Row e of the component table is the product of the generator powers
    # named by the digits of e, and the table is one blob of rows.  Folding
    # from the last factor, the rows so far are those of the digits after
    # factor i; block k applies generator i after each row of block k - 1,
    # one translate for all of them, so it holds digit k of factor i.  The
    # generators commute, so the order of the product does not matter.
    blob = identity
    for d, step in zip(reversed(factors), reversed(steps)):
        blocks = [blob]
        for _ in range(d - 1):
            blocks.append(blocks[-1].translate(step))
        blob = b"".join(blocks)

    # The fiber rows of the component table are the whole induced action,
    # and a cyclic group has an element whose order is the group order.
    fiber_rows = set(_split(_fiber_row(blob), fiber_count))
    base_order = len(fiber_rows)
    if all(_cycle_lcm(row) != base_order for row in fiber_rows):
        raise ModelError("induced fiber action is not cyclic")

    return FiberActionModel(
        factors=factors,
        abelian_type=_abelian_type(factors),
        fiber_count=fiber_count,
        marked=marked,
        gen_perms=perms,
        base_order=base_order,
        components=_split(blob, width),
    )


@dataclass(frozen=True)
class ComponentSelection:
    sides: tuple[int, ...]

    def components(self) -> tuple[int, ...]:
        return tuple(2 * f + s for f, s in enumerate(self.sides))


def _member_list(model: FiberActionModel, members: Iterable[int]) -> list[int]:
    """Sorted members, refused with ModelError unless they hold the identity 0
    and every one is an element of the model's group."""
    member_list = sorted(_integers(members, "members"))
    if member_list[:1] != [0] or member_list[-1] >= model.order:
        raise ModelError("members must hold the identity 0 and lie in range(%d)" % model.order)
    return member_list


def greedy_selection(model: FiberActionModel, members: Sequence[int]) -> ComponentSelection:
    """Build an invariant selection orbit by orbit, lowest fiber first.

    Each uncovered fiber is seeded on side 0 and its whole orbit under the
    subgroup is assigned at once.  Raises SwapFailure with a witness element
    when an orbit reaches both components of one fiber, which is exactly
    when no invariant selection exists for that subgroup.
    """
    return _greedy(model, _member_list(model, members))


def _greedy(model: FiberActionModel, member_list: list[int]) -> ComponentSelection:
    """``greedy_selection`` on sorted members already checked."""
    width = 2 * model.fiber_count
    images = b"".join([model.components[a] for a in member_list])
    sides: list[int | None] = [None] * model.fiber_count
    for f in range(model.fiber_count):
        if sides[f] is not None:
            continue
        # the image of component 2f under each member, in member order
        column = images[2 * f::width]
        reached = set(column)
        if len(reached) != len(set(column.translate(_HALF))):
            # some fiber is reached on both sides: the witness is the first
            # member that reaches one opposite the latest earlier member
            side_by: dict[int, tuple[int, int]] = {}
            for a, image in zip(member_list, column):
                f2, s2 = divmod(image, 2)
                if f2 in side_by and side_by[f2][0] != s2:
                    raise SwapFailure(_quotient(model.factors, a, side_by[f2][1]), f2)
                side_by[f2] = (s2, a)
        for c in reached:
            sides[c >> 1] = c & 1
    return ComponentSelection(tuple(sides))


def _quotient(factors: tuple[int, ...], a: int, b: int) -> int:
    """The element a * b^-1: the digits of a minus those of b, mod each factor."""
    index, stride = 0, 1
    for d in reversed(factors):
        index += (a - b) % d * stride
        a, b, stride = a // d, b // d, stride * d
    return index


def swap_scan(model: FiberActionModel, members: Sequence[int]) -> tuple[int, int] | None:
    """Exhaustive oracle: first (element, fiber) pair where a member fixes a
    fiber and exchanges its components, or None.  Members are checked as in
    ``greedy_selection``."""
    for a in _member_list(model, members):
        perm = model.components[a]
        for f in range(model.fiber_count):
            if perm[2 * f] == 2 * f + 1:
                return (a, f)
    return None


def selection_invariant(
    model: FiberActionModel, members: Sequence[int], selection: ComponentSelection
) -> bool:
    """Every member maps the selected components onto themselves; members are
    checked as in ``greedy_selection``, and the selection must give side 0 or
    1 for each fiber.  A member is a bijection, so it maps the selection onto
    itself exactly when it keeps the selection's marks: ``marks[row[x]] ==
    marks[x]`` for every component x, one translate for all member rows."""
    member_list = _member_list(model, members)
    sides = _integers(selection.sides, "selection sides")
    if len(sides) != model.fiber_count or not set(sides) <= {0, 1}:
        raise ModelError("selection must give side 0 or 1 for each of the %d fibers"
                         % model.fiber_count)
    marks = bytes([mark for s in sides for mark in (1 - s, s)])
    images = b"".join([model.components[a] for a in member_list])
    return images.translate(marks + bytes(256 - len(marks))) == marks * len(member_list)


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
    identity = rows[0]
    marked_sides = [2 * f for f in model.marked]

    # The lift is the first element of a0 (no marked fiber swapped) whose
    # fiber order and own order equal |base|; the scan stops there, after
    # under three rows on average for random models.  The base is cyclic, so
    # an element's fiber order equals |base| exactly when its fiber
    # permutation generates the base.  The cheapest test comes first.
    base_order = model.base_order
    lift = None
    for m, row in enumerate(rows):
        if (_cycle_lcm(_fiber_row(row)) == base_order
                and all(row[c] != c + 1 for c in marked_sides)
                and _element_order(model.factors, m) == base_order):
            lift = m
            break

    # The swap-free part of the fiber stabilizer (every fiber fixed, none
    # swapped; marked fibers are fixed by every element) fixes every
    # component: it is the kernel of the component action, the rows equal to
    # the identity row 0, and already a subgroup.  So <kernel, lift> is the
    # preimage of the cyclic group the lift's row generates.
    if lift is not None:
        powers, power, step = {identity}, rows[lift], _after(rows[lift])
        while power not in powers:
            powers.add(power)
            power = power.translate(step)
        members = [m for m, row in enumerate(rows) if row in powers]
        try:
            selection = _greedy(model, members)
        except SwapFailure:
            lift = None
    if lift is None:
        members = [m for m, row in enumerate(rows) if row == identity]
        selection = _greedy(model, members)

    return NoSwapConstruction(
        members=tuple(members),
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
        nontrivial = [
            c
            for c in range(2, dj + 1)
            if dj % c == 0 and gcd(c, dj // c) == 1 and len(unmarked) % c == 0
        ]
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


# Outcome counters of a simulation, in the order its result lists them.
_COUNTERS = ("greedy_failures", "invariance_failures", "scan_disagreements",
             "bound_violations", "no_clean_lift", "inadmissible")

# Fewest trials worth a process of their own: a simulation forks no more
# children than leave every process this many trials.  A fork, a child
# sending an empty tally and its reaping take 2.2-2.8 ms with numpy loaded,
# the time of 20-27 trials, on a 2-vCPU x86-64 host
# (BENCH_conic_parallel.json); 128 leaves margin for the child's
# copy-on-write faults.
MIN_TRIALS_PER_CHUNK = 128

# Fewest trials in a block, the unit of work a process claims.  A claim
# reads one block number, one byte, from a pipe, so there are at most
# MAX_BLOCKS blocks.
MIN_BLOCK_TRIALS = 8
MAX_BLOCKS = 255


def _tally(seed: int, start: int, stop: int) -> dict:
    """The tally of trials start..stop-1, a plain dict that marshal can
    carry: the count of each of _COUNTERS by name and of each index achieved
    by the index.  Tallies fold by adding the counts of equal keys."""
    tally = dict.fromkeys(_COUNTERS, 0)
    for t in range(start, stop):
        model = random_model(seed, t)
        if not model.abelian_type.is_admissible():
            tally["inadmissible"] += 1
        try:
            cons = construct_no_swap_subgroup(model)
        except SwapFailure:
            tally["greedy_failures"] += 1
            continue
        if swap_scan(model, cons.members) is not None:
            tally["scan_disagreements"] += 1
        if not selection_invariant(model, cons.members, cons.selection):
            tally["invariance_failures"] += 1
        if not cons.clean_lift:
            tally["no_clean_lift"] += 1
        if cons.index > cons.rank_bound:
            tally["bound_violations"] += 1
        tally[cons.index] = tally.get(cons.index, 0) + 1
    return tally


def _merge(seed: int, trials: int, tallies) -> dict:
    """The simulation result of tallies that together cover every trial
    once.  Folding only adds, the largest index is the histogram's largest
    key (0 when no trial achieved one) and the histogram is sorted, so
    neither the tallies' order nor their cut shows."""
    total = Counter()
    for tally in tallies:
        total.update(tally)
    histogram = sorted((key, count) for key, count in total.items() if isinstance(key, int))
    return {"trials": trials, "seed": seed, **{name: total[name] for name in _COUNTERS},
            "max_index": histogram[-1][0] if histogram else 0,
            "index_histogram": {str(index): count for index, count in histogram}}


def _block_cuts(trials: int) -> list[int]:
    """The bounds of the blocks trials are cut into: consecutive, at most
    MAX_BLOCKS, of MIN_BLOCK_TRIALS trials or more unless there are fewer
    trials, and at least one, so that block b is trials
    ``cuts[b]..cuts[b + 1] - 1``."""
    blocks = max(1, min(MAX_BLOCKS, trials // MIN_BLOCK_TRIALS))
    return [trials * b // blocks for b in range(blocks + 1)]


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _claim(seed: int, cuts: list[int], tokens: int, total: Counter, ran: bytearray) -> None:
    """Run the blocks claimed from the token pipe's read end until none is
    left, adding each block's tally to the running tally total and
    appending its number to ran once it has run."""
    while token := os.read(tokens, 1):
        block = token[0]
        total.update(_tally(seed, cuts[block], cuts[block + 1]))
        ran += token


def _fork_claimer(seed: int, cuts: list[int], tokens: int, inherited: list[int]) -> tuple[int, int]:
    """Fork a child that claims blocks from tokens until none is left and
    writes its marshalled running tally, the bytes of the blocks it ran and
    the ``time.monotonic()`` at their end to a new pipe; return its pid and
    the pipe's read end.  The child closes the read ends in inherited and
    always leaves by ``os._exit``, so it never returns into the caller."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            for fd in inherited:
                os.close(fd)
            total, ran = Counter(), bytearray()
            _claim(seed, cuts, tokens, total, ran)
            data = marshal.dumps((dict(total), bytes(ran), time.monotonic()))
            while data:
                data = data[os.write(write_end, data):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def _collected(pid: int, read_end: int, waiting: set[int]):
    """Read a child's message to its end, reap the child, drop it from
    waiting and return the (tally, blocks run, end time) it sent, or None
    if it exited with an error or its message is short."""
    parts = []
    while part := os.read(read_end, 65536):
        parts.append(part)
    _, status = os.waitpid(pid, 0)
    waiting.discard(pid)
    if os.waitstatus_to_exitcode(status) != 0:
        return None
    try:
        return marshal.loads(b"".join(parts))
    except (EOFError, ValueError, TypeError):
        return None


@contextmanager
def _started(seed: int, trials: int):
    """Start a simulation: fork the children that run its trials and yield
    its finish, a call that returns the ``simulate`` result and the seconds
    the trials took.

    The trials are cut into blocks (``_block_cuts``), and every block number
    is written as one byte into a token pipe before anything is forked.  A
    process claims the next block by reading one byte; a pipe read is
    atomic, so each block is claimed once, and an empty read means none is
    left.  ``min(cpus, trials // MIN_TRIALS_PER_CHUNK) - 1`` children are
    forked (none with one CPU, no ``os.fork`` or no token pipe to spare),
    and each claims blocks from the start and sends one running tally with
    the numbers of the blocks it ran.  The finish claims the blocks still
    left here: ``simulate`` calls it at once, sharing the blocks with the
    children, and ``run_suite`` in the conic suite's turn, leaving the
    children every block they reach while it runs the other suites.  The
    finish then reads and reaps every child and runs here, in ascending
    order, every block no process reported: those of a child that failed
    in any way or sent a short message, the one whose trial raised here,
    after which this process claims no more, and all of them without a
    token pipe.  So it gives the tally of every trial, or raises the error
    the first failing trial raises, as one process running every trial
    would; ``_merge`` only adds, so which process ran which block changes
    no byte.  Leaving the ``with`` statement, after the finish or by any
    exception (KeyboardInterrupt included), closes every pipe end and kills
    and reaps the children not yet reaped.

    The seconds are the longer of this process's own time on the trials
    (forking and the blocks run here) and the span from the start to the
    last child's end, so time spent on other work before the finish does
    not count.  ``time.monotonic`` is system-wide, so the end time a child
    sends compares with the start read here.
    """
    cpus = _available_cpus() if hasattr(os, "fork") else 1
    cuts = _block_cuts(trials)
    children: list[tuple[int, int]] = []  # (pid, result pipe read end) per child
    waiting: set[int] = set()  # children not yet reaped
    try:
        tokens, write_end = os.pipe()
    except OSError:  # no pipe to spare: nothing is forked or claimed, the finish runs every block
        tokens = write_end = None
        cpus = 1
    try:
        if write_end is not None:
            os.write(write_end, bytes(range(len(cuts) - 1)))  # far below a pipe's capacity
            os.close(write_end)
            write_end = None
        started = time.monotonic()
        for _ in range(min(cpus, trials // MIN_TRIALS_PER_CHUNK) - 1):
            try:
                child = _fork_claimer(seed, cuts, tokens, [c[1] for c in children])
            except OSError:  # no process or pipe to spare: its blocks run here
                break
            children.append(child)
            waiting.add(child[0])
        forking = time.monotonic() - started

        def finish() -> tuple[dict, float]:
            began = time.monotonic()
            total, ran = Counter(), bytearray()
            if tokens is not None:
                with suppress(Exception):  # raised again below, when its block runs in order
                    _claim(seed, cuts, tokens, total, ran)
            here = forking + time.monotonic() - began
            last = 0.0
            for pid, read_end in children:
                sent = _collected(pid, read_end, waiting)
                if sent is not None:
                    total.update(sent[0])
                    ran += sent[1]
                    last = max(last, sent[2] - started)
            began = time.monotonic()
            for block in sorted(set(range(len(cuts) - 1)) - set(ran)):
                total.update(_tally(seed, cuts[block], cuts[block + 1]))
            here += time.monotonic() - began
            return _merge(seed, trials, [total]), max(here, last)

        yield finish
    finally:
        if write_end is not None:
            os.close(write_end)
        if tokens is not None:
            os.close(tokens)
        for _, read_end in children:
            os.close(read_end)
        if waiting:  # only on an error: the children's trials are no longer wanted
            from signal import SIGKILL

            for pid in waiting:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def simulate(seed: int, trials: int) -> dict:
    """Run the construction across random models and tally the outcomes.

    Every trial also cross-checks the greedy selection against the
    exhaustive swap scan and the invariance oracle, so a zero failure count
    means the three routes agree.

    It starts the trials and finishes them at once (``_started``), so this
    process shares their blocks with the children forked for further
    available CPUs; the result is that of one process running every trial.
    """
    with _started(seed, trials) as finish:
        return finish()[0]


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
