"""Fiber-swap models: selections, the no-swap subgroup and its index bound."""

import importlib
import pkgutil
import random
from functools import lru_cache
from itertools import combinations, permutations, product

import pytest

import cremonalab
import oracles
from cremonalab import conic_fibers
from cremonalab.conic_fibers import (
    FAMILY_REPRESENTATIVES,
    AbelianType,
    ModelError,
    SwapFailure,
    construct_no_swap_subgroup,
    greedy_selection,
    make_model,
    random_model,
    selection_invariant,
    simulate,
    swap_index_factor,
    swap_scan,
    weak_geometric_constant,
)
from cremonalab.groups import FiniteGroup, Permutation, close_generators


def identity_perm(fibers):
    return list(range(2 * fibers))


def swaps_fiber(model, element, fiber):
    return model.components[element][2 * fiber] == 2 * fiber + 1


def fiber_image(model, element, fiber):
    return model.components[element][2 * fiber] // 2


def kernel(model):
    """Indices of the elements that fix every component."""
    return [m for m, row in enumerate(model.components) if row == model.components[0]]


# a model's element e is the element e of the product of its cyclic factors
oracle_group = lru_cache(maxsize=None)(oracles.cyclic_product)


def test_no_swap_model_keeps_whole_group():
    model = make_model((2, 2), 2, (), [identity_perm(2), identity_perm(2)])
    built = construct_no_swap_subgroup(model)
    assert built.index == 1
    assert len(built.members) == model.order == 4
    assert built.clean_lift
    selection = greedy_selection(model, range(model.order))
    assert selection.components() == (0, 2)


def test_marked_swap_generator_is_the_witness():
    # one generator of order 2 swaps the two sides of the marked fiber
    model = make_model((2,), 2, (0,), [[1, 0, 2, 3]])
    gen = oracle_group(model.factors).generators[0]
    with pytest.raises(SwapFailure) as exc_info:
        greedy_selection(model, range(model.order))
    assert exc_info.value.element == gen
    assert exc_info.value.fiber == 0
    assert swap_scan(model, range(model.order)) == (gen, 0)
    built = construct_no_swap_subgroup(model)
    assert built.index == 2
    assert built.members == (0,)


def test_swap_witness_is_the_quotient_of_the_two_members():
    # members 3 = (0, 0, 3) and 4 = (0, 1, 0) put fiber 0 on opposite sides;
    # the witness is 4 * 3^-1 = (0, 1, 1), though 4 * 3 swaps the fiber too
    model = make_model((2, 4, 4), 1, (), [[0, 1], [1, 0], [0, 1]])
    group = oracle_group(model.factors)
    with pytest.raises(SwapFailure) as exc_info:
        greedy_selection(model, range(model.order))
    assert exc_info.value.element == group.product(4, int(group.inverse[3])) == 5
    assert swaps_fiber(model, group.product(4, 3), 0)


def test_two_rank_four_reaches_the_factor_16():
    perms = []
    for i in range(4):
        perm = identity_perm(4)
        perm[2 * i], perm[2 * i + 1] = perm[2 * i + 1], perm[2 * i]
        perms.append(perm)
    model = make_model((2, 2, 2, 2), 4, (), perms)
    built = construct_no_swap_subgroup(model)
    assert built.index == 16
    assert built.rank_bound == 16
    assert built.index <= built.rank_bound
    assert built.clean_lift
    assert built.members == (0,)


def test_entangled_order_four_generator_degrades_without_clean_lift():
    # the order-4 generator interleaves the side swap with the fiber swap,
    # so no element projects cleanly onto the base action
    model = make_model((4,), 2, (), [[2, 3, 1, 0]])
    built = construct_no_swap_subgroup(model)
    assert built.members == (0,)
    assert built.index == 4
    assert not built.clean_lift
    assert list(built.members) == kernel(model)
    assert built.rank_bound == 2
    # this configuration sits outside the sampled regime: the bound fails here
    assert built.index > built.rank_bound


def test_validator_rejections():
    with pytest.raises(ModelError):
        make_model((2,), 3, (0, 1, 2), [identity_perm(3)])  # three marked fibers
    with pytest.raises(ModelError):
        make_model((2,), 2, (5,), [identity_perm(2)])  # marked out of range
    with pytest.raises(ModelError):
        make_model((2,), 2, (0,), [[2, 3, 0, 1]])  # generator moves a marked fiber
    with pytest.raises(ModelError):
        make_model((2,), 2, (), [[1, 2, 3, 0]])  # breaks the pairing
    with pytest.raises(ModelError):
        make_model((3,), 2, (), [[1, 0, 2, 3]])  # order 2 does not divide 3
    with pytest.raises(ModelError):
        # two independent fiber swaps: induced action is klein4, not cyclic
        make_model(
            (2, 2), 4, (),
            [[2, 3, 0, 1, 4, 5, 6, 7], [0, 1, 2, 3, 6, 7, 4, 5]],
        )
    with pytest.raises(ModelError):
        # a fiber swap and a side swap on fiber 0 only do not commute
        make_model((2, 2), 2, (), [[2, 3, 0, 1], [1, 0, 2, 3]])
    with pytest.raises(ModelError):
        make_model((2,), 2, (), [[0, 0, 2, 3]])  # not a permutation
    with pytest.raises(ModelError):
        make_model((64, 65), 1, (), [[0, 1], [0, 1]])  # order 4160 > 4096
    with pytest.raises(ModelError):
        make_model((0,), 1, (), [[0, 1]])  # zero factor
    with pytest.raises(ModelError):
        make_model((2, 2), 1, (), [[0, 1]])  # two factors, one permutation


def test_marked_list_is_deduplicated():
    model = make_model((2,), 2, (0, 1, 0, 1), [identity_perm(2)])
    assert model.marked == (0, 1)


def test_abelian_type_invariant_factors():
    assert AbelianType.from_factors((4, 2)).invariant_factors == (2, 4)
    assert AbelianType.from_factors((6, 4)).invariant_factors == (2, 12)
    assert AbelianType.from_factors((1, 3)).invariant_factors == (3,)
    assert AbelianType.from_factors((2, 2, 2)).two_rank == 3
    assert AbelianType.from_factors((3, 3, 3)).two_rank == 0
    assert AbelianType.from_factors((2, 4, 4)).order == 32
    for bad in ((-2, 3), (0, 4), (1, -1)):
        with pytest.raises(ValueError):
            AbelianType.from_factors(bad)


def test_admissible_types():
    admissible = [(2,), (3, 9), (2, 2), (2, 2, 2), (2, 2, 4), (2, 4, 4),
                  (3, 3, 3), (2, 2, 2, 2)]
    for factors in admissible:
        assert AbelianType.from_factors(factors).is_admissible(), factors
    inadmissible = [(2, 4, 8), (5, 5, 5), (2, 2, 2, 2, 2), (2, 2, 4, 4), (3, 3, 9)]
    for factors in inadmissible:
        assert not AbelianType.from_factors(factors).is_admissible(), factors


def test_greedy_agrees_with_swap_scan_on_random_subgroups():
    rng = random.Random(41)
    for trial in range(60):
        model = random_model(9000, trial)
        seeds = [rng.randrange(model.order) for _ in range(rng.randrange(1, 3))]
        members = oracle_group(model.factors).subgroup_closure(seeds)
        scan_hit = swap_scan(model, members)
        try:
            greedy_selection(model, members)
            failed = None
        except SwapFailure as exc:
            failed = (exc.element, exc.fiber)
        assert (failed is None) == (scan_hit is None)
        if failed is not None:
            element, fiber = failed
            assert element in set(members)
            assert swaps_fiber(model, element, fiber)


def relabel(model, sigma, flips):
    """Conjugate all generator perms by a fiber relabeling plus side flips."""
    pi = [0] * (2 * model.fiber_count)
    for f in range(model.fiber_count):
        pi[2 * f] = 2 * sigma[f] + flips[f]
        pi[2 * f + 1] = 2 * sigma[f] + 1 - flips[f]
    inv = [0] * len(pi)
    for i, v in enumerate(pi):
        inv[v] = i
    new_perms = []
    for gi in range(len(model.factors)):
        perm = model.gen_perms[gi]
        new_perms.append([pi[perm[inv[c]]] for c in range(len(pi))])
    new_marked = tuple(sorted(sigma[f] for f in model.marked))
    return make_model(model.factors, model.fiber_count, new_marked, new_perms)


def test_greedy_success_is_relabeling_invariant():
    rng = random.Random(17)
    for trial in range(40):
        model = random_model(5150, trial)
        sigma = list(range(model.fiber_count))
        rng.shuffle(sigma)
        flips = [rng.randrange(2) for _ in range(model.fiber_count)]
        mirrored = relabel(model, sigma, flips)
        members = range(model.order)
        try:
            greedy_selection(model, members)
            original_ok = True
        except SwapFailure:
            original_ok = False
        try:
            greedy_selection(mirrored, members)
            mirrored_ok = True
        except SwapFailure:
            mirrored_ok = False
        assert original_ok == mirrored_ok


def test_swap_bits_compose_by_xor():
    for trial in range(25):
        model = random_model(2024, trial)
        group = oracle_group(model.factors)
        gens = [int(g) for g in group.generators]
        for a in gens:
            for b in gens:
                ab = group.product(a, b)
                for f in range(model.fiber_count):
                    if fiber_image(model, b, f) != f:
                        continue
                    if fiber_image(model, a, f) != f:
                        continue
                    expected = swaps_fiber(model, a, f) != swaps_fiber(model, b, f)
                    assert swaps_fiber(model, ab, f) == expected


def test_selection_is_union_of_orbits():
    for trial in range(30):
        model = random_model(31337, trial)
        built = construct_no_swap_subgroup(model)
        chosen = set(built.selection.components())
        for m in built.members:
            perm = model.components[m]
            for c in chosen:
                assert perm[c] in chosen


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fiber_orders_match_a_closure_of_the_base(seed):
    # the model reads |base| and fiber orders off its component table; here
    # the induced fiber action is closed as a group and searched instead
    for t in range(300):
        model = random_model(seed, t)
        fibers = range(model.fiber_count)
        base = close_generators(
            [Permutation(tuple(p[2 * f] // 2 for f in fibers)) for p in model.gen_perms])
        assert model.base_order == base.order, t
        assert max(base.element_order(i) for i in range(base.order)) == base.order, t
        group = oracle_group(model.factors)
        members = kernel(model)
        assert group.subgroup_closure(members) == tuple(members), t
        candidates = [m for m in range(model.order)
                      if not any(swaps_fiber(model, m, f) for f in model.marked)]
        expected_lift = None
        for m in candidates:
            row = model.components[m]
            fiber_order = base.element_order(
                base.find(Permutation(tuple(fiber_image(model, m, f) for f in fibers))))
            assert conic_fibers._cycle_lcm(conic_fibers._fiber_row(row)) == fiber_order
            if expected_lift is None and (
                    fiber_order == base.order == group.element_order(m)):
                expected_lift = m
        built = construct_no_swap_subgroup(model)
        if built.clean_lift:
            assert built.lift_generator == expected_lift, t
        else:
            assert built.lift_generator is None, t


def test_fiber_order_is_the_lcm_of_unequal_cycles():
    # fibers (0 1)(2 3 4): the induced action is cyclic of order 6, which no
    # single cycle length shows; random models only draw equal-length cycles
    perm = []
    for image in (1, 0, 3, 4, 2):
        perm += [2 * image, 2 * image + 1]
    model = make_model((6,), 5, (), [perm])
    assert model.base_order == 6
    built = construct_no_swap_subgroup(model)
    assert built.clean_lift and built.lift_generator == oracle_group((6,)).generators[0]
    assert built.index == 1


def test_conic_path_runs_no_closure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a group closure ran on the conic path")

    for info in pkgutil.iter_modules(cremonalab.__path__):
        module = importlib.import_module("cremonalab." + info.name)
        if hasattr(module, "close_generators"):
            monkeypatch.setattr(module, "close_generators", refuse)
    monkeypatch.setattr(FiniteGroup, "subgroup_closure", refuse)
    assert not hasattr(conic_fibers, "close_generators")
    assert simulate(0, 50)["trials"] == 50


def test_greedy_selection_rejects_members_outside_the_group():
    # without the identity a fiber's side was never set, and index 5 is past the table
    model = make_model((2,), 2, (), [[2, 3, 0, 1]])
    for members in ([1], [5], [0, 5], [-1, 0], []):
        with pytest.raises(ModelError, match="members"):
            greedy_selection(model, members)
    assert greedy_selection(model, [0, 1]).components() == (0, 2)


def test_simulation_is_deterministic_and_clean():
    first = simulate(0, 60)
    second = simulate(0, 60)
    assert first == second
    assert first["greedy_failures"] == 0
    assert first["invariance_failures"] == 0
    assert first["scan_disagreements"] == 0
    assert first["bound_violations"] == 0
    assert first["max_index"] <= 16
    assert sum(first["index_histogram"].values()) == 60 - first["inadmissible"]



# Recorded before the model group was built as a direct product; a change in
# the element order that moved the chosen lift would show here.
PINNED_SIMULATIONS = {
    1: {"1": 59, "2": 57, "4": 47, "8": 28, "16": 9},
    2: {"1": 63, "2": 63, "4": 47, "8": 24, "16": 3},
    3: {"1": 65, "2": 58, "4": 44, "8": 26, "16": 7},
}


@pytest.mark.parametrize("seed", sorted(PINNED_SIMULATIONS))
def test_simulation_matches_recorded_counts(seed):
    assert simulate(seed, 200) == {
        "trials": 200,
        "seed": seed,
        "greedy_failures": 0,
        "invariance_failures": 0,
        "scan_disagreements": 0,
        "bound_violations": 0,
        "no_clean_lift": 0,
        "inadmissible": 0,
        "max_index": 16,
        "index_histogram": PINNED_SIMULATIONS[seed],
    }


def test_constants():
    assert swap_index_factor() == 16
    assert weak_geometric_constant() == 288 * 16 == 4608


def pairing_perms(fibers):
    """The 2^f * f! component permutations that keep each pair together."""
    return [
        tuple(2 * sigma[f] + (s ^ flips[f]) for f in range(fibers) for s in (0, 1))
        for sigma in permutations(range(fibers))
        for flips in product((0, 1), repeat=fibers)
    ]


def small_models(fibers):
    """Every valid model with this many fibers, each family representative
    type and at most two marked fibers.  Generator tuples grow one factor at
    a time from the pairing-preserving perms whose order divides the factor
    and that fix the marked fibers, dropping any that fail to commute."""
    perms = pairing_perms(fibers)
    for marked in [m for k in range(3) for m in combinations(range(fibers), k)]:
        fixing = [p for p in perms if all(p[2 * f] // 2 == f for f in marked)]
        for factors in FAMILY_REPRESENTATIVES:
            tuples = [()]
            for d in factors:
                allowed = [p for p in fixing if d % oracles.perm_order(p) == 0]
                tuples = [
                    (*gens, p) for gens in tuples for p in allowed
                    if all(oracles.compose_images(p, q) == oracles.compose_images(q, p)
                           for q in gens)
                ]
            for gens in tuples:
                try:
                    yield make_model(factors, fibers, marked, gens)
                except ModelError:  # the induced fiber action is not cyclic
                    continue


# (models, models without a clean lift) per fiber count
EXHAUSTIVE_COUNTS = {1: (74, 0), 2: (1992, 48), 3: (66255, 10500)}


@pytest.mark.parametrize("fibers", [1, 2, pytest.param(3, marks=pytest.mark.slow)])
def test_every_small_model_admits_a_bounded_selection(fibers):
    models = no_clean_lift = 0
    for model in small_models(fibers):
        built = construct_no_swap_subgroup(model)
        try:
            greedy_selection(model, range(model.order))
        except SwapFailure as failure:
            assert swaps_fiber(model, failure.element, failure.fiber), model
        else:
            assert swap_scan(model, range(model.order)) is None, model
        selection = greedy_selection(model, built.members)
        assert swap_scan(model, built.members) is None
        assert selection_invariant(model, built.members, selection)
        if built.clean_lift:
            assert built.index <= built.rank_bound, model
        else:
            no_clean_lift += 1
        group = oracle_group(model.factors)
        lift = () if built.lift_generator is None else (built.lift_generator,)
        assert built.members == group.subgroup_closure((*kernel(model), *lift)), model
        assert model.element_orders == tuple(map(group.element_order, range(group.order)))
        models += 1
    assert (models, no_clean_lift) == EXHAUSTIVE_COUNTS[fibers]
