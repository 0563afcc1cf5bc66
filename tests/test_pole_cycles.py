"""Boundary-cycle moves, conservation, symmetry and enumeration."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cremonalab import pole_cycles
from cremonalab.pole_cycles import (
    InvalidDegree,
    PoleCycle,
    base_pairs,
    blow_up_node,
    blow_up_smooth,
    canonical_components,
    conservation_defect,
    conservation_violations,
    configuration_rows,
    enumerate_configurations,
    max_symmetry_by_degree,
    random_word_ends,
    satisfies_fano_bound,
    symmetry_group,
)


def random_cycle(rng: random.Random, max_moves: int = 6) -> PoleCycle:
    cycle = random.Random(rng.random()).choice(base_pairs())
    for _ in range(rng.randrange(max_moves + 1)):
        if cycle.k2 <= 1:
            break
        moves = []
        for i in range(cycle.length):
            moves.append(("node", i))
            moves.append(("smooth", i))
        kind, i = rng.choice(moves)
        cycle = blow_up_node(cycle, i) if kind == "node" else blow_up_smooth(cycle, i)
    return cycle


@pytest.fixture(scope="module")
def sample_cycles():
    rng = random.Random(77)
    return [random_cycle(rng) for _ in range(60)]


def test_base_pairs_shapes():
    bases = {b.base_name: b for b in base_pairs()}
    assert bases["triangle"].components == ((1, 0), (1, 0), (1, 0))
    assert bases["conic_line"].components == ((4, 0), (1, 0))
    assert bases["nodal_cubic"].components == ((9, 1),)
    for base in bases.values():
        assert base.k2 == 9
        assert conservation_defect(base) == 0


def test_node_blow_up_adds_component_smooth_keeps_length(sample_cycles):
    for cycle in sample_cycles:
        for i in range(cycle.length):
            after_node = blow_up_node(cycle, i)
            assert after_node.length == cycle.length + 1
            assert after_node.k2 == cycle.k2 - 1
            after_smooth = blow_up_smooth(cycle, i)
            assert after_smooth.length == cycle.length
            assert after_smooth.k2 == cycle.k2 - 1


def test_conservation_holds_along_all_moves(sample_cycles):
    for cycle in sample_cycles:
        assert conservation_defect(cycle) == 0
        for i in range(cycle.length):
            assert conservation_defect(blow_up_node(cycle, i)) == 0
            assert conservation_defect(blow_up_smooth(cycle, i)) == 0


def test_conservation_violations_counter_is_zero():
    assert conservation_violations(3, 50) == {
        "triangle": 0,
        "conic_line": 0,
        "nodal_cubic": 0,
    }


def test_each_word_end_is_checked_once_and_counted_per_word(monkeypatch):
    # a defect at one end that several seed-0 words reach counts every one
    # of those words, and each distinct end is checked once
    ends = list(random_word_ends(0, 1000))
    target, words = Counter(ends).most_common(1)[0]
    assert words > 1
    assert conservation_violations(0, 1000) == {name: 0 for name, _, _ in ends}
    checked, real_defect = [], pole_cycles.conservation_defect

    def defect(cycle):
        checked.append((cycle.base_name, cycle.components, cycle.k2))
        return 1 if checked[-1] == target else real_defect(cycle)

    monkeypatch.setattr(pole_cycles, "conservation_defect", defect)
    assert conservation_violations(0, 1000) == {
        name: (words if name == target[0] else 0) for name, _, _ in ends}
    assert sorted(checked) == sorted(set(ends))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_memoized_walk_matches_pole_cycle_walk(seed):
    # word by word: equal violation counts alone would prove nothing, both read 0
    ends = list(random_word_ends(seed, 1000))
    assert len(ends) == 3000
    assert ends == oracles.pole_cycle_walk_ends(seed, 1000)


def test_conservation_holds_on_every_reachable_cycle():
    # Exhausts what the sampled row samples: the enumeration witnesses at
    # degrees 8..1, closed under Fano-filtered moves, cover every reachable
    # cycle up to relabeling the ring, and relabeling keeps the defect.
    witnesses = {d: enumerate_configurations(d) for d in range(1, 9)}
    assert sum(len(configs) for configs in witnesses.values()) == 49
    reached = [cycle for configs in witnesses.values() for cycle, _ in configs]
    seen = {(c.components, c.k2) for c in reached}
    for cycle in reached:  # ``reached`` grows while it is walked
        if cycle.k2 <= 1:
            continue
        moves = [blow_up_node(cycle, i) for i in range(cycle.length)]
        moves += [blow_up_smooth(cycle, i) for i in range(cycle.length)]
        for succ in moves:
            if satisfies_fano_bound(succ) and (succ.components, succ.k2) not in seen:
                seen.add((succ.components, succ.k2))
                reached.append(succ)
    for cycle in reached:
        assert conservation_defect(cycle) == 0, (cycle.components, cycle.k2)
    for degree, configs in witnesses.items():
        classes = {canonical_components(c.components) for c in reached if c.k2 == degree}
        assert classes == {canonical_components(c.components) for c, _ in configs}


def reachable_classes():
    """``{degree: {canonical components: witness}}`` from 9 (the bases) to 1,
    in the walk the prop44 suite runs."""
    bases = {canonical_components(base.components): base for base in base_pairs()}
    return {9: bases, **dict(pole_cycles._levels(range(1, 9)))}


def test_conservation_holds_on_every_reachable_class():
    # Prop 4.4 exhaustively: blow-ups commute with relabeling the ring and the
    # defect ignores it, so one witness per class covers every reachable cycle
    classes = reachable_classes()
    assert {degree: len(frontier) for degree, frontier in classes.items()} == {
        9: 3, 8: 7, 7: 12, 6: 12, 5: 7, 4: 5, 3: 3, 2: 2, 1: 1}
    for degree, frontier in classes.items():
        for key, witness in frontier.items():
            assert witness.k2 == degree and canonical_components(witness.components) == key
            assert conservation_defect(witness) == 0, (key, degree)


def test_every_sampled_word_ends_in_a_reachable_class():
    # the sampled prop44.conservation row checks a subset of the classes above
    classes = reachable_classes()
    ends = {end for seed in range(10) for end in random_word_ends(seed, 1000)}
    assert len(ends) == 115
    for name, components, k2 in ends:
        assert canonical_components(components) in classes[k2], (name, components, k2)


def test_walk_classes_match_a_raw_breadth_first_search():
    # the oracle keeps every tuple as written, 12, 26, 27 and 15 of them at
    # degrees 8 to 5, and reduces none of them while it searches
    raw = oracles.raw_cycle_levels(1)
    assert [len(raw[degree]) for degree in range(8, 4, -1)] == [12, 26, 27, 15]
    for degree, frontier in reachable_classes().items():
        assert {canonical_components(ring) for ring in raw[degree]} == set(frontier), degree


def test_genus_one_node_blow_up_splits_the_loop():
    cubic = next(b for b in base_pairs() if b.base_name == "nodal_cubic")
    split = blow_up_node(cubic, 0)
    assert split.components == ((5, 0), (-1, 0))
    assert split.k2 == 8


def test_moves_commute_with_shifted_index(sample_cycles):
    for cycle in sample_cycles[:25]:
        for i in range(cycle.length):
            for j in range(cycle.length):
                j_shifted = j if j <= i else j + 1
                a = blow_up_smooth(blow_up_node(cycle, i), j_shifted)
                b = blow_up_node(blow_up_smooth(cycle, j), i)
                assert a.components == b.components
                assert a.k2 == b.k2


def test_all_smooth_words_are_order_independent(sample_cycles):
    rng = random.Random(5)
    for cycle in sample_cycles[:20]:
        word = [("smooth", rng.randrange(cycle.length)) for _ in range(4)]
        shuffled = list(word)
        rng.shuffle(shuffled)
        replayed = oracles.apply_word(cycle, shuffled)
        assert oracles.apply_word(cycle, word).components == replayed.components


def test_symmetry_group_small_cycles():
    def cyc(*comps):
        return PoleCycle(tuple(comps), 9, "triangle")

    assert (symmetry_group(cyc((9, 1))).order, symmetry_group(cyc((9, 1))).kind) == (2, "c2")
    two_equal = symmetry_group(cyc((4, 0), (4, 0)))
    assert (two_equal.order, two_equal.kind) == (4, "klein4")
    two_distinct = symmetry_group(cyc((4, 0), (1, 0)))
    assert (two_distinct.order, two_distinct.kind) == (2, "c2")


def test_symmetry_group_matches_brute_force(sample_cycles):
    for cycle in sample_cycles:
        if cycle.length < 3:
            continue
        sym = symmetry_group(cycle)
        brute = oracles.cycle_symmetries(cycle.components)
        assert sym.order == len(brute), cycle.components
        rotations = sum(1 for kind, _ in brute if kind == "rot")
        reflected = any(kind == "ref" for kind, _ in brute)
        if sym.order == 1:
            assert sym.kind == "trivial"
        elif sym.order == 2:
            assert sym.kind == "c2"
        elif reflected and rotations == 2:
            assert sym.kind == "klein4"
        elif reflected:
            assert sym.kind == "dihedral(%d)" % rotations
        else:
            assert sym.kind == "cyclic(%d)" % rotations
        assert (2 * cycle.length) % sym.order == 0
        comps = cycle.components
        reflected_comps = tuple(reversed(comps))
        naive = min(
            [comps[s:] + comps[:s] for s in range(len(comps))]
            + [reflected_comps[s:] + reflected_comps[:s] for s in range(len(comps))]
        )
        assert canonical_components(comps) == naive


@given(st.integers(min_value=3, max_value=8), st.data())
@settings(max_examples=25, deadline=None)
def test_symmetry_order_divides_dihedral_order(length, data):
    labels = data.draw(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=length, max_size=length)
    )
    cycle = PoleCycle(tuple((s, 0) for s in labels), 9, "triangle")
    sym = symmetry_group(cycle)
    assert (2 * length) % sym.order == 0


def test_enumeration_k2_equals_degree():
    for degree in range(1, 9):
        for cycle, _ in enumerate_configurations(degree):
            assert cycle.k2 == degree
            assert satisfies_fano_bound(cycle)


def test_enumeration_rejects_bad_degrees():
    with pytest.raises(InvalidDegree):
        enumerate_configurations(0)
    with pytest.raises(InvalidDegree):
        enumerate_configurations(9)


def test_witness_words_replay():
    for degree in (4, 6, 8):
        bases = {b.base_name: b for b in base_pairs()}
        for row in configuration_rows(degree):
            base = bases[row["witness_base"]]
            replayed = oracles.apply_word(base, [tuple(step) for step in row["witness_word"]])
            assert replayed.k2 == degree
            assert [s for s, _ in replayed.components] == row["labels"]
            assert [g for _, g in replayed.components] == row["genus"]
            assert symmetry_group(replayed).order == row["symmetry_order"]


def test_max_symmetry_table():
    assert max_symmetry_by_degree() == {6: 12, 5: 10, 4: 8, 3: 6, 2: 4, 1: 2}


def test_fano_filter_prunes_monotonically(sample_cycles):
    # once a component label falls below the floor no later move restores it
    for cycle in sample_cycles:
        if satisfies_fano_bound(cycle):
            continue
        for i in range(cycle.length):
            assert not satisfies_fano_bound(blow_up_node(cycle, i))
            assert not satisfies_fano_bound(blow_up_smooth(cycle, i))
