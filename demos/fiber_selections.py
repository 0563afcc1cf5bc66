"""Component selections over fiber models and the index-16 bound.

A model is an abelian group acting on fibers, each split into two
components.  The goal is a bounded-index subgroup that never swaps the two
components of any fiber it fixes; a greedy scan either finds a consistent
component selection or names the element that breaks it.

Run:  python3 demos/fiber_selections.py
"""

from cremonalab.conic_fibers import (
    SwapFailure,
    construct_no_swap_subgroup,
    greedy_selection,
    make_model,
    simulate,
)


def main() -> None:
    # every generator acts trivially on components: the whole group works
    clean = make_model((2, 2), 2, (), [list(range(4)), list(range(4))])
    built = construct_no_swap_subgroup(clean)
    print("trivial action:        index %d, selection %s" % (built.index, built.selection.components()))

    # one generator swaps the two components of the marked fiber
    swapping = make_model((2,), 2, (0,), [[1, 0, 2, 3]])
    try:
        greedy_selection(swapping, range(swapping.order))
    except SwapFailure as failure:
        print("marked swap:           element %d swaps fiber %d, no selection" % (failure.element, failure.fiber))
    built = construct_no_swap_subgroup(swapping)
    print("                       fallback subgroup has index %d" % built.index)

    # four independent swaps: the worst admissible case, index 16
    perms = []
    for i in range(4):
        perm = list(range(8))
        perm[2 * i], perm[2 * i + 1] = perm[2 * i + 1], perm[2 * i]
        perms.append(perm)
    worst = make_model((2, 2, 2, 2), 4, (), perms)
    built = construct_no_swap_subgroup(worst)
    print("four disjoint swaps:   index %d (bound %d)" % (built.index, built.rank_bound))

    print()
    sim = simulate(seed=0, trials=200)
    print("200 random admissible models:")
    print("  index histogram %s" % sim["index_histogram"])
    print("  max index %d, bound violations %d" % (sim["max_index"], sim["bound_violations"]))


if __name__ == "__main__":
    main()
