"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from cremonalab.groups import Permutation


@st.composite
def generator_lists(draw):
    """One to four permutations of degree at most 6, with repeats and
    identities mixed in, and maybe a last one the others already generate."""
    degree = draw(st.integers(min_value=1, max_value=6))
    perms = st.permutations(range(degree)).map(Permutation)
    gens = [draw(perms)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        gens.append(draw(st.one_of(perms, st.just(Permutation.identity_of_degree(degree)),
                                   st.sampled_from(gens))))
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)).compose(draw(st.sampled_from(gens))))
    return gens
