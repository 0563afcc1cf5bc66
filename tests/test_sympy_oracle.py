"""lemma52's group checked by sympy.combinatorics, an independent library.

The affine model of (Z/n)^2 x| D6 acts on the n^2 points of (Z/n)^2 by the
unit translations and by the matrices U, Z and the coordinate swap that
``semidirect.build_action_data`` pins.
"""

import pytest

from cremonalab.groups import conjugacy_classes
from cremonalab.semidirect import build_action_data, build_group

combinatorics = pytest.importorskip("sympy.combinatorics")


def affine_model(n: int):
    """(G, T): the affine group on (Z/n)^2 and its translation subgroup; point
    (x, y) is x * n + y."""
    data = build_action_data(n)
    points = [(x, y) for x in range(n) for y in range(n)]

    def perm(image):
        images = [image(x, y) for x, y in points]
        return combinatorics.Permutation([a % n * n + b % n for a, b in images])

    def linear(m):
        return perm(lambda x, y: (m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y))

    translations = [perm(lambda x, y: (x + 1, y)), perm(lambda x, y: (x, y + 1))]
    twists = [linear(data.u), linear(data.z), linear(data.rho_s)]
    return (combinatorics.PermutationGroup(translations + twists),
            combinatorics.PermutationGroup(translations))


@pytest.mark.parametrize("n, classes", [(5, 14), (7, 19)])
def test_affine_model_agrees_with_the_cayley_table(n, classes):
    group, translations = affine_model(n)
    assert group.order() == 12 * n * n
    assert translations.order() == n * n
    assert translations.is_normal(group)
    assert translations.is_abelian
    centralizer = group.centralizer(translations)
    assert centralizer.order() == n * n and centralizer.is_subgroup(translations)
    assert len(group.conjugacy_classes()) == classes
    assert len(conjugacy_classes(build_group(n))) == classes
