"""lemma52's group and dp5's cyclotomic notes checked by sympy, an
independent library.

The affine model of (Z/n)^2 x| D6 acts on the n^2 points of (Z/n)^2 by the
unit translations and by the matrices U, Z and the coordinate swap that
``semidirect.build_action_data`` pins.  dp5's ``complex_note`` is recomputed
by factoring a characteristic polynomial over the rationals.
"""

import pytest

from cremonalab.dp5 import SUBGROUP_NAMES, dp5_suite, s5_representation, standard_subgroups
from cremonalab.groups import Permutation, conjugacy_classes
from cremonalab.semidirect import build_action_data, build_group

sympy = pytest.importorskip("sympy")
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


def quotient_generator_on_fixed_space(rep, members):
    """(M, B): rho of a generator of H/D and a basis of W = Fix(D), both
    sympy matrices, with D the derived subgroup that sympy computes."""
    group = rep.group
    perms = [combinatorics.Permutation(list(group.elements[m].images)) for m in members]
    derived = {tuple(p.array_form) for p in
               combinatorics.PermutationGroup(perms).derived_subgroup().elements}
    quotient = len(members) // len(derived)
    generator = next(
        p for p in perms
        if all(tuple((p ** j).array_form) not in derived for j in range(1, quotient)))
    eye = sympy.eye(rep.dim)
    stacked = sympy.Matrix.vstack(*(
        sympy.Matrix(rep.mats[group.find(Permutation(images))].tolist()) - eye
        for images in sorted(derived)))
    matrix = sympy.Matrix(rep.mats[group.find(Permutation(tuple(generator.array_form)))].tolist())
    return matrix, stacked.nullspace()


def test_dp5_complex_notes_match_rational_factorisation():
    rep = s5_representation()
    subgroups = dict(standard_subgroups(rep.group))
    notes = {row.name: row.complex_note for row in dp5_suite(rep)}
    x = sympy.Symbol("x")
    for name in SUBGROUP_NAMES:
        matrix, fixed = quotient_generator_on_fixed_space(rep, subgroups[name].members)
        degrees = []
        if fixed:
            basis = sympy.Matrix.hstack(*fixed)
            restriction = (basis.T * basis).inv() * basis.T * matrix * basis
            assert basis * restriction == matrix * basis  # W is invariant
            _, factors = sympy.factor_list(restriction.charpoly(x).as_expr(), x)
            degrees = [sympy.degree(f, x) for f, mult in factors for _ in range(mult)]
        assert tuple(sorted(degrees)) == notes[name], name
