"""lemma52's group, dp5's cyclotomic notes and the exact linear algebra
checked by sympy, an independent library.

The affine model of (Z/n)^2 x| D6 acts on the n^2 points of (Z/n)^2 by the
unit translations and by the matrices U, Z and the coordinate swap that
``semidirect.build_action_data`` derives.  dp5's ``complex_note`` is recomputed
by factoring a characteristic polynomial over the rationals, and
``rational``'s kernels and determinants are recomputed by sympy's
``nullspace`` and ``det``.
"""

import random
from fractions import Fraction

import pytest

import oracles
from cremonalab import dp5
from cremonalab.dp5 import SUBGROUP_NAMES, dp5_suite, s5_representation, standard_subgroups
from cremonalab.groups import Permutation, conjugacy_classes
from cremonalab.rational import exact_det, kernel_basis
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
    twists = [linear(data.u), linear(data.z), linear(data.rho[6])]  # rho(s), the swap
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


def sympy_kernel(rows, width):
    """sympy's nullspace, each vector made primitive."""
    nullspace = sympy.Matrix(len(rows), width, [x for row in rows for x in row]).nullspace()
    return [oracles.primitive(Fraction(int(x.p), int(x.q)) for x in column)
            for column in nullspace]


def seeded_matrices(seed, count, square=False):
    """Fixed-seed integer matrices up to 8 x 8: rows past a random rank are
    integer combinations of the rows before it, one column is zeroed and the
    rows are shuffled."""
    rng = random.Random(seed)
    for _ in range(count):
        height = rng.randint(1, 8)
        width = height if square else rng.randint(1, 8)
        rank = rng.randint(0, height)
        rows = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(rank)]
        for _ in range(height - rank):
            coeffs = [rng.randint(-2, 2) for _ in range(rank)]
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows[:rank]))
                         for j in range(width)])
        zeroed = rng.randrange(width)
        rows = [[0 if j == zeroed else x for j, x in enumerate(row)] for row in rows]
        rng.shuffle(rows)
        yield rows


def test_kernel_basis_matches_sympy_nullspace(monkeypatch):
    recorded = []

    def recording(rows, width):
        recorded.append((rows, width))
        return kernel_basis(rows, width=width)

    monkeypatch.setattr(dp5, "kernel_basis", recording)
    dp5_suite(s5_representation())
    cases = recorded + [(rows, len(rows[0])) for rows in seeded_matrices(7, 150)]
    assert len(recorded) == 27
    for rows, width in cases:
        assert kernel_basis(rows, width=width) == sympy_kernel(rows, width), rows


def test_exact_det_matches_sympy_det():
    rep = s5_representation()
    s5 = [rep.mats[j].tolist() for j in range(rep.group.order)]
    seeded = list(seeded_matrices(8, 150, square=True))
    assert len(s5) == 120 and any(exact_det(rows) == 0 for rows in seeded)
    for rows in s5 + seeded:
        assert exact_det(rows) == sympy.Matrix(rows).det(), rows
