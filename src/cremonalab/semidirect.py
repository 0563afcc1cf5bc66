"""The order-12n^2 family (Z/n)^2 x| D6 and its minimal abelian-normal index.

D6 here is the dihedral group of order 12, presented as r^6 = s^2 = 1,
s r s = r^-1, and written down once, as the integer matrices of its two
generators: rho(r) = [[0, 1], [-1, 1]] and rho(s) the coordinate swap.  Its
product table, its inverses and its action on (Z/n)^2 are derived from them.
The 3-cycle part acts by U = rho(r^2) = [[-1, 1], [-1, 0]] and the half-turn
part by Z = rho(r^3) = -I.  The determinants det(U - I) = 3 and
det(Z - I) = 4 are units mod n exactly when gcd(n, 6) = 1, which is what makes
the translation subgroup the unique largest abelian normal subgroup and the
minimal index equal to 12.

``FamilyGroup`` computes each product (v + rho(d) w, d e) from the action
instead of storing a table, and is the one implementation of the product
law.  ``build_group`` gives a larger group as a FamilyGroup and closes a
small one into a Cayley table, reading each product from a FamilyGroup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .groups import (
    CapExceeded,
    FiniteGroup,
    IncompatiblePayloads,
    Subgroup,
    close_generators,
)
from .jordan import jordan_index, normal_subgroups
from .rational import exact_det
from .report import VerificationReport, checked, informational

__all__ = [
    "MAX_FAMILY_ORDER",
    "MAX_TABLE_ORDER",
    "NoConsistentAction",
    "HypothesisViolated",
    "ModularDihedralAction",
    "FamilyGroup",
    "build_action_data",
    "build_group",
    "translation_subgroup",
    "verify_lemma52",
]

Mat2 = tuple[tuple[int, int], tuple[int, int]]

# The largest group order ``build_group`` makes, so n <= 91: a FamilyGroup
# holds a few order-length arrays, and n = 89 (order 95 052) takes about
# 0.8 s and 53 MB from the command line.
MAX_FAMILY_ORDER = 100_000
# The largest order closed into a Cayley table, 12 * 6^2, so n <= 6; a larger
# group is a FamilyGroup.  In process (build, lattice, index and translations,
# best of 15, alternating) the table is faster only at n = 2, 3, 4 and 6, and
# the computed products at n = 5 and 7 to 10 (BENCH_table_crossover.json).
# n = 5 is tabulated all the same: the benchmark's tests count the 300
# elements that close_generators closes for `verify lemma52 --n 5`.
MAX_TABLE_ORDER = 432


class NoConsistentAction(RuntimeError):
    """The group closed from the generators does not have order 12 n^2."""


class HypothesisViolated(ValueError):
    """The requested n is outside gcd(n, 6) = 1, n > 1."""


def _times(a: Mat2, b: Mat2) -> Mat2:
    (p, q), (r, s), (t, u), (v, w) = a + b
    return ((p * t + q * v, p * u + q * w), (r * t + s * v, r * u + s * w))


# D6 over Z: _RHO[d] = rho(r)^(d % 6) rho(s)^(d // 6), so d = rotation
# + 6 * reflection bit.  _D6[a, b] is the d with rho(d) = rho(a) rho(b), and a
# product outside the twelve matrices raises ValueError here; _D6_INVERSE[a]
# is the b with _D6[a, b] = 0.
_RHO = [((1, 0), (0, 1))]
for _ in range(5):
    _RHO.append(_times(_RHO[-1], ((0, 1), (-1, 1))))
_RHO += [_times(m, ((0, 1), (1, 0))) for m in _RHO]
_D6 = np.array([[_RHO.index(_times(a, b)) for b in _RHO] for a in _RHO])
_D6_INVERSE = np.array([row.index(0) for row in _D6.tolist()])


def _det_minus_identity(m: Mat2, n: int) -> int:
    return exact_det([[e - (i == j) for j, e in enumerate(row)] for i, row in enumerate(m)]) % n


@dataclass(frozen=True)
class ModularDihedralAction:
    """The twelve matrices rho(d) mod n, derived from the two generator
    matrices: rho[d] is rho(r^d) for d < 6 and rho(r^(d-6) s) after, so
    rho[6] = rho(s), the swap, and U = rho[2] and Z = rho[3].
    """

    modulus: int
    rho: tuple[Mat2, ...]

    @property
    def u(self) -> Mat2:
        return self.rho[2]

    @property
    def z(self) -> Mat2:
        return self.rho[3]

    @property
    def det_u_minus_identity(self) -> int:
        return _det_minus_identity(self.u, self.modulus)

    @property
    def det_z_minus_identity(self) -> int:
        return _det_minus_identity(self.z, self.modulus)

    def determinants_are_units(self) -> bool:
        n = self.modulus
        return gcd(self.det_u_minus_identity, n) == 1 and gcd(self.det_z_minus_identity, n) == 1


def build_action_data(n: int) -> ModularDihedralAction:
    """The dihedral action on (Z/n)^2: D6's integer matrices reduced mod n."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    rho = tuple(tuple(tuple(e % n for e in row) for row in m) for m in _RHO)
    return ModularDihedralAction(n, rho)


class FamilyGroup(FiniteGroup):
    """(Z/n)^2 x| D6 with computed products: no Cayley table and no payloads.

    Element i = d n^2 + v0 n + v1 is the pair ((v0, v1), d), with d the
    index of r^(d % 6) s^(d // 6) in D6, so the translations are the
    indices below n^2; (v, d) . (w, e) = (v + rho(d) w, d e).  ``products``
    reads ``act[d, w]``, the index of rho(d) w, and the D6 table, both derived
    from D6's two generator matrices, and ``inverse`` is an order-length array
    built on first use, so every array is O(order).  The generators are the
    unit translations, the rotation r and the reflection s, and the key of
    (v, d) is ``S|n|v0,v1|d``, derived on first use.
    """

    def __init__(self, action: ModularDihedralAction) -> None:
        self.action = action
        n = action.modulus
        v0, v1 = np.divmod(np.arange(n * n), n)
        rho = np.array(action.rho)[:, :, :, None]  # rho[d, row, column, 0]
        self._act = ((rho[:, 0, 0] * v0 + rho[:, 0, 1] * v1) % n * n
                     + (rho[:, 1, 0] * v0 + rho[:, 1, 1] * v1) % n)
        self.generators = (n, 1, n * n, 6 * n * n)

    @cached_property
    def inverse(self) -> np.ndarray:
        """(-rho(d^-1) v, d^-1) for every element (v, d), read-only."""
        n = self.action.modulus
        d, v = np.divmod(np.arange(12 * n * n), n * n)
        d = _D6_INVERSE[d]
        w = self._act[d, v]
        inverse = d * (n * n) + -(w // n) % n * n + -w % n
        inverse.flags.writeable = False
        return inverse

    @cached_property
    def keys(self) -> tuple[bytes, ...]:
        n = self.action.modulus
        return tuple(("S|%d|%d,%d|%d" % (n, v // n, v % n, d)).encode()
                     for d in range(12) for v in range(n * n))

    def products(self, x, y) -> np.ndarray:
        """Index of x . y for every pair of x and y, broadcast as NumPy index
        arrays: (v + rho(d) w, d e) for x = (v, d) and y = (w, e)."""
        # divmod keeps an int an int: _extend reads one product per
        # (representative, generator) pair, and ufuncs on scalars cost 5 times more
        n = self.action.modulus
        dx, vx = divmod(x, n * n)
        dy, vy = divmod(y, n * n)
        w = self._act[dx, vy]
        return _D6[dx, dy] * (n * n) + (vx // n + w // n) % n * n + (vx + w) % n


@dataclass(frozen=True)
class _FamilyElement:
    """Element ``index`` of a FamilyGroup as a payload, to close into a table."""

    family: FamilyGroup
    index: int

    def key(self) -> bytes:
        return self.family.keys[self.index]

    def compose(self, other: "_FamilyElement") -> "_FamilyElement":
        if not isinstance(other, _FamilyElement) or other.family is not self.family:
            raise IncompatiblePayloads("cannot compose %r with %r" % (self, other))
        return _FamilyElement(self.family, int(self.family.products(self.index, other.index)))

    def identity(self) -> "_FamilyElement":
        return _FamilyElement(self.family, 0)


def build_group(n: int) -> FiniteGroup:
    """The group of order 12 n^2: a FamilyGroup above MAX_TABLE_ORDER (from
    n = 7 on), and up to it (n <= 6) the Cayley table closed from the
    FamilyGroup's generators, each product read from the FamilyGroup.  Past
    MAX_FAMILY_ORDER it is refused with CapExceeded before any work.
    """
    expected = 12 * n * n
    if expected > MAX_FAMILY_ORDER:
        raise CapExceeded("lemma52 n = %d gives a group of order 12 n^2 over MAX_FAMILY_ORDER=%d"
                          % (n, MAX_FAMILY_ORDER))
    family = FamilyGroup(build_action_data(n))
    if expected > MAX_TABLE_ORDER:
        return family
    group = close_generators([_FamilyElement(family, g) for g in family.generators])
    if group.order != expected:
        raise NoConsistentAction("closure has order %d, wanted %d" % (group.order, expected))
    return group


def translation_subgroup(group: FiniteGroup) -> Subgroup:
    """The subgroup of pure translations (trivial dihedral part).

    It is generated by the two unit translations, which ``build_group`` lists
    first among its generators; in a FamilyGroup it is the indices below n^2.
    """
    gens = group.generators[:2]
    return group.subgroup(group.subgroup_closure(gens), gens=gens)


def verify_lemma52(n: int, allow_bad_n: bool = False) -> VerificationReport:
    """Check the minimal abelian-normal index of the order-12n^2 group.

    For gcd(n, 6) = 1 and n > 1 the claim is: the index is 12 and the witness
    is exactly the translation subgroup; the determinant unit checks for
    3 and 4 mod n ride along in the computed payload.  Other n >= 2 violate
    the hypothesis: that raises HypothesisViolated unless ``allow_bad_n``,
    in which case the computation still runs and the row is informational.
    """
    hypothesis_ok = gcd(n, 6) == 1 and n > 1
    if not hypothesis_ok and not allow_bad_n:
        raise HypothesisViolated(
            "n = %d violates gcd(n, 6) = 1, n > 1; pass allow_bad_n to record it anyway" % n
        )
    start = time.perf_counter()
    group = build_group(n)
    data = build_action_data(n)
    cert = jordan_index(normal_subgroups(group))
    translations = translation_subgroup(group)
    computed = {
        "order": group.order,
        "jordan_index": cert.index,
        "witness_order": cert.witness.order,
        "witness_is_translation_subgroup": cert.witness.members == translations.members,
        "det_u_minus_identity": data.det_u_minus_identity,
        "det_z_minus_identity": data.det_z_minus_identity,
        "determinants_are_units": data.determinants_are_units(),
    }
    elapsed = time.perf_counter() - start
    claim_id, anchor = "lemma52.n%d" % n, "Lemma 5.2 (n = %d)" % n
    if not hypothesis_ok:
        return informational(claim_id, anchor, computed, "hypothesis gcd(n, 6) = 1 violated",
                             wall_time=elapsed)
    expected = {
        "order": 12 * n * n,
        "jordan_index": 12,
        "witness_order": n * n,
        "witness_is_translation_subgroup": True,
        "det_u_minus_identity": 3 % n,
        "det_z_minus_identity": 4 % n,
        "determinants_are_units": True,
    }
    return checked(claim_id, anchor, computed, expected, "paper", wall_time=elapsed)
