"""The order-12n^2 family (Z/n)^2 x| D6 and its minimal abelian-normal index.

D6 here is the dihedral group of order 12, presented as r^6 = s^2 = 1,
s r s = r^-1, acting on (Z/n)^2 through a matrix representation rho that is
pinned by two matrices: the 3-cycle part acts by U = [[-1, 1], [-1, 0]] and
the half-turn part by Z = -I.  The determinants det(U - I) = 3 and
det(Z - I) = 4 are units mod n exactly when gcd(n, 6) = 1, which is what makes
the translation subgroup the unique largest abelian normal subgroup and the
minimal index equal to 12.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd

from .groups import (
    FiniteGroup,
    IncompatiblePayloads,
    ModMatrix,
    Subgroup,
    check_table_bytes,
    close_generators,
)
from .jordan import jordan_index, normal_subgroups
from .rational import exact_det
from .report import VerificationReport, checked, informational

__all__ = [
    "NoConsistentAction",
    "HypothesisViolated",
    "ModularDihedralAction",
    "SemidirectPair",
    "dihedral_product",
    "build_action_data",
    "build_group",
    "translation_subgroup",
    "verify_lemma52",
]

Mat2 = tuple[tuple[int, int], tuple[int, int]]


class NoConsistentAction(RuntimeError):
    """No matrix action satisfies the pinned constraints mod n."""


class HypothesisViolated(ValueError):
    """The requested n is outside gcd(n, 6) = 1, n > 1."""


def dihedral_product(a: int, b: int) -> int:
    """Multiply dihedral indices; index = rotation + 6 * reflection_bit."""
    ra, ea = a % 6, a // 6
    rb, eb = b % 6, b // 6
    rot = (ra - rb) % 6 if ea else (ra + rb) % 6
    return rot + 6 * ((ea + eb) % 2)


# dihedral_product as a table, _D6[a][b], read by SemidirectPair.compose
_D6 = tuple(tuple(dihedral_product(a, b) for b in range(12)) for a in range(12))


def _det_minus_identity(m: Mat2, n: int) -> int:
    return exact_det([[e - (i == j) for j, e in enumerate(row)] for i, row in enumerate(m)]) % n


@dataclass(frozen=True)
class ModularDihedralAction:
    """The twelve matrices rho(d) mod n, plus the pinned U and Z.

    rho[d] is rho(r^d) for d < 6 and rho(r^(d-6) s) after, so rho[6] = rho(s).
    """

    modulus: int
    u: Mat2
    z: Mat2
    rho: tuple[Mat2, ...]

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
    """Solve the dihedral action on (Z/n)^2 from the pinned constraints.

    rho_r must satisfy rho_r^2 = U and rho_r^3 = Z; since det U = 1, the only
    candidate is Z U^-1, and the swap matrix serves as rho_s.  All dihedral
    relations are verified; NoConsistentAction is raised if any fails.
    """
    if n < 2:
        raise ValueError("modulus must be at least 2")
    u = ModMatrix(n, ((-1, 1), (-1, 0)))
    z = ModMatrix(n, ((-1, 0), (0, -1)))
    # det U = 1, so U^-1 is the adjugate.
    rho_r = z.compose(ModMatrix(n, ((0, -1), (1, -1))))
    rho_s = ModMatrix(n, ((0, 1), (1, 0)))

    ident = rho_s.identity()
    powers = [ident]
    for _ in range(6):
        powers.append(powers[-1].compose(rho_r))
    if powers[2] != u or powers[3] != z or powers[6] != ident:
        raise NoConsistentAction("no rho_r with rho_r^2 = U, rho_r^3 = Z mod %d" % n)
    if rho_s.compose(rho_s) != ident:
        raise NoConsistentAction("rho_s is not an involution mod %d" % n)
    if rho_s.compose(rho_r).compose(rho_s) != powers[5]:
        raise NoConsistentAction("dihedral relation s r s = r^-1 fails mod %d" % n)

    rho = tuple((powers[d % 6] if d < 6 else powers[d % 6].compose(rho_s)).entries
                for d in range(12))
    return ModularDihedralAction(n, u.entries, z.entries, rho)


@dataclass(frozen=True)
class SemidirectPair:
    """Element (vector, dihedral index) of (Z/n)^2 x| D6."""

    modulus: int
    vector: tuple[int, int]
    twist: int
    rho: tuple[Mat2, ...]

    kind = "semidirect"

    def key(self) -> bytes:
        return ("S|%d|%d,%d|%d" % (self.modulus, self.vector[0], self.vector[1], self.twist)).encode()

    def compose(self, other: "SemidirectPair") -> "SemidirectPair":
        if not isinstance(other, SemidirectPair) or other.modulus != self.modulus:
            raise IncompatiblePayloads("cannot compose %r with %r" % (self, other))
        n = self.modulus
        (a, b), (c, d) = self.rho[self.twist]
        v0, v1 = self.vector
        w0, w1 = other.vector
        moved = ((v0 + a * w0 + b * w1) % n, (v1 + c * w0 + d * w1) % n)
        return SemidirectPair(n, moved, _D6[self.twist][other.twist], self.rho)

    def identity(self) -> "SemidirectPair":
        return SemidirectPair(self.modulus, (0, 0), 0, self.rho)


def build_group(n: int) -> FiniteGroup:
    """Close the full group of order 12 n^2 from translations and D6 twists."""
    expected = 12 * n * n
    check_table_bytes(expected)
    data = build_action_data(n)
    gens = [
        SemidirectPair(n, (1, 0), 0, data.rho),
        SemidirectPair(n, (0, 1), 0, data.rho),
        SemidirectPair(n, (0, 0), 1, data.rho),   # order-6 rotation
        SemidirectPair(n, (0, 0), 6, data.rho),   # reflection
    ]
    group = close_generators(gens)
    if group.order != expected:
        raise NoConsistentAction("closure has order %d, wanted %d" % (group.order, expected))
    return group


def translation_subgroup(group: FiniteGroup) -> Subgroup:
    """The subgroup of pure translations (trivial dihedral part).

    ``build_group`` lists the two unit translations first among its generators.
    """
    members = [i for i, e in enumerate(group.elements) if e.twist == 0]
    return group.subgroup(members, gens=group.generators[:2])


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
    # the action build_group solved, off its payloads: U = rho(r^2), Z = rho(r^3)
    rho = group.elements[0].rho
    data = ModularDihedralAction(n, rho[2], rho[3], rho)
    lattice = normal_subgroups(group)
    cert = jordan_index(group, lattice=lattice)
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
