"""The order-12n^2 family with minimal abelian-normal index exactly 12.

For gcd(n, 6) = 1 and n > 1 the translation subgroup (Z/n)^2 is the largest
abelian normal subgroup, and no smaller-index one exists.  The determinants
det(U - I) = 3 and det(Z - I) = 4 control this: they are units mod n exactly
when gcd(n, 6) = 1.

Run:  python3 demos/index_twelve_family.py
"""

from math import gcd

from cremonalab.semidirect import build_action_data, verify_lemma52


def main() -> None:
    print("determinant criteria, n = 2..13:")
    for n in range(2, 14):
        data = build_action_data(n)
        units = data.determinants_are_units()
        marker = "unit" if units else "   -"
        print(
            "  n=%2d  det(U-I)=%2d  det(Z-I)=%2d  %s  (gcd(n,6)=%d)"
            % (n, data.det_u_minus_identity, data.det_z_minus_identity, marker, gcd(n, 6))
        )

    print()
    for n in (5, 7):
        row = verify_lemma52(n)
        print("n = %d:" % n)
        for key in ("order", "jordan_index", "witness_order", "witness_is_translation_subgroup"):
            print("  %-32s %s" % (key, row.computed[key]))


if __name__ == "__main__":
    main()
