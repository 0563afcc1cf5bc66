"""Rational invariant lines in the 6-dimensional representation of S5.

The representation permutes a 6-element basis indexed by ordered pairs and
is checked as an exact homomorphism over all 14400 element pairs.  For five
standard subgroups we ask whether some line is preserved with a rational
(+-1) character; the two smallest subgroups admit one, the rest do not.

Run:  python3 demos/quintic_lines.py
"""

from cremonalab.dp5 import dp5_suite, s5_representation, verify_homomorphism


def main() -> None:
    rep = s5_representation()
    pairs = verify_homomorphism(rep)
    print("homomorphism verified over %d pairs, all determinants +-1" % pairs)
    print()
    print("subgroup  order  line?  fixed dim  eigenvalue orders")
    print("--------  -----  -----  ---------  -----------------")
    for row in dp5_suite(rep):
        note = ",".join(str(d) for d in row.complex_note) or "-"
        print(
            "%-8s  %5d  %5s  %9d  %s"
            % (row.name, row.subgroup_order, "yes" if row.has_rational_line else "no",
               row.fix_space_dim, note)
        )
        if row.witness is not None:
            print("%10s witness vector %s" % ("", list(row.witness)))
    print()
    print("'fixed dim' is the subspace fixed by the derived subgroup; the")
    print("last column factors a cyclic generator's action on that subspace.")


if __name__ == "__main__":
    main()
