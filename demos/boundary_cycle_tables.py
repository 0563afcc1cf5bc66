"""Anticanonical boundary cycles by degree and their dihedral symmetries.

Starting from three degree-9 bases (a triangle of lines, a conic plus a
line, a nodal cubic), blow-ups walk the degree down one step at a time.
Blowing up a node lengthens the cycle; blowing up a smooth point keeps the
length.  The conservation law

    sum(self-intersections) - K^2 + 2 * length - 2 * sum(genus) = 0

holds along every path, and a Fano positivity filter prunes the search.

Run:  python3 demos/boundary_cycle_tables.py
"""

from cremonalab.pole_cycles import configuration_rows, max_symmetry_by_degree


def main() -> None:
    print("max symmetry order by degree:", max_symmetry_by_degree())
    print()
    for degree in (6, 3):
        rows = configuration_rows(degree)
        print("degree %d: %d configurations" % (degree, len(rows)))
        for row in rows:
            labels = ",".join(str(s) for s in row["labels"])
            print(
                "  [%s]  genus %s  symmetry %-12s order %d"
                % (labels, row["genus"], row["symmetry_kind"], row["symmetry_order"])
            )
        print()


if __name__ == "__main__":
    main()
