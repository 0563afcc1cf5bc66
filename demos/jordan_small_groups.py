"""Tour the bundled corpus: order, normal subgroups, minimal abelian-normal index.

Run:  python3 demos/jordan_small_groups.py
"""

from cremonalab import report_fragment, small_group_corpus


def main() -> None:
    print("group   order  normals  index  witness order")
    print("-----   -----  -------  -----  -------------")
    for name, group in small_group_corpus().items():
        fragment = report_fragment(group)
        print(
            "%-7s %5d  %7d  %5d  %13d"
            % (name, fragment["order"], fragment["normal_subgroup_count"],
               fragment["jordan_index"], fragment["witness_order"])
        )
    print()
    print("The index is the smallest index of an abelian normal subgroup;")
    print("abelian groups score 1, and the witness is the subgroup attaining it.")


if __name__ == "__main__":
    main()
