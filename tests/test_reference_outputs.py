"""The benchmark's recorded reports, a 2000-trial conic simulation at seed 1,
the lemma52 rows at the n that violate its hypothesis and the dp5 check
table, reproduced byte for byte in process."""

from pathlib import Path

import pytest

from cremonalab.cli import main

TESTS = Path(__file__).resolve().parent
REFERENCE = TESTS.parent / "perfbench" / "reference"


@pytest.mark.parametrize("argv, path", [
    (["report", "all", "--seed", "0"], REFERENCE / "report_all_seed0.json"),
    (["verify", "lemma52", "--n", "11,13"], REFERENCE / "lemma52_large.json"),
    (["report", "conic", "--seed", "0", "--trials", "2000"], REFERENCE / "conic_many_seed0.json"),
    # a seed and trial count no test pins otherwise
    (["conic", "simulate", "--seed", "1", "--trials", "2000"],
     TESTS / "reference" / "conic_simulate_seed1.json"),
    # index 6 at n = 2, and at n = 3 a tie between abelian normal subgroups
    # of order 9 broken by key, so the witness is not the translations
    (["verify", "lemma52", "--n", "2,3,4,6", "--allow-bad-n"],
     TESTS / "reference" / "lemma52_bad_n.json"),
    (["dp5", "check"], TESTS / "reference" / "dp5_check.json"),
], ids=["report_all", "lemma52_large", "conic_many", "conic_simulate_seed1", "lemma52_bad_n",
     "dp5_check"])
def test_output_matches_reference(capsys, argv, path):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes()
