"""The benchmark's recorded reports, reproduced byte for byte in process."""

from pathlib import Path

import pytest

from cremonalab.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


@pytest.mark.parametrize("argv, name", [
    (["report", "all", "--seed", "0"], "report_all_seed0.json"),
    (["verify", "lemma52", "--n", "11,13"], "lemma52_large.json"),
    (["report", "conic", "--seed", "0", "--trials", "2000"], "conic_many_seed0.json"),
], ids=["report_all", "lemma52_large", "conic_many"])
def test_output_matches_reference(capsys, argv, name):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (REFERENCE / name).read_bytes()
