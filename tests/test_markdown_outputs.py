"""The Markdown writer, reproduced byte for byte in process, and its cells
checked against the JSON of the same command."""

import json
from pathlib import Path

import pytest

from cremonalab.cli import main

REFERENCE = Path(__file__).resolve().parent / "reference"


@pytest.mark.parametrize("argv, name", [
    (["report", "all", "--seed", "0", "--emit", "md"], "report_all_seed0.md"),
    (["dp5", "check", "--emit", "md"], "dp5_check.md"),
    (["enumerate", "--degree", "6", "--emit", "md"], "enumerate_degree6.md"),
    (["conic", "simulate", "--seed", "0", "--trials", "200", "--emit", "md"],
     "conic_simulate_seed0.md"),
], ids=["report_all", "dp5_check", "enumerate", "conic_simulate"])
def test_markdown_matches_reference(capsys, argv, name):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (REFERENCE / name).read_bytes()


def test_conic_markdown_cells_are_the_json_values(capsys):
    argv = ["conic", "simulate", "--seed", "3", "--trials", "300"]
    assert main(argv) == 0
    sim = json.loads(capsys.readouterr().out)
    assert main(argv + ["--emit", "md"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["| key | value |", "| --- | --- |"]
    cells = dict(line.strip("| ").split(" | ") for line in lines[2:2 + len(sim)])
    assert cells.keys() == sim.keys()
    for key, value in sim.items():
        assert cells[key].strip("`") == json.dumps(value, sort_keys=True, separators=(",", ":")), key
