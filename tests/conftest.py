"""Shared test plumbing: the documented claim ids, and acceptance verdict
lines surfaced after the run."""

import json
from pathlib import Path

import pytest

ACCEPTANCE_LINES: list[str] = []
REPORT_ALL_REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench" / "reference"
                        / "report_all_seed0.json")


@pytest.fixture(scope="session")
def documented_claim_ids() -> list[str]:
    """Claim ids of the committed ``report all --seed 0`` document, in order."""
    doc = json.loads(REPORT_ALL_REFERENCE.read_text())
    return [row["claim_id"] for row in doc["reports"]]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria", sep="-")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
