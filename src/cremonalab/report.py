"""Verification report rows and the one writer of every command's output.

Every check in the package produces a VerificationReport row: a claim id, the
anchor string naming the statement being checked, the computed and expected
values, a provenance tag for the expected value, and a status.  ``emit``
renders a row list as canonical JSON or Markdown, ``table`` any other list of
dict rows, and ``dumps`` is the canonical JSON text; a Markdown cell holding a
list or dict is compact JSON with sorted keys, as in the JSON.  Timings are
kept on the rows but excluded from the canonical output so that fixed inputs
and seeds give byte-identical documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = ["VerificationReport", "checked", "informational", "emit", "table", "dumps", "passed",
           "exit_code"]

STATUSES = ("pass", "fail", "informational")


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    anchor: str
    computed: object
    expected: object
    provenance: str
    status: str
    wall_time: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError("bad status %r" % (self.status,))
        if self.status == "informational":
            if self.expected is not None:
                raise ValueError("informational rows carry no expected value")
        elif (self.status == "pass") != (self.computed == self.expected):
            raise ValueError(
                "status %r inconsistent with computed=%r expected=%r"
                % (self.status, self.computed, self.expected)
            )


def checked(claim_id: str, anchor: str, computed, expected, provenance: str,
            wall_time: float = 0.0) -> VerificationReport:
    """Build a pass/fail row from a computed-vs-expected comparison."""
    status = "pass" if computed == expected else "fail"
    return VerificationReport(claim_id, anchor, computed, expected, provenance, status, wall_time)


def informational(claim_id: str, anchor: str, computed, provenance: str,
                  wall_time: float = 0.0) -> VerificationReport:
    return VerificationReport(claim_id, anchor, computed, None, provenance,
                              "informational", wall_time)


def passed(reports) -> bool:
    return all(r.status != "fail" for r in reports)


def exit_code(reports) -> int:
    return 0 if passed(reports) else 1


def dumps(doc) -> str:
    """Canonical JSON text: sorted keys, two-space indent, one closing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _row_dict(report: VerificationReport, include_times: bool) -> dict:
    row = {
        "claim_id": report.claim_id,
        "anchor": report.anchor,
        "computed": report.computed,
        "expected": report.expected,
        "provenance": report.provenance,
        "status": report.status,
    }
    if include_times:
        row["wall_time"] = round(report.wall_time, 3)
    return row


def emit(reports, fmt: str = "json", include_times: bool = False) -> str:
    """Render report rows as one canonical JSON document or one Markdown table per suite."""
    rows = list(reports)
    if fmt == "json":
        doc = {
            "reports": [_row_dict(r, include_times) for r in rows],
            "summary": {
                "total": len(rows),
                "pass": sum(1 for r in rows if r.status == "pass"),
                "fail": sum(1 for r in rows if r.status == "fail"),
                "informational": sum(1 for r in rows if r.status == "informational"),
            },
        }
        return dumps(doc)
    if fmt != "md":
        raise ValueError("unknown emit format %r" % (fmt,))
    columns = ["claim", "anchor", "computed", "expected", "provenance", "status"]
    if include_times:
        columns.append("seconds")
    by_suite: dict[str, list] = {}
    for r in rows:
        cells = [r.claim_id, r.anchor, r.computed, r.expected, r.provenance, r.status]
        if include_times:
            cells.append("%.3f" % r.wall_time)
        by_suite.setdefault(r.claim_id.split(".", 1)[0], []).append(cells)
    lines: list[str] = []
    for suite, cell_rows in by_suite.items():
        lines += ["## %s" % suite, ""] + _markdown_table(columns, cell_rows) + [""]
    n_fail = sum(1 for r in rows if r.status == "fail")
    return "\n".join(lines + ["%d rows, %d failing." % (len(rows), n_fail), ""])


def table(rows, columns, fmt: str, meta: dict | None = None) -> str:
    """Render dict rows as canonical JSON (``meta`` plus ``rows``) or one Markdown table."""
    if fmt == "json":
        return dumps({**(meta or {}), "rows": rows})
    if fmt != "md":
        raise ValueError("unknown emit format %r" % (fmt,))
    lines = _markdown_table(columns, [[row[c] for c in columns] for row in rows])
    return "\n".join(lines + ["", "%d rows." % len(rows), ""])


def _markdown_table(columns, cell_rows) -> list[str]:
    """Header, ``---`` row and one line per row.  A None cell is empty, a
    container cell is compact sorted-key JSON in backticks, any other is str."""
    lines = [list(columns), ["---"] * len(columns)]
    for cells in cell_rows:
        lines.append(["" if value is None
                      else "`%s`" % json.dumps(value, sort_keys=True, separators=(",", ":"))
                      if isinstance(value, (dict, list, tuple)) else str(value)
                      for value in cells])
    return ["| " + " | ".join(line) + " |" for line in lines]
