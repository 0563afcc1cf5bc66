"""Verification report rows and canonical emission.

Every check in the package produces a VerificationReport row: a claim id, the
anchor string naming the statement being checked, the computed and expected
values, a provenance tag for the expected value, and a status.  ``emit``
renders a row list as canonical JSON or Markdown; timings are kept on the
objects but excluded from the canonical output so that fixed inputs and seeds
give byte-identical documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = ["VerificationReport", "checked", "informational", "emit", "passed", "exit_code"]

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
    """Render report rows as one canonical JSON document or Markdown tables."""
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
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "md":
        return _emit_markdown(rows, include_times)
    raise ValueError("unknown emit format %r" % (fmt,))


def _suite_of(claim_id: str) -> str:
    return claim_id.split(".", 1)[0]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list, tuple)):
        return "`" + json.dumps(value, sort_keys=True, separators=(",", ":")) + "`"
    return str(value)


def _emit_markdown(rows, include_times: bool) -> str:
    lines: list[str] = []
    suites: list[str] = []
    for r in rows:
        s = _suite_of(r.claim_id)
        if s not in suites:
            suites.append(s)
    for suite in suites:
        lines.append("## %s" % suite)
        lines.append("")
        header = "| claim | anchor | computed | expected | provenance | status |"
        sep = "| --- | --- | --- | --- | --- | --- |"
        if include_times:
            header += " seconds |"
            sep += " --- |"
        lines.append(header)
        lines.append(sep)
        for r in rows:
            if _suite_of(r.claim_id) != suite:
                continue
            cells = [r.claim_id, r.anchor, _cell(r.computed), _cell(r.expected),
                     r.provenance, r.status]
            if include_times:
                cells.append("%.3f" % r.wall_time)
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    n_fail = sum(1 for r in rows if r.status == "fail")
    lines.append("%d rows, %d failing." % (len(rows), n_fail))
    lines.append("")
    return "\n".join(lines)
