"""Correctness gate for one iteration's CLI output.

An operation is one report row (``rows`` workloads) or one simulated trial
(``trials`` workloads).  ``count_failures`` returns (attempted, failed) for
one iteration, given its stdout, its exit code and, when there is one, the
reference document the stdout must equal byte for byte.
"""

from __future__ import annotations

import json

CONIC_COUNTERS = {
    "conic.noswap": ("greedy_failures", "invariance_failures", "scan_disagreements"),
    "conic.indexbound": ("bound_violations",),
}


def _rows(text: str | None) -> list[dict] | None:
    try:
        rows = json.loads(text)["reports"]
    except (ValueError, KeyError, TypeError):
        return None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        return None
    return rows


def _count_rows(stdout: str, exit_code: int, reference: str | None) -> tuple[int, int]:
    rows = _rows(stdout)
    ref_rows = _rows(reference)
    attempted = max(len(rows or ()), len(ref_rows or ()), 1)
    if rows is None or exit_code != 0:
        return attempted, attempted
    bad = {i for i, row in enumerate(rows) if row.get("status") == "fail"}
    if reference is not None and stdout != reference:
        ref_rows = ref_rows or []
        bad.update(i for i in range(attempted)
                   if i >= len(rows) or i >= len(ref_rows) or rows[i] != ref_rows[i])
        if not bad:
            bad.add(-1)  # same rows, but the document differs elsewhere
    return attempted, len(bad)


def _count_trials(stdout: str, exit_code: int, reference: str | None,
                  trials: int) -> tuple[int, int]:
    rows = _rows(stdout)
    by_id = {r.get("claim_id"): r for r in rows or ()}
    try:
        counted = sum(int(by_id[claim]["computed"][key])
                      for claim, keys in CONIC_COUNTERS.items() for key in keys)
    except (KeyError, TypeError, ValueError):
        return trials, trials
    unexplained = (exit_code != 0
                   or any(r.get("status") == "fail" for r in rows)
                   or (reference is not None and stdout != reference))
    if unexplained and counted == 0:
        # Something is wrong that no per-trial counter names: every trial
        # of the iteration counts as failed.
        return trials, trials
    return trials, min(counted, trials)


def count_failures(unit: str, stdout: str | None, exit_code: int,
                   reference: str | None, trials: int = 0) -> tuple[int, int]:
    """(attempted, failed) operations of one iteration.

    ``rows``: every row with status ``fail``, every row that differs from or
    is missing against the reference, and with a non-zero exit code or
    unparsable output every row, fails.  ``trials``: the greedy, invariance,
    scan and bound counters count failed trials; a failure none of them
    explains (exit code, fail row, mismatch) fails all ``trials``.
    """
    if unit == "rows":
        return _count_rows(stdout, exit_code, reference)
    if unit == "trials":
        return _count_trials(stdout, exit_code, reference, trials)
    raise ValueError("unknown operation unit %r" % (unit,))
