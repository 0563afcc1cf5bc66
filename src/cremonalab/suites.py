"""Named verification suites assembled from the check modules.

Each suite turns one cluster of claims into VerificationReport rows with
stable claim ids, so the emitted document is diffable across runs.  Module
errors become fail rows instead of crashing the report: a broken check is a
result, not an excuse to produce no report at all.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from . import conic_fibers, dp5, pole_cycles
from .report import VerificationReport, checked, informational
from .semidirect import verify_lemma52

__all__ = [
    "UnknownSuite",
    "SUITE_NAMES",
    "DEFAULT_NS",
    "DEFAULT_TRIALS",
    "EXPECTED_LINE_VERDICTS",
    "run_suite",
    "conic_rows",
    "paper_constant_rows",
]

SUITE_NAMES = ("lemma52", "prop44", "dp5", "conic", "all")

DEFAULT_NS = (5, 7, 11)
DEFAULT_TRIALS = 500
CONSERVATION_WORDS_PER_BASE = 1000

EXPECTED_MAX_SYMMETRY = {6: 12, 5: 10, 4: 8, 3: 6, 2: 4, 1: 2}

EXPECTED_LINE_VERDICTS = {
    "s5": False,
    "a5": False,
    "g5_4": False,
    "g5_2": True,
    "c5": True,
}

# Constants cited but not recomputed; emitted with provenance "paper constant".
PAPER_CONSTANTS = (
    ("consts.dim3_bound", "§6 (dimension 3)", 60),
    ("consts.aut_dp5", "§7.1 (degree 5)", 120),
    ("consts.aut_dp4", "§7.1 (degree 4)", 160),
    ("consts.aut_dp3", "§7.1 (degree 3)", 648),
    ("consts.aut_dp2", "§7.1 (degree 2)", 336),
    ("consts.aut_dp1", "§7.1 (degree 1)", 144),
    ("consts.conic_dual_complex_bound", "Prop 4.5", 12),
)


class UnknownSuite(ValueError):
    """Requested suite name is not one of SUITE_NAMES."""


def _error_row(claim_id: str, anchor: str, exc: Exception) -> VerificationReport:
    detail = {"error": "%s: %s" % (type(exc).__name__, exc)}
    return checked(claim_id, anchor, detail, {"error": None}, "module error")


def _lemma52_rows(ns, allow_bad_n: bool) -> list[VerificationReport]:
    rows = []
    for n in ns:
        anchor = "Lemma 5.2 (n = %d)" % n
        try:
            rows.append(verify_lemma52(n, allow_bad_n=allow_bad_n))
        except Exception as exc:
            rows.append(_error_row("lemma52.n%d" % n, anchor, exc))
    return rows


def _prop44_rows(seed: int) -> list[VerificationReport]:
    rows = []
    # One walk down the degrees, highest first, so each row is timed over its
    # own level steps; the rows are listed in ascending degree.
    start = time.perf_counter()
    for degree, order in pole_cycles.max_symmetry_levels(EXPECTED_MAX_SYMMETRY):
        rows.insert(0, checked(
            "prop44.deg%d" % degree,
            "Prop 4.4 (degree %d)" % degree,
            {"max_symmetry_order": order},
            {"max_symmetry_order": EXPECTED_MAX_SYMMETRY[degree]},
            "paper",
            wall_time=time.perf_counter() - start,
        ))
        start = time.perf_counter()
    violations = pole_cycles.conservation_violations(seed, CONSERVATION_WORDS_PER_BASE)
    rows.append(checked(
        "prop44.conservation",
        "Prop 4.4 (conservation law)",
        {"words_per_base": CONSERVATION_WORDS_PER_BASE, "violations": violations},
        {"words_per_base": CONSERVATION_WORDS_PER_BASE,
         "violations": {name: 0 for name in violations}},
        "derived",
        wall_time=time.perf_counter() - start,
    ))
    return rows


def _dp5_rows() -> list[VerificationReport]:
    start = time.perf_counter()
    rep = dp5.s5_representation()
    pairs = dp5.verify_homomorphism(rep)
    rows = [checked(
        "prop57.hom",
        "Prop 5.7 (representation is a homomorphism)",
        {"pairs_checked": pairs, "determinants_unimodular": True},
        {"pairs_checked": rep.group.order ** 2, "determinants_unimodular": True},
        "derived",
        wall_time=time.perf_counter() - start,
    )]
    lines = dp5.dp5_suite(rep)
    rows += [checked(
        "prop57.%s" % lr.name,
        "Prop 5.7 (G = %s, order %d)" % (lr.name, lr.subgroup_order),
        {"rational_line_exists": lr.has_rational_line},
        {"rational_line_exists": EXPECTED_LINE_VERDICTS[lr.name]},
        "paper",
        wall_time=lr.seconds,
    ) for lr in lines]
    rows.append(checked(
        "prop57.dp5",
        "Prop 5.7 (all five verdicts)",
        {lr.name: lr.has_rational_line for lr in lines},
        dict(EXPECTED_LINE_VERDICTS),
        "paper",
    ))
    rows.append(informational(
        "prop57.complex",
        "Prop 5.7 (fixed-space data)",
        {lr.name: {"fix_space_dim": lr.fix_space_dim, "complex_note": list(lr.complex_note)}
         for lr in lines},
        "derived",
    ))
    return rows


def _conic_rows(finish, trials: int) -> list[VerificationReport]:
    """The conic suite's rows from finish(), a simulation result and the
    seconds its trials took."""
    sim, seconds = finish()
    return conic_rows(sim, trials, sim_time=seconds)


def conic_rows(sim: dict, trials: int, sim_time: float = 0.0) -> list[VerificationReport]:
    """The conic suite's rows from one ``conic_fibers.simulate`` result, timed ``sim_time``."""
    return [
        checked(
            "conic.noswap",
            "Lemma 7.6 (no-swap subgroup exists)",
            {"trials": sim["trials"],
             "greedy_failures": sim["greedy_failures"],
             "invariance_failures": sim["invariance_failures"],
             "scan_disagreements": sim["scan_disagreements"]},
            {"trials": trials,
             "greedy_failures": 0,
             "invariance_failures": 0,
             "scan_disagreements": 0},
            "paper",
            wall_time=sim_time,
        ),
        checked(
            "conic.indexbound",
            "Lemma 7.8 (index of the no-swap subgroup)",
            {"trials": sim["trials"],
             "bound_violations": sim["bound_violations"],
             "all_indices_at_most_16": sim["max_index"] <= 16},
            {"trials": trials,
             "bound_violations": 0,
             "all_indices_at_most_16": True},
            "paper",
        ),
        informational(
            "conic.maxindex",
            "Lemma 7.8 (observed indices)",
            {"seed": sim["seed"],
             "trials": sim["trials"],
             "max_index": sim["max_index"],
             "index_histogram": sim["index_histogram"],
             "no_clean_lift": sim["no_clean_lift"],
             "inadmissible": sim["inadmissible"]},
            "derived (simulation)",
        ),
        checked(
            "thm79.factor16",
            "Thm 7.9 (swap-index factor)",
            {"swap_index_factor": conic_fibers.swap_index_factor()},
            {"swap_index_factor": 16},
            "paper",
        ),
        checked(
            "thm79.constant",
            "Thm 7.9 (constant)",
            {"weak_geometric_constant": conic_fibers.weak_geometric_constant()},
            {"weak_geometric_constant": 4608},
            "paper",
        ),
    ]


def paper_constant_rows() -> list[VerificationReport]:
    """Informational rows for cited constants that are not recomputed here."""
    return [
        informational(claim_id, anchor, {"value": value}, "paper constant")
        for claim_id, anchor, value in PAPER_CONSTANTS
    ]


def run_suite(name: str, ns=DEFAULT_NS, seed: int = 0, trials: int = DEFAULT_TRIALS,
              allow_bad_n: bool = False) -> list[VerificationReport]:
    """Run one named suite and return its report rows.

    ``ns`` feeds the lemma52 suite, ``seed``/``trials`` the randomized
    checks.  ``allow_bad_n`` downgrades hypothesis-violating n values to
    informational rows instead of failing.
    Raises UnknownSuite for unknown names; any error inside a suite becomes
    a fail row so a report is always produced.

    ``conic`` and ``all`` start the conic trials first
    (``conic_fibers._started``), in forked children that claim blocks of
    them while this process checks lemma52, prop44 and dp5; in the conic
    suite's turn this process claims the blocks still left, then collects
    the children's tallies, so the rows and their order are those of the
    suites run one after another.  With one CPU, no ``os.fork`` or too few
    trials, nothing is forked and every block runs here in its turn.
    """
    if name not in SUITE_NAMES:
        raise UnknownSuite("unknown suite %r; expected one of %s" % (name, ", ".join(SUITE_NAMES)))
    parts: list[tuple[str, object]] = []
    if name in ("lemma52", "all"):
        parts.append(("lemma52", lambda: _lemma52_rows(ns, allow_bad_n)))
    if name in ("prop44", "all"):
        parts.append(("prop44", lambda: _prop44_rows(seed)))
    if name in ("dp5", "all"):
        parts.append(("dp5", lambda: _dp5_rows()))
    conic = name in ("conic", "all")
    if conic:
        # finish is bound below: the simulation and the seconds its trials took
        parts.append(("conic", lambda: _conic_rows(finish, trials)))
    rows: list[VerificationReport] = []
    with (conic_fibers._started(seed, trials) if conic else nullcontext()) as finish:
        for suite, fn in parts:
            try:
                rows.extend(fn())
            except Exception as exc:
                rows.append(_error_row("%s.error" % suite, "suite %s" % suite, exc))
    if name == "all":
        rows.extend(paper_constant_rows())
    return rows
