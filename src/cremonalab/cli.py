"""Command-line front end.

Commands: ``verify lemma52 --n <list>``, ``enumerate --degree <d>``,
``dp5 check``, ``conic simulate --seed <s> --trials <t>``,
``jordan <groupfile>``, ``report <suite>``.  Exit codes: 0 all-pass,
1 any fail, 2 usage error.  Output is deterministic for fixed options
and seeds, except that ``verify`` and ``report`` add each row's measured
wall time when given ``--times``.  This module parses arguments and
dispatches; ``report`` writes every command's JSON and Markdown.
"""

from __future__ import annotations

import argparse
import sys

from . import conic_fibers, dp5, pole_cycles, report, suites
from .groups import GroupError
from .groupfiles import GroupFileError, load_group
from .jordan import report_fragment

__all__ = ["main", "build_parser", "MAX_TRIALS"]

USAGE_EXIT = 2
# --trials runs one random model per trial (about 0.1 ms each on one CPU of
# a 2-vCPU x86-64 host, about 0.06 ms each with the trials split across
# both), so a million trials take about a minute and a billion would take
# more than half a day.
MAX_TRIALS = 10**6

ENUMERATE_COLUMNS = ("labels", "genus", "K2", "symmetry_order", "symmetry_kind",
                     "witness_base", "witness_word")
DP5_COLUMNS = ("name", "order", "rational_line_exists", "fix_space_dim",
               "complex_note", "caveat")
TIMES_HELP = "add each row's measured wall time in seconds (output no longer canonical)"


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError("--n wants a comma-separated integer list, got %r" % text)
    if not values:
        raise argparse.ArgumentTypeError("--n list is empty")
    # distinct values bound the work: only n <= 91 fit under semidirect.MAX_FAMILY_ORDER
    seen: set[int] = set()
    for n in values:
        if n < 2:
            raise argparse.ArgumentTypeError("--n values must be at least 2, got %d" % n)
        if n in seen:
            raise argparse.ArgumentTypeError("--n names %d more than once" % n)
        seen.add(n)
    return values


def _trial_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("wants a positive integer, got %r" % text)
    if value > MAX_TRIALS:
        raise argparse.ArgumentTypeError("wants at most MAX_TRIALS=%d trials, got %r"
                                         % (MAX_TRIALS, text))
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cremonalab",
        description="Verification suites for finite-group and surface-configuration claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify one named claim family")
    p_verify.add_argument("target", choices=["lemma52"])
    p_verify.add_argument("--n", type=_parse_n_list, default=suites.DEFAULT_NS,
                          help="comma-separated n values (default 5,7,11)")
    p_verify.add_argument("--allow-bad-n", action="store_true",
                          help="record hypothesis-violating n as informational instead of failing")
    p_verify.add_argument("--emit", choices=["json", "md"], default="json")
    p_verify.add_argument("--times", action="store_true", help=TIMES_HELP)

    p_enum = sub.add_parser("enumerate", help="boundary-cycle configurations for one degree")
    p_enum.add_argument("--degree", type=int, required=True)
    p_enum.add_argument("--emit", choices=["json", "md"], default="json")

    p_dp5 = sub.add_parser("dp5", help="rational invariant-line checks")
    p_dp5.add_argument("action", choices=["check"])
    p_dp5.add_argument("--emit", choices=["json", "md"], default="json")

    p_conic = sub.add_parser("conic", help="fiber-model simulation")
    p_conic.add_argument("action", choices=["simulate"])
    p_conic.add_argument("--seed", type=int, default=0)
    p_conic.add_argument("--trials", type=_trial_count, default=suites.DEFAULT_TRIALS)
    p_conic.add_argument("--emit", choices=["json", "md"], default="json")

    p_jordan = sub.add_parser("jordan", help="minimal abelian-normal index of a group file")
    p_jordan.add_argument("groupfile")

    p_report = sub.add_parser("report", help="run a verification suite")
    p_report.add_argument("suite", choices=list(suites.SUITE_NAMES))
    p_report.add_argument("--emit", choices=["json", "md"], default="json")
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--trials", type=_trial_count, default=suites.DEFAULT_TRIALS)
    p_report.add_argument("--times", action="store_true", help=TIMES_HELP)
    return parser


def _run_verify(args) -> int:
    rows = suites.run_suite("lemma52", ns=args.n, allow_bad_n=args.allow_bad_n)
    sys.stdout.write(report.emit(rows, args.emit, include_times=args.times))
    return report.exit_code(rows)


def _run_enumerate(args) -> int:
    try:
        rows = pole_cycles.configuration_rows(args.degree)
    except pole_cycles.InvalidDegree as exc:
        sys.stderr.write("error: %s\n" % exc)
        return USAGE_EXIT
    sys.stdout.write(report.table(rows, ENUMERATE_COLUMNS, args.emit, {"degree": args.degree}))
    return 0


def _run_dp5(args) -> int:
    # a view of the report dp5 rows: one line per subgroup, the exit code of the rows
    rows = suites.run_suite("dp5")
    computed = {r.claim_id: r.computed for r in rows}
    lines = []
    for name, data in computed.get("prop57.complex", {}).items():
        exists = computed["prop57.%s" % name]["rational_line_exists"]
        lines.append(dict(zip(DP5_COLUMNS, (name, dp5.SUBGROUP_ORDERS[name], exists,
                                            data["fix_space_dim"], data["complex_note"],
                                            dp5.CAVEAT if exists else ""))))
    sys.stdout.write(report.table(lines, DP5_COLUMNS, args.emit))
    sys.stderr.writelines("fail: %s computed %s, expected %s\n" % (r.claim_id, r.computed, r.expected)
                          for r in rows if r.status == "fail")
    return report.exit_code(rows)


def _run_conic(args) -> int:
    sim = conic_fibers.simulate(args.seed, args.trials)
    if args.emit == "json":
        sys.stdout.write(report.dumps(sim))
    else:
        rows = [{"key": k, "value": sim[k]} for k in sorted(sim)]
        sys.stdout.write(report.table(rows, ("key", "value"), "md"))
    return report.exit_code(suites.conic_rows(sim, args.trials))


def _run_jordan(args) -> int:
    try:
        fragment = report_fragment(load_group(args.groupfile))
    except FileNotFoundError:
        sys.stderr.write("error: no such file: %s\n" % args.groupfile)
        return USAGE_EXIT
    except OSError as exc:
        sys.stderr.write("error: cannot read %s: %s\n" % (args.groupfile, exc.strerror or exc))
        return USAGE_EXIT
    except GroupFileError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return USAGE_EXIT
    except GroupError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    sys.stdout.write(report.dumps(fragment))
    return 0


def _run_report(args) -> int:
    rows = suites.run_suite(args.suite, seed=args.seed, trials=args.trials)
    sys.stdout.write(report.emit(rows, args.emit, include_times=args.times))
    return report.exit_code(rows)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; pass both through.
        return int(exc.code or 0)
    handlers = {
        "verify": _run_verify,
        "enumerate": _run_enumerate,
        "dp5": _run_dp5,
        "conic": _run_conic,
        "jordan": _run_jordan,
        "report": _run_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
