"""cremonalab benchmark: CLI workloads, each iteration in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Iterations run one at a time, each in its own interpreter started
by this process (a closed loop with one client), because CLI users start
cold on every invocation: nothing cached inside the package carries over
from one iteration to the next.

Workloads (why each exists is in BENCHMARK.json):

- ``report_all``: ``report all --seed N`` with the default 500 trials.
- ``lemma52_large``: ``verify lemma52 --n 11,13``; no random input, so it
  ignores the seed.
- ``conic_many``: ``report conic --seed N --trials 2000``.

``--trace 0`` starts a few import-only interpreters for ``setup_s``, then
runs timed iterations until the next would end after S seconds (at least
three) and reports the end-to-end metrics.  ``--trace 1`` runs untraced
iterations the same way, leaving room for one more iteration with spans
around every layer function, and reports the per-layer metrics plus
``trace.overhead_s`` (traced wall time minus the untraced median).

Every iteration's stdout goes through ``gate.count_failures``: byte-for-byte
against the stored reference document at seed 0 (and always for
``lemma52_large``), otherwise exit code 0, no ``fail`` rows, and the same
bytes as the run's first iteration.

One JSON line of details (samples, quartiles, machine facts) precedes the
result line; both are also written to ``.perfbench_out/`` with the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gate  # noqa: E402
import tracing  # noqa: E402

ROOT = HERE.parent
ITERATION = HERE / "iteration.py"
OUT_DIR = ROOT / ".perfbench_out"
# Installed CLIs start from cached bytecode; let iterations write and use it
# whatever the caller's environment says.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

MIN_ITERATIONS = 3
SETUP_LAUNCHES = 7
# The whole run must end well inside 180 s even if an iteration hangs.
RUN_DEADLINE_S = 150.0


@dataclass(frozen=True)
class Workload:
    cli: tuple[str, ...]
    seeded: bool
    unit: str  # what one operation is: a report "rows" or a conic "trials"
    reference: str
    trials: int = 0

    def args(self, seed: int) -> list[str]:
        return [a.format(seed=seed) for a in self.cli]


WORKLOADS = {
    "report_all": Workload(("report", "all", "--seed", "{seed}"), True, "rows",
                           "report_all_seed0.json"),
    "lemma52_large": Workload(("verify", "lemma52", "--n", "11,13"), False, "rows",
                              "lemma52_large.json"),
    "conic_many": Workload(("report", "conic", "--seed", "{seed}", "--trials", "2000"),
                           True, "trials", "conic_many_seed0.json", trials=2000),
}


class IterationError(RuntimeError):
    """An iteration process crashed, timed out or printed no result."""


def launch(mode: str, cli_args: list[str], spans_path: Path | None,
           timeout: float) -> dict:
    """Start one fresh interpreter, wait for it, return its result."""
    launched = time.monotonic()
    cmd = [sys.executable, str(ITERATION), mode, repr(launched),
           str(spans_path or "-"), *cli_args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise IterationError("%s iteration timed out after %.0f s" % (mode, exc.timeout))
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        result = None
    if result is None:
        raise IterationError("%s iteration exited %d: %s"
                             % (mode, proc.returncode, proc.stderr.strip()[-2000:]))
    result["total_s"] = time.monotonic() - launched
    return result


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def machine_facts(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class OperationCount:
    """Operations attempted and failed over a run's iterations."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.reference = None
        if seed == 0 or not workload.seeded:
            self.reference = (HERE / "reference" / workload.reference).read_text()
        self.attempted = 0
        self.failed = 0

    def check(self, stdout: str | None, exit_code: int) -> None:
        attempted, failed = gate.count_failures(
            self.workload.unit, stdout, exit_code, self.reference, self.workload.trials)
        if self.reference is None:
            # Other seeds have no stored document: later iterations must
            # repeat the first one byte for byte.
            self.reference = stdout
        self.attempted += attempted
        self.failed += failed


def run_iterations(workload: Workload, seed: int, budget_end: float, run_end: float,
                   checker: OperationCount, reserve: int, minimum: int) -> list[dict]:
    """Untraced iterations until the next ``reserve`` would pass ``budget_end``."""
    results: list[dict] = []
    while True:
        now = time.monotonic()
        if len(results) >= minimum:
            estimate = statistics.median(r["total_s"] for r in results)
            if now + reserve * estimate > budget_end:
                return results
        result = launch("run", workload.args(seed), None, run_end - now)
        checker.check(result["stdout"], result["exit_code"])
        results.append(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cremonalab" / "cli.py").is_file():
        sys.stderr.write("error: no cremonalab sources under %s\n" % (ROOT / "src"))
        return 2
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    budget_end = started + args.seconds
    run_end = started + RUN_DEADLINE_S
    checker = OperationCount(workload, args.seed)
    details = {"workload": args.workload, "cli_args": workload.args(args.seed),
               "seconds": args.seconds, "trace": args.trace,
               "machine": machine_facts(args.seed)}
    OUT_DIR.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    try:
        # Untimed: the first start-up in a checkout writes the bytecode cache.
        launch("setup", [], None, run_end - time.monotonic())
        if args.trace == 0:
            setups = [launch("setup", [], None, run_end - time.monotonic())["setup_s"]
                      for _ in range(SETUP_LAUNCHES)]
            results = run_iterations(workload, args.seed, budget_end, run_end, checker,
                                     reserve=1, minimum=MIN_ITERATIONS)
            setups += [r["setup_s"] for r in results]
            walls = summary([r["wall_s"] for r in results])
            rss = summary([r["maxrss_kb"] / 1024 for r in results])
            details.update(setup_s=summary(setups), wall_s=walls, peak_rss_mb=rss,
                           cpu_s=summary([r["cpu_s"] for r in results]))
            metrics = {
                "wall_s": (walls["median"], "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (rss["median"], "MB"),
            }
        else:
            results = run_iterations(workload, args.seed, budget_end, run_end, checker,
                                     reserve=2, minimum=1)
            spans_path = OUT_DIR / (stem + "-spans.json")
            traced = launch("trace", workload.args(args.seed), spans_path,
                            run_end - time.monotonic())
            checker.check(traced["stdout"], traced["exit_code"])
            untraced = summary([r["wall_s"] for r in results])
            metrics = tracing.per_layer_metrics(json.loads(spans_path.read_text()))
            metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["median"], "s")
            details.update(untraced_wall_s=untraced, traced_wall_s=traced["wall_s"],
                           wrapped_bindings=traced["wrapped_bindings"],
                           spans_file=str(spans_path.relative_to(ROOT)))
    except IterationError as exc:
        sys.stderr.write("error: %s\n" % exc)
        checker.check(None, -1)
        metrics = {}

    pass_fraction = 1.0 - checker.failed / checker.attempted
    if args.trace == 0:
        metrics["pass_fraction"] = (pass_fraction, "fraction")
    details.update(attempted=checker.attempted, failed=checker.failed,
                   fail_fraction=1.0 - pass_fraction, elapsed_s=time.monotonic() - started)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / (stem + ".json")).write_text(json.dumps({"details": details, "result": result},
                                                       indent=2) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
