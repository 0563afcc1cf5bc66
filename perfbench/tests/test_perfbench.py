"""Tests of the benchmark's correctness gate and tracing.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

REFERENCE = HERE / "reference"


def _read(name: str) -> str:
    return (REFERENCE / name).read_text()


def _alter(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


def test_references_pass_the_gate_unaltered():
    for workload in run.WORKLOADS.values():
        ref = _read(workload.reference)
        attempted, failed = gate.count_failures(workload.unit, ref, 0, ref, workload.trials)
        assert failed == 0
        assert attempted == (workload.trials or len(json.loads(ref)["reports"]))


def test_altered_report_reference_counts_a_failed_row():
    ref = _read("report_all_seed0.json")
    altered = _alter(ref, '"jordan_index": 12', '"jordan_index": 13')
    assert gate.count_failures("rows", ref, 0, altered) == (30, 1)
    # The same holds the other way round: altered output, stored reference.
    assert gate.count_failures("rows", altered, 0, ref) == (30, 1)


def test_altered_lemma52_reference_counts_a_failed_row():
    ref = _read("lemma52_large.json")
    altered = _alter(ref, '"witness_order": 169', '"witness_order": 170')
    assert gate.count_failures("rows", ref, 0, altered) == (2, 1)


def test_difference_outside_the_rows_still_fails():
    ref = _read("lemma52_large.json")
    altered = ref.replace("\n", "\n ", 1)
    assert gate.count_failures("rows", ref, 0, altered)[1] == 1


def test_fail_rows_exit_codes_and_garbage_fail():
    ref = _read("report_all_seed0.json")
    doc = json.loads(ref)
    doc["reports"][3]["status"] = "fail"
    with_fail_row = json.dumps(doc)
    assert gate.count_failures("rows", with_fail_row, 1, None) == (30, 30)
    assert gate.count_failures("rows", with_fail_row, 0, None) == (30, 1)
    assert gate.count_failures("rows", ref, 1, None) == (30, 30)
    assert gate.count_failures("rows", "not json", 0, ref) == (30, 30)
    assert gate.count_failures("rows", None, -1, ref) == (30, 30)
    missing_row = json.dumps({"reports": doc["reports"][:-1]})
    assert gate.count_failures("rows", missing_row, 0, ref)[1] >= 1


def test_conic_counters_count_failed_trials():
    ref = _read("conic_many_seed0.json")
    doc = json.loads(ref)
    noswap = next(r for r in doc["reports"] if r["claim_id"] == "conic.noswap")
    noswap["computed"]["greedy_failures"] = 3
    noswap["status"] = "fail"
    assert gate.count_failures("trials", json.dumps(doc), 1, None, 2000) == (2000, 3)


def test_altered_conic_reference_fails_every_trial():
    ref = _read("conic_many_seed0.json")
    altered = _alter(ref, '"max_index": ', '"max_index": 1')
    assert gate.count_failures("trials", ref, 0, altered, 2000) == (2000, 2000)
    assert gate.count_failures("trials", "", -1, ref, 2000) == (2000, 2000)


def test_operation_count_holds_later_iterations_to_the_first():
    counter = run.OperationCount(run.WORKLOADS["report_all"], seed=5)
    ref = _read("report_all_seed0.json")
    counter.check(ref, 0)
    counter.check(_alter(ref, '"jordan_index": 12', '"jordan_index": 13'), 0)
    assert (counter.attempted, counter.failed) == (60, 1)


def test_self_time_subtracts_children():
    ms = 1_000_000
    spans = [
        ["semidirect.verify_lemma52", -1, 0, 100 * ms, 5],
        ["jordan.normal_subgroups", 0, 10 * ms, 90 * ms, 4],
        ["groups.conjugacy_classes", 1, 10 * ms, 20 * ms, None],
        ["groups.subgroup_closure", 1, 20 * ms, 50 * ms, None],
        ["groups.subgroup_closure", 1, 50 * ms, 60 * ms, None],
        ["groups.subgroup_closure", -1, 200 * ms, 210 * ms, None],
    ]
    m = tracing.per_layer_metrics(spans)
    assert abs(m["jordan.normal_subgroups.self_s"][0] - 0.030) < 1e-12
    assert abs(m["groups.subgroup_closure.self_s"][0] - 0.050) < 1e-12
    assert m["groups.subgroup_closure.calls"][0] == 3
    assert m["jordan.normal_subgroups.closures"][0] == 2
    assert m["jordan.join_useful_ratio"][0] == 2.0
    assert abs(m["semidirect.verify_lemma52.n5.s"][0] - 0.100) < 1e-12
    assert m["semidirect.verify_lemma52.n13.s"][0] == 0.0


def test_traced_iteration_wraps_imported_bindings_and_keeps_output(tmp_path):
    args = ["verify", "lemma52", "--n", "5"]
    plain = run.launch("run", args, None, timeout=120)
    spans_path = tmp_path / "spans.json"
    traced = run.launch("trace", args, spans_path, timeout=120)
    assert traced["stdout"] == plain["stdout"]
    assert traced["exit_code"] == plain["exit_code"] == 0
    for binding in ("cremonalab.suites.verify_lemma52", "cremonalab.semidirect.normal_subgroups",
                    "cremonalab.jordan.conjugacy_classes", "cremonalab.dp5.kernel_basis",
                    "cremonalab.groups.FiniteGroup.subgroup_closure"):
        assert binding in traced["wrapped_bindings"]
    metrics = tracing.per_layer_metrics(json.loads(spans_path.read_text()))
    assert metrics["semidirect.verify_lemma52.n5.s"][0] > 0
    assert metrics["jordan.normal_subgroups.closures"][0] > 0
    assert metrics["groups.close_generators.elements"][0] == 300
    assert metrics["groups.table_bytes_max"][0] == 300 * 300 * 4 + 300 * 4
