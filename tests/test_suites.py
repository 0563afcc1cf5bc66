"""Suite assembly: row identities, error capture, constants."""

import time

import pytest

from cremonalab import dp5, groups, pole_cycles
from cremonalab.cli import main
from cremonalab.dp5 import SUBGROUP_NAMES, standard_subgroups
from cremonalab.report import emit, exit_code, passed
from cremonalab.suites import (
    SUITE_NAMES,
    UnknownSuite,
    paper_constant_rows,
    run_suite,
)


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("everything")


def test_lemma52_suite_single_n():
    rows = run_suite("lemma52", ns=(5,))
    assert [r.claim_id for r in rows] == ["lemma52.n5"]
    assert rows[0].status == "pass"
    assert exit_code(rows) == 0


def test_bad_n_is_captured_as_fail_row():
    rows = run_suite("lemma52", ns=(5, 4))
    assert [r.status for r in rows] == ["pass", "fail"]
    assert rows[1].claim_id == "lemma52.n4"
    assert "HypothesisViolated" in rows[1].computed["error"]
    assert exit_code(rows) == 1


def test_bad_n_downgrades_with_allow_flag():
    rows = run_suite("lemma52", ns=(4,), allow_bad_n=True)
    assert rows[0].status == "informational"
    assert exit_code(rows) == 0


def test_cap_errors_become_fail_rows(monkeypatch):
    monkeypatch.setattr(groups, "MAX_TABLE_BYTES", 100 * 100 * 4)
    rows = run_suite("lemma52", ns=(5,))
    assert rows[0].claim_id == "lemma52.n5"
    assert rows[0].status == "fail"
    assert "CapExceeded" in rows[0].computed["error"]


def test_family_order_bound_fails_fast():
    # n = 95 gives order 108 300, past MAX_FAMILY_ORDER: refused before any work
    start = time.perf_counter()
    rows = run_suite("lemma52", ns=(95,))
    assert time.perf_counter() - start < 5
    assert rows[0].status == "fail"
    assert rows[0].computed["error"].startswith("CapExceeded: lemma52 n = 95 ")
    assert "MAX_FAMILY_ORDER=100000" in rows[0].computed["error"]


def test_all_suite_covers_documented_ids(documented_claim_ids):
    rows = run_suite("all", trials=30)
    ids = [r.claim_id for r in rows]
    assert ids == documented_claim_ids
    assert passed(rows)


def test_paper_constants():
    rows = paper_constant_rows()
    values = {r.claim_id: r.computed["value"] for r in rows}
    assert values == {
        "consts.dim3_bound": 60,
        "consts.aut_dp5": 120,
        "consts.aut_dp4": 160,
        "consts.aut_dp3": 648,
        "consts.aut_dp2": 336,
        "consts.aut_dp1": 144,
        "consts.conic_dual_complex_bound": 12,
    }
    assert all(r.status == "informational" for r in rows)
    assert all(r.provenance == "paper constant" for r in rows)


def test_suite_names_all_runnable_quickly():
    for name in SUITE_NAMES:
        if name == "all":
            continue
        rows = run_suite(name, ns=(5,), trials=20)
        assert rows, name
        assert passed(rows), name


def test_emit_empty_reports():
    doc = emit([], "json")
    assert '"reports": []' in doc
    table = emit([], "md")
    assert "0 rows, 0 failing." in table


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit([], "yaml")


def test_prop44_and_dp5_rows_are_timed_one_by_one():
    # each row carries its own measurement, not a share of one shared timer
    prop44 = {r.claim_id: r.wall_time for r in run_suite("prop44")}
    degree_times = [prop44["prop44.deg%d" % d] for d in range(1, 7)]
    assert all(t > 0 for t in degree_times)
    assert len(set(degree_times)) > 1
    # one walk down from degree 9: degree 6's row covers the three level
    # steps with the largest frontiers, degree 1's the single step from degree 2
    assert prop44["prop44.deg6"] > prop44["prop44.deg1"]
    dp5 = {r.claim_id: r.wall_time for r in run_suite("dp5")}
    line_times = [dp5["prop57.%s" % name] for name in ("s5", "a5", "g5_4", "g5_2", "c5")]
    assert all(t > 0 for t in line_times)
    assert len(set(line_times)) > 1


def test_dp5_rows_time_the_subgroup_build(monkeypatch):
    # building the five subgroups sits on a row's time, not outside every timer
    build = dp5.standard_subgroups
    monkeypatch.setattr(dp5, "standard_subgroups", lambda group: time.sleep(0.2) or build(group))
    rows = run_suite("dp5")
    assert max(r.wall_time for r in rows if r.claim_id != "prop57.hom") >= 0.2


def test_prop44_walks_each_level_once(monkeypatch):
    # every witness of degrees 9 down to 2 is expanded exactly once
    levels = []
    successors = pole_cycles._successors
    monkeypatch.setattr(pole_cycles, "_successors", lambda c: levels.append(c.k2) or successors(c))
    monkeypatch.setattr(pole_cycles, "conservation_violations", lambda seed, words: {})
    rows = run_suite("prop44")
    assert [r.claim_id for r in rows[:6]] == ["prop44.deg%d" % d for d in range(1, 7)]
    walked = {d: levels.count(d) for d in set(levels)}
    widths = {d: len(pole_cycles.enumerate_configurations(d)) for d in range(2, 9)}
    assert walked == {9: len(pole_cycles.base_pairs()), **widths}


def test_dp5_suite_builds_the_subgroups_once(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("cremonalab.dp5.standard_subgroups",
                        lambda group: calls.append(group) or standard_subgroups(group))
    rows = run_suite("dp5")
    assert len(calls) == 1
    assert [r.claim_id for r in rows[1:6]] == ["prop57.%s" % name for name in SUBGROUP_NAMES]
    # dp5 check renders the same suite's rows and builds nothing of its own
    assert main(["dp5", "check"]) == 0
    assert len(calls) == 2
