"""Report rows, canonical emission and the command-line surface."""

import contextlib
import dataclasses
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkout import ROOT as PKG_ROOT, run_python
from cremonalab import cli, conic_fibers, dp5, groups
from cremonalab.cli import main
from cremonalab.groups import Subgroup
from cremonalab.pole_cycles import configuration_rows
from cremonalab.report import VerificationReport, checked, emit, exit_code, informational


def run_cli(*args, **kwargs):
    return run_python("-m", "cremonalab.cli", *args, **kwargs)


# --- report rows ---------------------------------------------------------


def test_report_invariants_enforced():
    with pytest.raises(ValueError):
        VerificationReport("x.y", "anchor", 1, 2, "paper", "pass")
    with pytest.raises(ValueError):
        VerificationReport("x.y", "anchor", 1, 1, "paper", "fail")
    with pytest.raises(ValueError):
        VerificationReport("x.y", "anchor", 1, 1, "paper", "informational")
    with pytest.raises(ValueError):
        VerificationReport("x.y", "anchor", 1, 1, "paper", "maybe")


def test_checked_and_exit_codes():
    good = checked("a.b", "anchor", 3, 3, "paper")
    bad = checked("a.c", "anchor", 3, 4, "paper")
    info = informational("a.d", "anchor", {"seen": 1}, "derived")
    assert good.status == "pass"
    assert bad.status == "fail"
    assert exit_code([good, info]) == 0
    assert exit_code([good, bad]) == 1


def test_emit_json_is_canonical():
    rows = [checked("a.b", "anchor", 1, 1, "paper")]
    doc = emit(rows, "json")
    parsed = json.loads(doc)
    assert parsed["summary"] == {"total": 1, "pass": 1, "fail": 0, "informational": 0}
    assert doc == emit(rows, "json")
    # wall times are excluded unless asked for
    assert "wall_time" not in doc
    timed = emit([checked("a.b", "anchor", 1, 1, "paper", wall_time=0.5)], "json",
                 include_times=True)
    assert json.loads(timed)["reports"][0]["wall_time"] == 0.5


def test_emit_md_groups_by_suite():
    rows = [
        checked("alpha.one", "anchor", 1, 1, "paper"),
        checked("beta.two", "anchor", 2, 2, "paper"),
        checked("alpha.three", "anchor", 3, 3, "paper"),
    ]
    table = emit(rows, "md")
    assert table.index("## alpha") < table.index("## beta")
    assert "3 rows, 0 failing." in table


# --- CLI surface ---------------------------------------------------------


def test_cli_verify_lemma52():
    result = run_cli("verify", "lemma52", "--n", "5")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert [r["claim_id"] for r in doc["reports"]] == ["lemma52.n5"]
    assert doc["reports"][0]["status"] == "pass"
    assert doc["reports"][0]["anchor"] == "Lemma 5.2 (n = 5)"


def test_cli_verify_rejects_bad_n_without_flag():
    result = run_cli("verify", "lemma52", "--n", "5,6")
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["summary"]["fail"] == 1


def test_cli_verify_allows_bad_n_with_flag():
    result = run_cli("verify", "lemma52", "--n", "6", "--allow-bad-n")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["reports"][0]["status"] == "informational"


def test_cli_enumerate_matches_library():
    result = run_cli("enumerate", "--degree", "6", "--emit", "json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["degree"] == 6
    assert doc["rows"] == json.loads(json.dumps(configuration_rows(6)))
    for row in doc["rows"]:
        assert set(row) == {"labels", "genus", "K2", "symmetry_order",
                            "symmetry_kind", "witness_base", "witness_word"}


def test_cli_enumerate_rejects_out_of_range_degree():
    result = run_cli("enumerate", "--degree", "9")
    assert result.returncode == 2
    assert "error" in result.stderr


def test_cli_dp5_check():
    result = run_cli("dp5", "check", "--emit", "json")
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout)["rows"]
    assert [r["name"] for r in rows] == ["s5", "a5", "g5_4", "g5_2", "c5"]
    verdicts = [r["rational_line_exists"] for r in rows]
    assert verdicts == [False, False, False, True, True]
    for row in rows:
        assert set(row) == {"name", "order", "rational_line_exists",
                            "fix_space_dim", "complex_note", "caveat"}


def test_cli_conic_simulate_deterministic():
    first = run_cli("conic", "simulate", "--seed", "3", "--trials", "25")
    second = run_cli("conic", "simulate", "--seed", "3", "--trials", "25")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["trials"] == 25
    assert doc["bound_violations"] == 0


def test_conic_commands_share_one_verdict(monkeypatch, capsys):
    # an index over 16 with every counter clean fails conic.indexbound, so
    # both commands, which both merge their trials' tallies, exit 1 on it
    def merge(seed, trials, tallies):
        return {"trials": trials, "seed": seed, "greedy_failures": 0, "invariance_failures": 0,
                "scan_disagreements": 0, "bound_violations": 0, "max_index": 17,
                "index_histogram": {"17": trials}, "no_clean_lift": 0, "inadmissible": 0}

    monkeypatch.setattr(conic_fibers, "_merge", merge)
    assert main(["report", "conic", "--trials", "3"]) == 1
    rows = json.loads(capsys.readouterr().out)["reports"]
    assert [r["claim_id"] for r in rows if r["status"] == "fail"] == ["conic.indexbound"]
    assert main(["conic", "simulate", "--trials", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["max_index"] == 17


def _raises(exc):
    def patch(real):
        def fault(*args):
            raise exc
        return fault
    return patch


def _flip_g5_4(rational_invariant_lines):
    def flipped(rep, subgroup, name):
        line = rational_invariant_lines(rep, subgroup, name)
        return dataclasses.replace(line, has_rational_line=line.has_rational_line != (name == "g5_4"))
    return flipped


@pytest.mark.parametrize("attribute, patch, failing", [
    ("verify_homomorphism", _raises(dp5.HomomorphismFailure("row 0")), ["dp5.error"]),
    ("verify_homomorphism", lambda real: lambda rep: 0, ["prop57.hom"]),
    ("standard_subgroups", _raises(RuntimeError("no subgroups")), ["dp5.error"]),
    ("rational_invariant_lines", _flip_g5_4, ["prop57.g5_4", "prop57.dp5"]),
], ids=["hom_raises", "hom_pairs_zero", "subgroups_raise", "g5_4_flipped"])
def test_dp5_commands_share_one_verdict(monkeypatch, capsys, attribute, patch, failing):
    # dp5 check is a view of the report dp5 rows: under each fault both exit
    # 1 without raising, and dp5 check names each fail row on stderr
    monkeypatch.setattr(dp5, attribute, patch(getattr(dp5, attribute)))
    assert main(["report", "dp5"]) == 1
    rows = json.loads(capsys.readouterr().out)["reports"]
    assert [r["claim_id"] for r in rows if r["status"] == "fail"] == failing
    assert main(["dp5", "check"]) == 1
    captured = capsys.readouterr()
    assert [line.split()[1] for line in captured.err.splitlines()] == failing
    assert all(line.startswith("fail: ") for line in captured.err.splitlines())
    names = [row["name"] for row in json.loads(captured.out)["rows"]]
    assert names == ([] if failing == ["dp5.error"] else list(dp5.SUBGROUP_NAMES))


def test_cli_jordan_groupfile(tmp_path):
    path = tmp_path / "quaternion.json"
    path.write_text(json.dumps({
        "kind": "perm",
        "degree": 8,
        "generators": [[[1, 2, 3, 4], [5, 6, 7, 8]], [[1, 5, 3, 7], [2, 8, 4, 6]]],
    }))
    result = run_cli("jordan", str(path))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "order": 8,
        "jordan_index": 2,
        "witness_order": 4,
        "normal_subgroup_count": 6,
    }


# order, jordan index, witness order and normal subgroup count of each file
GROUP_FILE_FRAGMENTS = {
    "family_n5.json": (300, 12, 25, 8),
    "family_n13.json": (2028, 12, 169, 8),
    "quaternion.json": (8, 2, 4, 6),
    "s4.json": (24, 6, 4, 4),
    "special_linear_mod3.json": (24, 12, 2, 4),
}


@pytest.mark.parametrize("path", sorted((PKG_ROOT / "demos" / "groupfiles").glob("*.json")),
                         ids=lambda path: path.stem)
def test_cli_jordan_fragment_of_every_group_file(path, capsys):
    # a group file added without a pinned fragment fails here with KeyError
    order, index, witness, count = GROUP_FILE_FRAGMENTS[path.name]
    assert main(["jordan", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "order": order,
        "jordan_index": index,
        "witness_order": witness,
        "normal_subgroup_count": count,
    }


def test_cli_jordan_bad_inputs(tmp_path):
    missing = run_cli("jordan", str(tmp_path / "nope.json"))
    assert missing.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "modmatrix", "modulus": 4, "generators": [[[2, 0], [0, 1]]]}')
    result = run_cli("jordan", str(bad))
    assert result.returncode == 2
    assert "invertible" in result.stderr
    # rejected before any generator of that degree is built
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"kind": "perm", "degree": 10**12, "generators": [[[1, 2]]]}))
    result = run_cli("jordan", str(huge))
    assert result.returncode == 2
    assert "degree" in result.stderr
    # a boolean is not the point 1, though True - 1 == 0
    boolean = tmp_path / "boolean.json"
    boolean.write_text(json.dumps({"kind": "perm", "degree": 3, "generators": [[[True, 2]]]}))
    result = run_cli("jordan", str(boolean))
    assert result.returncode == 2
    assert "cycle points must be integers" in result.stderr
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"kind": "modmatrix", "modulus": 2**64, "generators": [[[-1]]]}))
    result = run_cli("jordan", str(wide))
    assert result.returncode == 2
    assert "MAX_MODULUS_BITS=64" in result.stderr
    many = tmp_path / "many.json"
    many.write_text(json.dumps({"kind": "perm", "degree": 4, "generators": [[[1, 2]]] * 65}))
    result = run_cli("jordan", str(many))
    assert result.returncode == 2
    assert "MAX_GENERATORS=64" in result.stderr
    # a directory and a file that is not UTF-8 end in one error line, not a traceback
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\x7fELF\xff\xfe\x00\x80")
    for path, message in ((tmp_path, "cannot read"), (binary, "not UTF-8")):
        result = run_cli("jordan", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and message in result.stderr
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


@pytest.mark.parametrize("name", ["s4.json", "family_n5.json"])
def test_cli_jordan_cap_exceeded_while_loading(monkeypatch, capsys, name):
    # the closure outgrows a table of order 5 inside load_group, before any report
    monkeypatch.setattr(groups, "MAX_TABLE_BYTES", 5 * 5 * 4)
    assert main(["jordan", str(PKG_ROOT / "demos" / "groupfiles" / name)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "MAX_TABLE_BYTES=100" in captured.err
    assert captured.err.count("\n") == 1


def test_cli_refuses_a_huge_n_with_a_named_row(capsys):
    # 12 n^2 would have 2201 digits: the order bound comes first and names n,
    # not a figure past Python's int-to-str digit limit
    n = 10**1100 + 1
    assert main(["verify", "lemma52", "--n", str(n)]) == 1
    (row,) = json.loads(capsys.readouterr().out)["reports"]
    assert row["claim_id"] == "lemma52.n%d" % n and row["status"] == "fail"
    assert row["computed"]["error"] == (
        "CapExceeded: lemma52 n = %d gives a group of order 12 n^2 over "
        "MAX_FAMILY_ORDER=100000" % n)


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    "[" * 100_000 + "]" * 100_000,
    '{"kind": "perm", "degree": %s, "generators": [[[1, 2]]]}' % ("9" * 5000),
    '{"kind": "lemma52", "modulus": %s}' % ("7" * 3000),
], ids=["unclosed", "nested", "digits", "modulus"])
def test_cli_jordan_refuses_hostile_json(tmp_path, text):
    # json.load raises RecursionError on deep nesting and, where Python limits
    # int digits, ValueError on the 5000-digit degree; without that limit the
    # degree is past MAX_DEGREE.  A lemma52 modulus past MAX_MODULUS_BITS is
    # refused before the table bound's error would print its 12 000-digit
    # byte figure.
    path = tmp_path / "hostile.json"
    path.write_text(text, encoding="utf-8")
    result = run_cli("jordan", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


def test_cli_jordan_refuses_a_lattice_past_its_bound(tmp_path):
    # seven disjoint transpositions generate (Z/2)^7, of order 128 and with
    # 29 212 normal subgroups
    path = tmp_path / "transpositions.json"
    path.write_text(json.dumps({"kind": "perm", "degree": 14,
                                "generators": [[[i, i + 1]] for i in range(1, 14, 2)]}))
    result = run_cli("jordan", str(path), timeout=60)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and "MAX_LATTICE_EXTENSIONS=50000" in result.stderr
    assert "Traceback" not in result.stderr


def test_failed_witness_check_fails_the_row_and_the_jordan_command(monkeypatch, capsys):
    # jordan_index checks its witness on the whole member table; a witness
    # that fails the check must fail the verdict, not ride along unread
    monkeypatch.setattr(Subgroup, "is_normal", lambda self: False)
    assert main(["verify", "lemma52", "--n", "5"]) == 1
    (row,) = json.loads(capsys.readouterr().out)["reports"]
    assert row["claim_id"] == "lemma52.n5" and row["status"] == "fail"
    assert row["computed"]["error"].startswith("GroupError: ")
    assert main(["jordan", str(PKG_ROOT / "demos" / "groupfiles" / "s4.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: jordan witness of order 4 is not normal"]


@pytest.mark.parametrize("argv", [
    ["verify", "lemma52", "--n", "5,7"],
    ["report", "lemma52"],
], ids=["verify", "report"])
def test_times_flag_adds_positive_row_times(capsys, argv):
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--times"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert all(row.pop("wall_time") > 0 for row in timed["reports"])
    # with the times taken out, the document is the default one byte for byte
    assert json.dumps(timed, sort_keys=True, indent=2) + "\n" == plain
    assert "wall_time" not in plain


def test_times_flag_adds_a_seconds_column_to_markdown(capsys):
    assert main(["verify", "lemma52", "--n", "5", "--emit", "md", "--times"]) == 0
    table = capsys.readouterr().out
    assert "| status | seconds |" in table
    (row,) = [line for line in table.splitlines() if line.startswith("| lemma52.n5 |")]
    assert float(row.split("|")[-2]) > 0


def test_cli_report_md_is_deterministic():
    first = run_cli("report", "conic", "--trials", "20", "--emit", "md")
    assert first.returncode == 0
    assert "## conic" in first.stdout
    again = run_cli("report", "conic", "--trials", "20", "--emit", "md")
    assert first.stdout == again.stdout


def test_cli_usage_errors_exit_2(capsys):
    assert run_cli("report", "everything").returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("verify", "lemma52", "--n", "five").returncode == 2
    assert run_cli().returncode == 2
    # trial counts must be positive, --n values distinct and at least 2, and
    # --parallel and --cap are gone
    for args in (
        ("report", "conic", "--trials", "-3"),
        ("report", "conic", "--trials", "0"),
        ("conic", "simulate", "--trials", "0"),
        ("verify", "lemma52", "--cap", "0"),
        ("report", "dp5", "--cap", "-1"),
        ("jordan", str(PKG_ROOT / "demos" / "groupfiles" / "s4.json"), "--cap", "0"),
        ("verify", "lemma52", "--cap", "5"),
        ("report", "dp5", "--cap", "5"),
        ("jordan", str(PKG_ROOT / "demos" / "groupfiles" / "s4.json"), "--cap", "5"),
        ("report", "all", "--parallel"),
        ("verify", "lemma52", "--n", "5,5"),
        ("verify", "lemma52", "--n", "1", "--allow-bad-n"),
        ("verify", "lemma52", "--n", "0", "--allow-bad-n"),
        ("verify", "lemma52", "--n", "-5"),
    ):
        assert main(list(args)) == 2, args
        assert capsys.readouterr().out == "", args
    # each n runs once, so the distinct values that fit a table bound the work
    assert main(["verify", "lemma52", "--n", "7,5,7"]) == 2
    assert "--n names 7 more than once" in capsys.readouterr().err
    assert main(["verify", "lemma52", "--n", "5,1", "--allow-bad-n"]) == 2
    assert "--n values must be at least 2, got 1" in capsys.readouterr().err


def test_commands_never_import_numpy_ma():
    # the first np.unique call imports numpy.ma (about 9 ms and 1.6 MB), so
    # closures and classes dedupe with masks or list walks instead
    script = (
        "import contextlib, io, sys\n"
        "from cremonalab.cli import main\n"
        "for argv in (['verify', 'lemma52', '--n', '5'], ['report', 'all', '--seed', '0', '--trials', '20'],\n"
        "             ['jordan', 'demos/groupfiles/s4.json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n")
    result = run_python("-c", script, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_documented_ids_appear_in_readme_and_suites(documented_claim_ids):
    readme = (PKG_ROOT / "README.md").read_text()
    mentioned = set(re.findall(r"\b(?:lemma52|prop44|prop57|conic|thm79|consts)\.[a-z0-9_]+", readme))
    assert mentioned, "README should document claim ids"
    assert mentioned <= set(documented_claim_ids)


# --n draws 13 and below, and 37 and above: n from 37 to 91 runs on computed
# products in up to about 0.8 s, and from 92 on MAX_FAMILY_ORDER refuses the
# group before any work.
N_VALUES = st.integers(-3, 13) | st.integers(37, 10**9)
# no garbage token parses as an integer, so none becomes a number an option reads
GARBAGE = st.sampled_from(["", "x", "five", "1e3", "0x10", ",", "-", "--", "--bogus", "--n=", "-h"]) | st.text(
    st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters="-"), max_size=6)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["verify", "enumerate", "conic", "report"]))
    if command == "verify":
        argv = ["verify", "lemma52"]
        if draw(st.booleans()):
            argv += ["--n", ",".join(map(str, draw(st.lists(N_VALUES, min_size=1, max_size=3))))]
        if draw(st.booleans()):
            argv.append("--allow-bad-n")
    elif command == "enumerate":
        argv = ["enumerate", "--degree", str(draw(st.integers(-3, 12)))]
    else:
        argv = ["conic", "simulate"] if command == "conic" else ["report", "prop44"]
        argv += ["--seed", str(draw(st.integers(-10**6, 10**6)))]
        if draw(st.booleans()):
            argv += ["--trials", str(draw(st.integers(-3, 50)))]
    if draw(st.booleans()):
        argv += ["--emit", draw(st.sampled_from(["json", "md", "xml"]))]
    if draw(st.integers(0, 3)) == 0:  # one argv in four carries a garbage token
        argv.insert(draw(st.integers(0, len(argv))), draw(GARBAGE))
    return argv


@given(cli_argv())
@settings(max_examples=60, deadline=None)
def test_every_fuzzed_argv_exits_0_1_or_2(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2), argv


def test_trial_count_is_bounded_at_parse_time(monkeypatch, capsys):
    # a tiny bound stands in for MAX_TRIALS: the real one is never run
    monkeypatch.setattr(cli, "MAX_TRIALS", 5)
    for command in (["conic", "simulate"], ["report", "conic"], ["report", "all"]):
        assert main(command + ["--trials", "6"]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "" and "MAX_TRIALS=5" in captured.err, command
    assert main(["conic", "simulate", "--trials", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 5


def run_quietly(argv):
    """main(argv)'s exit code and stderr, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def perm_cycles(draw, degree):
    """A permutation of 1..degree as a group-file generator: its cycles."""
    images = draw(st.permutations(range(degree)))
    seen, cycles = set(), []
    for start in range(degree):
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x + 1)
            x = images[x]
        if len(cycle) > 1:
            cycles.append(cycle)
    return cycles


VALID_GROUP_DOCS = st.integers(1, 5).flatmap(lambda degree: st.fixed_dictionaries(
    {"kind": st.just("perm"), "degree": st.just(degree),
     "generators": st.lists(perm_cycles(degree), min_size=1, max_size=3)}))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
MALFORMED_GROUP_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {"kind": st.sampled_from(["perm", "modmatrix", "lemma52", "cyclic"]),
     "degree": JSON_VALUES, "modulus": st.integers(-2, 5) | JSON_VALUES,
     "generators": JSON_VALUES})
GROUP_FILE_TEXT = (VALID_GROUP_DOCS | MALFORMED_GROUP_DOCS).map(json.dumps) | st.text(max_size=12)


@given(GROUP_FILE_TEXT)
@settings(max_examples=150, deadline=None)
def test_fuzzed_group_files_exit_0_1_or_2(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "group.json"
    path.write_text(text, encoding="utf-8")
    argv = ["jordan", str(path)]
    code, err = run_quietly(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err


@given(st.integers(1, 20), st.sampled_from(["json", "md"]))
@settings(max_examples=10, deadline=None)
def test_fuzzed_report_all_exits_0_1_or_2(trials, emit):
    argv = ["report", "all", "--trials", str(trials), "--emit", emit]
    code, err = run_quietly(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
