"""Every demo script runs to completion in a fresh interpreter and prints
exactly its reference output, ``tests/reference/demos/<name>.txt``."""

from functools import cache

import pytest

from checkout import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))
REFERENCE = ROOT / "tests" / "reference" / "demos"


@cache
def run_demo(path):
    # each demo runs once per session; its tests share the result
    return run_python(str(path), timeout=120)


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_matches_reference(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.encode() == (REFERENCE / (path.stem + ".txt")).read_bytes()


# demos whose modules use only the standard library
NUMPY_FREE_DEMOS = ("fiber_selections", "boundary_cycle_tables")


@pytest.mark.parametrize("name", NUMPY_FREE_DEMOS)
def test_demo_runs_where_numpy_cannot_load(name):
    # a None entry in sys.modules makes every numpy import raise ImportError
    script = ("import runpy, sys\n"
              "sys.modules['numpy'] = None\n"
              "runpy.run_path(%r, run_name='__main__')\n" % str(ROOT / "demos" / (name + ".py")))
    result = run_python("-W", "error", "-c", script, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.encode() == (REFERENCE / (name + ".txt")).read_bytes()


def test_quintic_lines_witnesses():
    # the witness is the first kernel vector for the first sign vector with one
    lines = run_demo(ROOT / "demos" / "quintic_lines.py").stdout.splitlines()
    witnesses = [line.strip() for line in lines if "witness vector" in line]
    assert witnesses == ["witness vector [1, 0, 0, 0, 0, 0]"] * 2
