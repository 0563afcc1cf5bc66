"""Every demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr


def test_quintic_lines_witnesses():
    # the witness is the first kernel vector for the first sign vector with one
    lines = run_demo(ROOT / "demos" / "quintic_lines.py").stdout.splitlines()
    witnesses = [line.strip() for line in lines if "witness vector" in line]
    assert witnesses == ["witness vector [1, 0, 0, 0, 0, 0]"] * 2
