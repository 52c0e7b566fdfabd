"""The bundled scripts run end to end against the library."""

import os
import subprocess
import sys

import pytest

from .golden import ROOT


def test_reproduce_figures_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "scripts/reproduce_figures.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "tests" / "data" / "reproduce_figures.txt").read_text()


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout to export from")
def test_kernel_pair_runs():
    done = subprocess.run([sys.executable, "scripts/kernel_pair.py", "HEAD", "--rounds", "1",
                           "--seeds", "3"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split()[-3:] == ["HEAD", "this", "change"]
    assert [line.split()[0] for line in lines[1:]] == ["moves"] + ["equilibria"] * 2 + ["rows"] * 4
