"""The bundled scripts run end to end against the library."""

import os
import subprocess
import sys

from .golden import ROOT


def test_reproduce_figures_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "scripts/reproduce_figures.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "tests" / "data" / "reproduce_figures.txt").read_text()
