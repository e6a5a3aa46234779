"""Every demo script runs to completion against the imported source tree.

error_rate_simulation.py is left out: its Monte Carlo sweeps take about 25 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcmc

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SLOW = {"error_rate_simulation.py"}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")
                                        if p.name not in SLOW))
def test_demo_runs(tmp_path, name):
    src_root = str(Path(qcmc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src_root, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
