"""Every demo script runs to completion from an empty working directory
and leaves that directory empty."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_and_writes_nothing(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout
    assert list(tmp_path.iterdir()) == []
