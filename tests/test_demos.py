"""Every demo script, and the README's Python example, runs to completion
from an empty working directory and leaves that directory empty."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_structure import readme_examples

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_fresh(argv: list, cwd: Path) -> subprocess.CompletedProcess:
    """argv after the interpreter, run in a fresh one from cwd with the
    package's source on its path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_and_writes_nothing(demo, tmp_path):
    proc = run_fresh([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout
    assert list(tmp_path.iterdir()) == []


def test_readme_example_runs_and_writes_nothing(tmp_path):
    proc = run_fresh(["-c", readme_examples()], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout
    assert list(tmp_path.iterdir()) == []
