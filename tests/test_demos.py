"""Each demo script runs to completion in a fresh interpreter and prints something,
the same each time.

The demos call the public API the way a user would (several pass raw points to
total_asymptotics), so a change to that API that a demo was not updated for
fails here rather than only when someone runs the demo.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


def _run(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    assert _run(path).strip()


def test_demo_output_is_reproducible():
    # stdout holds no timings or other per-run values, so demo outputs can be
    # compared across commits
    path = ROOT / "demos" / "fractional_powers.py"
    assert _run(path) == _run(path)
