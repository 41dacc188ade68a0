"""Smoke test of the ``jobs/`` entry points without their own tests: each
imports what it runs and prints its usage."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["build_index", "search", "gate_crossover"])
def test_help_prints_usage(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(_ROOT / "jobs" / f"{name}.py"), "--help"],
                          capture_output=True, text=True, env=env, cwd=_ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
