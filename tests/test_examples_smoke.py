"""Smoke tests: every example runs end-to-end.

Each example takes a ``--tiny`` flag (shrunk graph) so this suite can
execute them as real subprocesses — the same way a user
would — and assert they exit cleanly.  The examples self-check their own
results (e.g. quickstart asserts simulator counts equal the software
engine's), so exit code 0 is a meaningful signal, not just "didn't crash".
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted(
    p.name for p in (REPO_ROOT / "examples").glob("*.py")
)


def test_examples_are_enumerated():
    assert EXAMPLES, "examples/ directory is empty?"


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs_on_fast_engine(example):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    completed = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "examples" / example),
            "--tiny",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        cwd=REPO_ROOT,
    )
    assert completed.returncode == 0, (
        f"{example} failed (exit {completed.returncode}):\n"
        f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}"
    )
    assert completed.stdout.strip(), f"{example} produced no output"

