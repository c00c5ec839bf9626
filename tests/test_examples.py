"""Every example must run green — they are executable documentation.

Each example self-verifies (asserts convergence) and exits non-zero on
failure, so a plain subprocess run is a meaningful end-to-end test.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

EXAMPLES = [
    "quickstart.py",
    "leaderboard.py",
    "query_caching.py",
    "mechanism_comparison.py",
    "capacity_planning.py",
]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, (
        f"{script} failed:\nstdout:\n{result.stdout[-2000:]}\n"
        f"stderr:\n{result.stderr[-2000:]}"
    )
    assert "OK" in result.stdout or "converged" in result.stdout


def test_module_demo_runs_clean():
    result = subprocess.run(
        [sys.executable, "-m", "repro"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout[-2000:]
    assert "converged!" in result.stdout
