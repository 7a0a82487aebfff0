"""Each demo script runs to completion in a child process, under the
warning rules of the tier-1 pytest run: ``-X dev`` and every warning an
error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tcheb

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = ("chebyshev_checks", "d_optimal_search", "quadrature_from_moments", "reduce_michaelis_menten")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    # The child imports tcheb from where this process did, installed or
    # not, and writes no bytecode into that tree.
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(tcheb.__file__).resolve().parents[1]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(DEMO_DIR / f"{demo}.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
