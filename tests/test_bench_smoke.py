"""Opt-in perf smoke gate: ``run_bench_suite.py --smoke`` must pass.

Wired into the tier-1 flow but **skipped unless** ``REPRO_SMOKE=1``:
wall-clock speedup assertions are only meaningful on a quiet machine, so
the gate is armed explicitly (locally or by a dedicated CI job) instead
of flaking every shared-runner test run.  The gate itself re-measures the
tiny-scale E9 engine sweep, the sharded executor comparison and the
later stages of ``scripts/run_bench_suite.py``; it asserts seed-for-seed
parity unconditionally, and fails if the serial sweep took more than
twice, or the sharded speedup fell below half of, the last committed
``BENCH_engine.json`` entry's, or if any deterministic sweep-count or
overhead gate of the suite fails.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.skipif(
    os.environ.get("REPRO_SMOKE", "") != "1",
    reason="perf smoke gate is opt-in: set REPRO_SMOKE=1 to arm it",
)
def test_bench_suite_smoke_gate():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_bench_suite.py"), "--smoke"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"--smoke gate failed (exit {proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
    )
