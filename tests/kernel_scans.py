"""Single-plan scans over a scheduler, for the kernel tests.

Each helper runs one :mod:`repro.core.kernels` plan as its own pass through
:func:`~repro.core.executor.run_plan` and returns the plan's public
``result()`` form.  The estimator never scans one plan at a time (its
stages group plans into shared sweeps), so these live with the tests.
"""

from __future__ import annotations

from typing import List, Sequence, Set

import numpy as np

from repro.core.executor import run_plan
from repro.core.kernels import DegreeCountPlan, PositionCollectPlan, WatchKeyPlan, unique_edge_rows
from repro.streams import PassScheduler
from repro.types import Edge


def collect_stream_positions(
    scheduler: PassScheduler, positions: np.ndarray, chunk_size: int
) -> List[Edge]:
    """Pass-1 scan: fetch the edge at each requested stream position."""
    return run_plan(scheduler, PositionCollectPlan(positions), chunk_size=chunk_size)


def count_tracked_degrees(
    scheduler: PassScheduler, tracked_ids: np.ndarray, chunk_size: int
) -> np.ndarray:
    """Pass-2 scan: degree of every tracked vertex id, in one chunked pass."""
    return run_plan(scheduler, DegreeCountPlan(tracked_ids), chunk_size=chunk_size)


def scan_watch_keys(
    scheduler: PassScheduler, keys: Sequence[Edge], chunk_size: int
) -> Set[Edge]:
    """Pass-4/6 scan: which watched edges appear anywhere on the tape."""
    rows = unique_edge_rows(np.asarray(keys, dtype=np.int64).reshape(-1, 2))[0]
    counts = run_plan(scheduler, WatchKeyPlan(rows), chunk_size=chunk_size)
    return set(map(tuple, rows[counts > 0].tolist()))
