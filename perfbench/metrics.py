"""The interaction table: what each per-layer metric should move, and where.

Names, units and directions of every metric live in ``BENCHMARK.json``.
For each per-layer metric this table names the end-to-end metric and the
workload it should move when its layer changes, and where it is predicted
not to move.  The self-test checks that the table covers every per-layer
metric of ``BENCHMARK.json``.

Per-layer rates are per op: one estimate call on the tape workloads, one
served request on ``serve-text``.  A layer a workload never enters reads 0
there (no serving on the tapes, no snapshots on ``solo-tape``, no kernel
spans in the parent of the sharded ``robust-grid``).
"""

from __future__ import annotations

from tracer import KERNEL_PLANS, SPACE_CATEGORIES

_STREAMS = ("estimate_s / job_latency_s", "robust-grid, serve-text", "solo-tape (little)")
_KERNELS = ("estimate_s", "solo-tape", "robust-grid (kernels run in the pool workers)")
_EXECUTOR = ("estimate_s", "robust-grid", "serve-text")
_SNAPSHOT = ("estimate_s", "robust-grid", "solo-tape, serve-text (no snapshots)")
_SPECULATION = ("estimate_s", "robust-grid", "solo-tape (no speculation)")
_SERVE = ("jobs_per_s", "serve-text", "solo-tape, robust-grid (no daemon)")
_CACHE = ("job_latency_s", "serve-text", "estimate_s")

#: per-layer metric -> (moves, on workload, predicted not to move on)
MOVES = {
    "streams.sweeps": _STREAMS,
    "streams.passes": _STREAMS,
    "streams.read_s": ("jobs_per_s", "serve-text (text parse)", "solo-tape, robust-grid (~0 on mmap)"),
    "streams.rows": ("estimate_s", "solo-tape", "serve-text"),
    "streams.row_frac": ("estimate_s", "solo-tape", "serve-text"),
    "kernels.s": _KERNELS,
    **{f"kernels.{plan}.s": _KERNELS for plan in KERNEL_PLANS},
    "kernels.absorb_s": _KERNELS,
    "kernels.calls": _KERNELS,
    "kernels.rows": _KERNELS,
    "executor.s": _EXECUTOR,
    "executor.self_s": _EXECUTOR,
    "executor.calls": _EXECUTOR,
    "executor.plans_per_call": _EXECUTOR,
    "executor.pool_start_s": ("setup_s", "robust-grid", "solo-tape, serve-text (no pool)"),
    "rounds.python_s": ("estimate_s", "solo-tape (once the kernels shrink)", "serve-text"),
    "rounds.committed": ("estimate_s", "solo-tape", "none: the seed table fixes it on this commit"),
    "rounds.candidates": ("estimate_s, space_words", "solo-tape", "robust-grid"),
    "rounds.wedges_closed": ("estimate_s", "solo-tape", "robust-grid"),
    "driver.sweeps_wasted": _SPECULATION,
    "driver.passes_wasted": _SPECULATION,
    "driver.useful_frac": _SPECULATION,
    "snapshot.writes": _SNAPSHOT,
    "snapshot.write_s": _SNAPSHOT,
    "snapshot.bytes": _SNAPSHOT,
    "faults.degradations": ("none: any degradation fails the op", "all", "all"),
    **{f"space.{cat}.words": ("space_words", "solo-tape", "the time metrics")
       for cat in SPACE_CATEGORIES},
    "serve.sweeps_physical": _SERVE,
    "serve.sweeps_solo": _SERVE,
    "serve.coride_ratio": _SERVE,
    "serve.cache_hits": _CACHE,
    "serve.cache_misses": _CACHE,
    "serve.admit_wait_s": ("job_latency_s", "serve-text", "solo-tape, robust-grid (no daemon)"),
    "trace.overhead_s": ("none: traced minus untraced estimate_s / job_latency_s", "all", "all"),
    "trace.overhead_frac": ("none: trace.overhead_s over the untraced median", "all", "all"),
    "trace.spans": ("none: spans recorded per op", "all", "all"),
}
