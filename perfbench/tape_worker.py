"""The estimating process of the tape workloads (``solo-tape``, ``robust-grid``).

Runs in a process of its own so that its peak RSS is the estimator's, not
the input generator's.  Set-up converts the cached text edge list into an
``.etape`` with ``write_tape`` and opens it, several times.  On the sharded
``robust-grid`` it also starts the worker pool several times: the pool
start is the first tiny sharded sweep's time minus the second's.  One
untimed warm-up estimate call (checked like the rest) pages the tape in and
fills the allocator; then estimate calls run back to back while the next
one, taking as long as the last, still ends within the measuring time (at
least ``MIN_OPS`` of them).  The only name patched in an untraced run is
``repro.core.driver.make_rng``, once per op, to keep the root generator:
its final state is checked against the solo reference.  With ``--trace 1``
the first half of that time runs untraced and the second half traced, so
the run also yields the tracing overhead and checks that tracing changes no
result.  Writes one JSON document to ``--out``.

Usage (from the repository root, normally through ``run.py``)::

    python3 perfbench/tape_worker.py --workload solo-tape --input DIR \\
        --est-seed N --seconds S --trace 0 --out FILE
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

SETUP_REPEATS = 7
#: Fewest timed estimate calls per run (per half of a traced run).
MIN_OPS = 3
#: Pool workers of the sharded robust-grid configuration.
WORKERS = 2


def vm_hwm_mb(pid) -> float:
    """Peak resident set (``VmHWM``) of one process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids() -> list:
    """Live children of this process (the pool workers and their helper)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def summarize(result, root=None) -> dict:
    """The per-op facts the checks and per-layer metrics need.

    ``root`` is the op's root generator, when the caller kept it.
    """
    from inputs import digest, trajectory
    from repro.serve.protocol import root_rng_digest

    rounds = trajectory(result.rounds)
    summary = {
        "estimate": result.estimate,
        "digest": digest(result.estimate, rounds, result.passes_total),
        "rounds": len(result.rounds),
        "passes_total": result.passes_total,
        "passes_wasted": result.passes_wasted,
        "sweeps_total": result.sweeps_total,
        "sweeps_wasted": result.sweeps_wasted,
        "space_words": result.space_words_peak,
        "degradations": len(result.degradations),
        "candidates": sum(run.distinct_candidate_triangles for r in result.rounds for run in r.runs),
        "wedges_closed": sum(run.wedges_closed for r in result.rounds for run in r.runs),
    }
    if root is not None:
        summary["root_rng_sha256"] = root_rng_digest(root.getstate())
    return summary


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--est-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import numpy as np
    from repro.core import EstimatorConfig, TriangleCountEstimator, driver
    from repro.core.executor import run_plans, shutdown_pools
    from repro.core.kernels import DegreeCountPlan
    from repro.streams import MmapEdgeStream, PassScheduler, write_tape
    import tracer as tracing

    with open(os.path.join(args.input, "meta.json"), encoding="utf-8") as handle:
        meta = json.load(handle)
    work = os.path.join(os.path.dirname(args.out), f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    tape = os.path.join(work, "input.etape")

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        write_tape(os.path.join(args.input, "edges.txt"), tape)
        stream = MmapEdgeStream(tape)
        setups.append(time.perf_counter() - start)
    fingerprint = stream.fingerprint()

    sharded = args.workload == "robust-grid"
    op_index = 0
    roots = []
    make_rng = driver.make_rng

    def keep_root(seed):
        rng = make_rng(seed)
        roots.append(rng)
        return rng

    driver.make_rng = keep_root

    def config() -> EstimatorConfig:
        if not sharded:
            return EstimatorConfig(seed=args.est_seed)
        checkpoints = os.path.join(work, f"checkpoints-{op_index}")
        return EstimatorConfig(
            seed=args.est_seed,
            engine_mode="sharded",
            workers=WORKERS,
            fuse=True,
            speculate_depth=3,
            checkpoint_dir=checkpoints,
            snapshot_every=1,
        )

    def one_op():
        nonlocal op_index
        cfg = config()
        roots.clear()
        start = time.perf_counter()
        try:
            result = TriangleCountEstimator(cfg).estimate(stream, kappa=meta["kappa"])
            error = None
        except Exception as exc:  # noqa: BLE001 - an op failure is a measurement
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if cfg.checkpoint_dir is not None:
            shutil.rmtree(cfg.checkpoint_dir, ignore_errors=True)
        op_index += 1
        summary = summarize(result, roots[0]) if result is not None else {"error": error}
        summary["seconds"] = elapsed
        return summary

    def pool_start() -> float:
        """Cold minus warm time of one tiny sharded sweep: the pool's start."""
        shutdown_pools()
        times = []
        for _ in range(2):
            start = time.perf_counter()
            plan = DegreeCountPlan(np.zeros(1, dtype=np.int64))
            run_plans(PassScheduler(stream), [plan], workers=WORKERS)
            times.append(time.perf_counter() - start)
        return times[0] - times[1]

    pool_starts = [pool_start() for _ in range(SETUP_REPEATS)] if sharded else [0.0]

    def run_ops(seconds: float, tracer=None) -> list:
        ops = []
        start = time.perf_counter()
        while len(ops) < MIN_OPS or time.perf_counter() - start + ops[-1]["seconds"] <= seconds:
            if tracer is None:
                ops.append(one_op())
                continue
            tracer.meters.clear()
            tracer.op = f"op{op_index}"
            root = tracer.begin("bench.op")
            summary = one_op()
            tracer.end(root)
            summary["space_peaks"] = tracing.meter_peaks(tracer.meters)
            ops.append(summary)
        return ops

    warmup = [one_op()]
    tracer = None
    traced = []
    if args.trace:
        untraced = run_ops(args.seconds / 2)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer, kernels=not sharded)
        traced = run_ops(args.seconds / 2, tracer)
        restore()
    else:
        untraced = run_ops(args.seconds)

    rss = vm_hwm_mb("self") + sum(vm_hwm_mb(pid) for pid in child_pids())
    shutdown_pools()
    shutil.rmtree(work, ignore_errors=True)

    document = {
        "setup_s": setups,
        "fingerprint": fingerprint,
        "pool_start_s": pool_starts,
        "warmup_ops": warmup,
        "ops": untraced,
        "traced_ops": traced,
        "peak_rss_mb": rss,
    }
    if tracer is not None:
        tracer.write_jsonl(args.trace_file)
        document["counters"] = dict(tracer.counters)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(document, out)


if __name__ == "__main__":
    sys.path.insert(0, "src")
    main()
