#!/usr/bin/env python
"""Run the benchmark suite and record the engine perf trajectory.

Ten stages:

1. (optional) the repo's experiment regenerators at ``REPRO_BENCH_SCALE``
   (default ``tiny`` - a smoke pass over every ``benchmarks/bench_*.py``);
2. the serial engine's wall clock on the E9 BA-family sweep (best of
   three per size);
3. a threaded-vs-serial comparison of the pass executor: the E9 sweep's
   largest sizes end to end plus a synthetic single-pass degree scan,
   serial chunked against a sweep thread pool (results asserted
   identical);
4. a sequential-vs-speculative comparison of the guessing-loop driver on
   full multi-round estimates: bit-identical estimates and trajectories
   asserted, the speculative run's physical sweeps (committed + wasted)
   asserted to never exceed - and on multi-round estimates to beat - the
   sequential sweep count, wall-clock speedup recorded;
5. a speculation *depth* sweep on a file-backed multi-round workload:
   physical sweeps and wall clock at depths 1 (sequential), 2, 3, 4 and
   the default schedule, bit-identity asserted at every depth and deeper
   windows asserted to never perform more sweeps than the depth-2 pair
   driver; then sequential vs the default on a dense disjoint-K8
   workload (the default's worst case: an early acceptance in the first,
   unclipped window);
6. a fault-recovery overhead measurement: the canonical threaded
   multi-round estimate run clean and again with the deterministic fault
   harness crashing a task on each of the first few sweeps -
   bit-identical results and an unchanged physical sweep count asserted
   (recovery retries tasks, it never re-sweeps the tape), the wall-clock
   overhead of the retries recorded;
7. a text-vs-binary tape format comparison: the canonical file-backed
   workload read as a text edge list and as its ``.etape`` conversion
   (mmap zero-copy ingest) - raw sweep throughput (edges/sec) measured
   for both formats, then full multi-round estimates timed end to end
   with bit-identical results asserted (the storage format must be
   invisible to the sampling layer);
8. a durable-snapshot overhead measurement: the canonical file-backed
   workload run clean, run again with round-boundary ``.esnap``
   snapshots enabled (atomic tmp + fsync + rename per committed round),
   and resumed from a mid-run snapshot - all three asserted
   bit-identical (estimate, trajectory, logical passes), with the
   snapshotting wall overhead recorded;
9. a serve-throughput measurement: several concurrent estimate requests
   for the same tape (distinct seeds) served by one ``repro serve``
   daemon over its unix socket, each response asserted bit-identical to
   its solo run (estimate, pass/sweep totals, root-RNG digest) and the
   tape's physical sweep count asserted strictly under the solo runs'
   sum - the cross-job sweep-sharing payoff, measured deterministically.
10. a shared-probe measurement: one serial sweep of three degree plans
   against one sweep of one, on a synthetic tape (medians of interleaved
   pairs, results asserted equal to per-plan sweeps) - plans of one key
   space probe each block once, so the ratio stays near 1.

The results are *appended* to ``BENCH_engine.json`` at the repo root (a
JSON array, one record per run), so successive PRs accumulate the speedup
trajectory instead of overwriting it.  The history file is written
atomically (tmp + fsync + rename, the same helper the snapshot layer
uses) so a crash mid-append can never truncate it; if a previous crash
*did* leave it unreadable, the corrupt file is backed up alongside and
the history restarts rather than aborting the run.

``--smoke`` is the CI regression gate: it reruns stages 2-10 at tiny scale,
appends nothing, and exits non-zero if the serial E9 sweep total took more
than twice the last committed tiny ``BENCH_engine.json`` entry's, if the
sharded speedup (when the box has the cores for it) regressed to below
half of the last committed entry's (the comparison takes medians of
interleaved pairs), if the speculative driver's multi-round physical sweep count
failed to come in under the sequential driver's, if depth-3 windows
performed more physical sweeps than depth-2 pairs on the canonical
workload, if the default schedule's physical sweeps were not under the
sequential count there, if the default discarded more than six passes
on the K8 workload, if recovering from injected worker crashes cost more than
2x the clean run's physical sweeps, or if the mmap tape's raw sweep
throughput fell below the text parser's, or if round-boundary
snapshotting failed resume parity or cost more than 2x the clean wall
clock, or if concurrently-served same-tape jobs failed to come in under
the solo runs' summed sweep count, or if the three-plan shared-probe sweep
cost more than 2x the one-plan sweep - wired into the tier-1 flow as an
opt-in pytest
(``tests/test_bench_smoke.py``, ``REPRO_SMOKE=1``).

Usage::

    python scripts/run_bench_suite.py             # tiny benchmarks + engine compare
    python scripts/run_bench_suite.py --scale small
    python scripts/run_bench_suite.py --skip-pytest   # engine compare only
    python scripts/run_bench_suite.py --smoke         # regression gate, no append
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import random
import statistics
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import __version__  # noqa: E402
from repro.core import engine, engine_overrides  # noqa: E402
from repro.core.estimator import run_single_estimate  # noqa: E402
from repro.core.params import ParameterPlan  # noqa: E402
from repro.generators import barabasi_albert_graph  # noqa: E402
from repro.graph import count_triangles  # noqa: E402
from repro.streams import InMemoryEdgeStream  # noqa: E402
from repro.streams.transforms import shuffled  # noqa: E402


def _bench_sizes() -> dict:
    """The E9 size table, loaded from the benchmark itself (single source)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_passes_runtime", REPO / "benchmarks" / "bench_passes_runtime.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SIZES


ENGINE_SIZES = _bench_sizes()

#: Synthetic tape length for the sharded single-pass scan benchmark.
SCAN_EDGES = {"tiny": 200_000, "small": 600_000, "medium": 2_000_000}


def run_pytest_benchmarks(scale: str) -> dict:
    """Run the experiment regenerators; return a summary dict."""
    env = dict(os.environ, REPRO_BENCH_SCALE=scale)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only", "-q"],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    print(f"[bench-suite] pytest benchmarks ({scale}): {tail} in {elapsed:.1f}s")
    return {
        "scale": scale,
        "returncode": proc.returncode,
        "summary": tail,
        "seconds": round(elapsed, 3),
    }


def _e9_instance(n: int):
    graph = barabasi_albert_graph(n, 5, random.Random(1))
    t = count_triangles(graph)
    stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(2)))
    plan = ParameterPlan.build(
        graph.num_vertices, graph.num_edges, 5, float(max(1, t)), 0.25
    )
    return graph, t, stream, plan


def run_engine_comparison(scale: str, repeats: int = 3) -> dict:
    """Time the serial engine on the E9 sweep (best of ``repeats`` per size)."""
    rows = []
    total = 0.0
    for n in ENGINE_SIZES[scale]:
        graph, t, stream, plan = _e9_instance(n)
        # Pin workers=1: a REPRO_WORKERS environment must not silently
        # turn the serial baseline into a sharded run.
        with engine_overrides(workers=1):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                run_single_estimate(stream, plan, random.Random(3))
                best = min(best, time.perf_counter() - start)
        total += best
        rows.append({"n": n, "m": graph.num_edges, "triangles": t, "chunked_sec": round(best, 5)})
        print(f"[bench-suite] n={n}: {rows[-1]}")
    print(f"[bench-suite] engine sweep total: {total:.4f}s")
    return {"scale": scale, "rows": rows, "total_chunked_sec": round(total, 4)}


def _sharded_scan_bench(scale: str, workers: int, repeats: int = 3) -> dict:
    """One heavy degree-count pass, serial vs sharded (results asserted equal).

    This isolates the executor itself: a synthetic tape long enough that
    per-chunk kernel work dominates, scanned by the pass-2 plan with a
    large tracked-id table.
    """
    import numpy as np

    from repro.core.executor import run_plan
    from repro.core.kernels import DegreeCountPlan
    from repro.streams.multipass import PassScheduler

    m = SCAN_EDGES[scale]
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 1 << 20, size=(m, 2), dtype=np.int64)
    raw[:, 1] += 1 + raw[:, 0]  # u < v, no self-loops
    stream = InMemoryEdgeStream([tuple(row) for row in raw.tolist()], validate=False)
    tracked = np.unique(rng.integers(0, 1 << 20, size=50_000, dtype=np.int64))

    times = {}
    results = {}
    for label, w in (("serial", 1), ("sharded", workers)):
        best = float("inf")
        for _ in range(repeats):
            scheduler = PassScheduler(stream)
            start = time.perf_counter()
            results[label] = run_plan(
                scheduler, DegreeCountPlan(tracked), chunk_size=65536, workers=w
            )
            best = min(best, time.perf_counter() - start)
        times[label] = best
    assert results["serial"].tolist() == results["sharded"].tolist(), "shard merge parity violated"
    return {
        "edges": m,
        "tracked_ids": int(len(tracked)),
        "serial_sec": round(times["serial"], 5),
        "sharded_sec": round(times["sharded"], 5),
        "speedup": round(times["serial"] / times["sharded"], 2),
    }


#: Interleaved timing pairs behind the sharded and shared-probe wall-clock gates.
TIMING_PAIRS = 15


def _paired_medians(run_a, run_b, pairs: int = TIMING_PAIRS) -> tuple:
    """``(median_a, median_b, result_a, result_b)`` over interleaved runs.

    Alternating ``a, b, a, b, ...`` exposes both sides to the same load
    drift on a shared box, and the median ignores the odd descheduled
    run that decides a best-of-3 of ~30 ms timings.
    """
    times: tuple = ([], [])
    results = [None, None]
    for _ in range(pairs):
        for side, run in enumerate((run_a, run_b)):
            start = time.perf_counter()
            results[side] = run()
            times[side].append(time.perf_counter() - start)
    return statistics.median(times[0]), statistics.median(times[1]), results[0], results[1]


def _estimate_under(stream, plan, **overrides):
    """A zero-argument E9 estimate under ``engine_overrides(**overrides)``."""

    def run():
        with engine_overrides(**overrides):
            return run_single_estimate(stream, plan, random.Random(3))

    return run


def run_sharded_comparison(scale: str) -> dict:
    """Serial-chunked vs sharded executor: E9 end-to-end plus a scan bench.

    The E9 rows time :data:`TIMING_PAIRS` interleaved serial/sharded
    pairs and report the median of each side.
    """
    # Always exercise real threads (>= 2 workers), even on a single-core box
    # where that can only show overhead - the recorded cpu_count says which
    # regime the numbers came from, and the smoke gate only arms the
    # sharded regression check on multi-core machines.
    workers = max(2, min(4, os.cpu_count() or 1))
    rows = []
    totals = {"serial": 0.0, "sharded": 0.0}
    for n in ENGINE_SIZES[scale][-2:]:  # the two largest sweep sizes
        graph, t, stream, plan = _e9_instance(n)
        serial_sec, sharded_sec, serial, sharded = _paired_medians(
            _estimate_under(stream, plan, workers=1),
            _estimate_under(stream, plan, workers=workers),
        )
        times = {"serial": serial_sec, "sharded": sharded_sec}
        for label in times:
            totals[label] += times[label]
        assert serial == sharded, "sharded parity violated"
        rows.append(
            {
                "n": n,
                "m": graph.num_edges,
                "serial_sec": round(times["serial"], 5),
                "sharded_sec": round(times["sharded"], 5),
                "speedup": round(times["serial"] / times["sharded"], 2),
            }
        )
        print(f"[bench-suite] sharded n={n}: {rows[-1]}")
    scan = _sharded_scan_bench(scale, workers)
    print(f"[bench-suite] sharded scan bench: {scan}")
    return {
        "scale": scale,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "timing": f"median of {TIMING_PAIRS} interleaved pairs",
        "rows": rows,
        "total_serial_sec": round(totals["serial"], 4),
        "total_sharded_sec": round(totals["sharded"], 4),
        "total_speedup": round(totals["serial"] / totals["sharded"], 2),
        "scan": scan,
    }


#: Tracked-id counts of the shared-probe stage's three degree plans (the
#: key-set sizes of one robust-grid speculation window).
SHARED_PROBE_IDS = (240, 479, 960)


def run_shared_probe_comparison(scale: str) -> dict:
    """One sweep of three degree plans against one sweep of one.

    The three plans probe one key space, so the sweep probes each block
    once against the union of their ids; the ratio of the two medians
    (over :data:`TIMING_PAIRS` interleaved pairs, serial executor) is
    what the third and second plan cost on top of the first - ~1 when
    sharing pays, ~3 when every plan probes the block itself.  The
    shared sweep's results are asserted equal to per-plan sweeps.
    """
    import numpy as np

    from repro.core.executor import run_plan, run_plans
    from repro.core.kernels import DegreeCountPlan
    from repro.streams.multipass import PassScheduler

    m = SCAN_EDGES[scale]
    rng = np.random.default_rng(1)
    raw = rng.integers(0, 1 << 20, size=(m, 2), dtype=np.int64)
    raw[:, 1] += 1 + raw[:, 0]  # u < v, no self-loops
    stream = InMemoryEdgeStream([tuple(row) for row in raw.tolist()], validate=False)
    endpoints = np.unique(raw)
    tracked = [np.sort(rng.choice(endpoints, size=n, replace=False)) for n in SHARED_PROBE_IDS]

    def sweep(ids):
        def run():
            plans = [DegreeCountPlan(keys) for keys in ids]
            return run_plans(PassScheduler(stream), plans, chunk_size=65536, workers=1)

        return run

    one_sec, three_sec, _, shared = _paired_medians(sweep(tracked[-1:]), sweep(tracked))
    solo = [run_plan(PassScheduler(stream), DegreeCountPlan(keys), workers=1) for keys in tracked]
    assert all(a.tolist() == b.tolist() for a, b in zip(shared, solo)), "shared probe parity violated"
    result = {
        "scale": scale,
        "edges": m,
        "tracked_ids": list(SHARED_PROBE_IDS),
        "workers": 1,
        "cpu_count": os.cpu_count(),
        "timing": f"median of {TIMING_PAIRS} interleaved pairs",
        "one_plan_sec": round(one_sec, 5),
        "three_plans_sec": round(three_sec, 5),
        "ratio": round(three_sec / one_sec, 2),
    }
    print(f"[bench-suite] shared probe: {result}")
    return result


def run_speculative_comparison(scale: str, repeats: int = 3) -> dict:
    """Sequential vs speculative guessing loop on multi-round estimates.

    Both columns run the full unknown-``T`` driver (no ``t_hint``), so the
    geometric guessing loop walks several rounds before accepting - the
    regime round-pair speculation was built for.  The tape is a
    **file-backed** stream: every sweep re-parses the edge list, so the
    sweep count is what wall-clock time is made of (an in-memory tape at
    tiny scale measures only bookkeeping).  Estimates, trajectories, and
    logical-pass totals are asserted bit-identical; the speculative run's
    *physical* sweeps (committed + wasted) are asserted to never exceed
    the sequential run's, and to be strictly fewer whenever the estimate
    took more than one round.
    """
    import tempfile

    from repro.core.driver import EstimatorConfig, TriangleCountEstimator
    from repro.io import write_edgelist
    from repro.streams.file import FileEdgeStream

    rows = []
    totals = {"sequential": 0.0, "speculative": 0.0}
    sweep_counts = {}
    for n in ENGINE_SIZES[scale][-2:]:  # the two largest sweep sizes
        graph, t, _memory_stream, plan = _e9_instance(n)
        handle = tempfile.NamedTemporaryFile("w", suffix=".edges", delete=False)
        handle.close()
        write_edgelist(graph, handle.name)
        stream = FileEdgeStream(handle.name)
        times = {}
        results = {}
        for label, depth in (("sequential", 1), ("speculative", None)):
            config = EstimatorConfig(
                seed=3,
                repetitions=3,
                engine_mode="chunked",
                workers=1,
                speculate_depth=depth,
            )
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                results[label] = TriangleCountEstimator(config).estimate(
                    stream, kappa=5
                )
                best = min(best, time.perf_counter() - start)
            times[label] = best
            totals[label] += best
        sequential, speculative = results["sequential"], results["speculative"]
        assert sequential.estimate == speculative.estimate, "speculative parity violated"
        assert [
            (r.t_guess, r.median_estimate, r.accepted) for r in sequential.rounds
        ] == [
            (r.t_guess, r.median_estimate, r.accepted) for r in speculative.rounds
        ], "speculative trajectory drifted"
        assert sequential.passes_total == speculative.passes_total, (
            "speculation changed the logical-pass total"
        )
        physical = speculative.sweeps_total + speculative.sweeps_wasted
        assert physical <= sequential.sweeps_total, (
            "speculative driver performed more sweeps than sequential"
        )
        if len(sequential.rounds) > 1:
            assert physical < sequential.sweeps_total, (
                "speculation failed to reduce sweeps on a multi-round estimate"
            )
        sweep_counts = {
            "sequential": sequential.sweeps_total,
            "speculative_committed": speculative.sweeps_total,
            "speculative_wasted": speculative.sweeps_wasted,
            "speculative_physical": physical,
        }
        rows.append(
            {
                "n": n,
                "m": graph.num_edges,
                "rounds": len(sequential.rounds),
                "sequential_sec": round(times["sequential"], 5),
                "speculative_sec": round(times["speculative"], 5),
                "speedup": round(times["sequential"] / times["speculative"], 2),
                **sweep_counts,
            }
        )
        print(f"[bench-suite] speculative n={n}: {rows[-1]}")
        os.unlink(handle.name)
    return {
        "scale": scale,
        "workers": 1,
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "sweeps": sweep_counts,
        "total_sequential_sec": round(totals["sequential"], 4),
        "total_speculative_sec": round(totals["speculative"], 4),
        "total_speedup": round(totals["sequential"] / totals["speculative"], 2),
    }


#: Disjoint K8s in the depth sweep's dense workload (kappa = 7, T = 2m):
#: the estimate accepts in round 2 or 3, inside the first 4-deep window.
K8_CLIQUES = {"tiny": 2_000, "small": 8_000, "medium": 35_000}


def _timed_estimate(stream, kappa: int, config, repeats: int):
    """Best-of-``repeats`` wall clock and the last result."""
    from repro.core.driver import TriangleCountEstimator

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = TriangleCountEstimator(config).estimate(stream, kappa=kappa)
        best = min(best, time.perf_counter() - start)
    return best, result


def _dense_default_rows(scale: str, repeats: int) -> list:
    """Sequential vs the default schedule on disjoint K8s.

    The first window has no median for the expected-waste cap to clip,
    so a dense input that accepts early is the default's worst case: at
    most the window's last round (six passes) may be discarded.
    """
    from repro.core.driver import EstimatorConfig
    from repro.graph import Graph

    cliques = K8_CLIQUES[scale]
    graph = Graph(
        edges=[(8 * b + i, 8 * b + j) for b in range(cliques) for i in range(8) for j in range(i + 1, 8)]
    )
    stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(2)))
    rows = []
    for label, depth in (("sequential", 1), ("default", engine.DEFAULT_SPECULATE_DEPTH)):
        config = EstimatorConfig(seed=3, engine_mode="chunked", workers=1, speculate_depth=depth)
        best, result = _timed_estimate(stream, 7, config, repeats)
        rows.append(
            {
                "schedule": label,
                "cliques": cliques,
                "m": graph.num_edges,
                "rounds": len(result.rounds),
                "estimate": result.estimate,
                "physical": result.sweeps_total + result.sweeps_wasted,
                "passes_wasted": result.passes_wasted,
                "sec": round(best, 5),
            }
        )
        print(f"[bench-suite] k8 {label}: {rows[-1]}")
    assert rows[0]["estimate"] == rows[1]["estimate"], "default schedule parity violated"
    return rows


def run_speculative_depth_sweep(scale: str, repeats: int = 3) -> dict:
    """Physical sweeps and wall clock as a function of speculation depth.

    One canonical multi-round workload - the E9 sweep's largest size,
    written to disk so every sweep re-parses the tape - estimated by the
    sequential driver (depth 1), by speculative windows of depth 2, 3,
    and 4, and by the default schedule (no speculation field set, the
    shipped policy in force).  Estimates, trajectories, and logical-pass
    totals are asserted bit-identical at every depth, and no deeper
    window may perform more physical sweeps (committed + wasted) than the
    depth-2 pair driver.  A dense disjoint-K8 workload then compares the
    default against sequential (:func:`_dense_default_rows`).
    """
    import tempfile

    from repro.core.driver import EstimatorConfig
    from repro.io import write_edgelist
    from repro.streams.file import FileEdgeStream

    n = ENGINE_SIZES[scale][-1]
    graph, t, _memory_stream, _plan = _e9_instance(n)
    handle = tempfile.NamedTemporaryFile("w", suffix=".edges", delete=False)
    handle.close()
    write_edgelist(graph, handle.name)
    stream = FileEdgeStream(handle.name)
    rows = []
    results = {}
    try:
        base = dict(seed=3, repetitions=3, engine_mode="chunked", workers=1)
        for depth in (1, 2, 3, 4, "default"):
            config = EstimatorConfig(
                **base,
                speculate_depth=engine.DEFAULT_SPECULATE_DEPTH if depth == "default" else depth,
            )
            best, results[depth] = _timed_estimate(stream, 5, config, repeats)
            result = results[depth]
            baseline = results[1]
            assert result.estimate == baseline.estimate, "depth parity violated"
            assert [
                (r.t_guess, r.median_estimate, r.accepted) for r in result.rounds
            ] == [
                (r.t_guess, r.median_estimate, r.accepted) for r in baseline.rounds
            ], "depth sweep trajectory drifted"
            assert result.passes_total == baseline.passes_total, (
                "speculation depth changed the logical-pass total"
            )
            rows.append(
                {
                    "depth": depth,
                    "n": n,
                    "m": graph.num_edges,
                    "rounds": len(result.rounds),
                    "committed": result.sweeps_total,
                    "wasted": result.sweeps_wasted,
                    "physical": result.sweeps_total + result.sweeps_wasted,
                    "sec": round(best, 5),
                }
            )
            rows[-1]["speedup_vs_sequential"] = round(rows[0]["sec"] / best, 2)
            print(f"[bench-suite] depth {depth}: {rows[-1]}")
        by_depth = {row["depth"]: row for row in rows}
        for depth in (3, 4):
            assert by_depth[depth]["physical"] <= by_depth[2]["physical"], (
                f"depth-{depth} windows performed more sweeps than depth-2 pairs"
            )
        assert by_depth[2]["physical"] <= by_depth[1]["physical"], (
            "pair speculation performed more sweeps than sequential"
        )
    finally:
        os.unlink(handle.name)
    return {
        "scale": scale,
        "workers": 1,
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "k8_rows": _dense_default_rows(scale, repeats),
        "total_speedup": rows[-1]["speedup_vs_sequential"] if rows else None,
    }


def _result_facts(result) -> tuple:
    """Everything two drivers of one estimate must agree on."""
    return (
        result.estimate,
        [(r.t_guess, r.median_estimate, r.accepted) for r in result.rounds],
        result.passes_total,
        result.sweeps_total,
        result.sweeps_wasted,
        result.passes_wasted,
        [(r.action, r.site) for r in result.degradations],
    )


def run_fault_recovery(scale: str, repeats: int = 3) -> dict:
    """Recovery overhead: a clean threaded run vs one task crash per sweep.

    The canonical multi-round workload (file-backed, workers=2) is
    estimated twice: once clean, once with the fault harness crashing a
    task on each of the first few sweeps (every sweep at tiny scale is a
    single task, so ``worker.crash@k`` crashes sweep ``k``'s first
    attempt; the cap keeps the retry backoff bounded).  Estimates,
    trajectories, and logical-pass totals are asserted bit-identical, and
    no degradation may be recorded - this measures *recovery*, not the
    ladder.  The wall-clock overhead is the retries' backoff; the sweep
    counts show recovery costs no extra tape traversals beyond the
    retried rounds' waste (gated at <= 2x clean).  The faulted run is
    repeated through :func:`~repro.core.driver.run_estimate_program`,
    which must recover identically - it is the driver ``estimate()``
    returns the result of.
    """
    import tempfile

    from repro.core.driver import (
        EstimatorConfig,
        TriangleCountEstimator,
        run_estimate_program,
    )
    from repro.io import write_edgelist
    from repro.streams.file import FileEdgeStream

    n = ENGINE_SIZES[scale][-1]
    graph, t, _memory_stream, _plan = _e9_instance(n)
    handle = tempfile.NamedTemporaryFile("w", suffix=".edges", delete=False)
    handle.close()
    write_edgelist(graph, handle.name)
    stream = FileEdgeStream(handle.name)
    stream.stats()  # prime the cache so both columns pay the same passes
    base = dict(seed=3, repetitions=3, engine_mode="sharded", workers=2)
    try:
        clean_config = EstimatorConfig(**base)
        clean_best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            clean = TriangleCountEstimator(clean_config).estimate(stream, kappa=5)
            clean_best = min(clean_best, time.perf_counter() - start)
        clean_physical = clean.sweeps_total + clean.sweeps_wasted
        crashes = min(clean_physical, 4)
        spec = "worker.crash@" + ",".join(str(i) for i in range(crashes))
        faulted_config = EstimatorConfig(**base, faults=spec)
        start = time.perf_counter()
        faulted = TriangleCountEstimator(faulted_config).estimate(stream, kappa=5)
        faulted_sec = time.perf_counter() - start
        assert faulted.estimate == clean.estimate, "recovery parity violated"
        assert [
            (r.t_guess, r.median_estimate, r.accepted) for r in faulted.rounds
        ] == [
            (r.t_guess, r.median_estimate, r.accepted) for r in clean.rounds
        ], "recovery trajectory drifted"
        assert faulted.passes_total == clean.passes_total, (
            "recovery changed the logical-pass total"
        )
        assert not faulted.degradations, (
            f"recovery run degraded a tier: {faulted.degradations}"
        )
        direct = run_estimate_program(stream, 5, faulted_config).result
        assert _result_facts(direct) == _result_facts(faulted), (
            "run_estimate_program recovered differently from estimate()"
        )
        faulted_physical = faulted.sweeps_total + faulted.sweeps_wasted
        row = {
            "n": n,
            "m": graph.num_edges,
            "rounds": len(clean.rounds),
            "crashes_injected": crashes,
            "clean_sec": round(clean_best, 5),
            "faulted_sec": round(faulted_sec, 5),
            "overhead_x": round(faulted_sec / clean_best, 2) if clean_best else None,
            "clean_sweeps": clean_physical,
            "faulted_sweeps": faulted_physical,
        }
        print(f"[bench-suite] fault recovery: {row}")
    finally:
        os.unlink(handle.name)
    return {
        "scale": scale,
        "workers": 2,
        "cpu_count": os.cpu_count(),
        "rows": [row],
        "recovered_identical": True,
    }


def run_tape_format_comparison(scale: str, repeats: int = 3) -> dict:
    """Text edge list vs binary ``.etape`` tape on the canonical workload.

    The E9 sweep's largest size is written to disk twice - once as the
    text format every sweep re-parses, once converted to the packed
    binary tape the mmap stream slices zero-copy - and measured two ways:

    * **raw sweep throughput**: one full chunked pass over each format
      (every chunk's column sums reduced, so mapped pages are actually
      touched), reported as edges/sec;
    * **end-to-end estimates**: the full multi-round driver on each
      format, asserted bit-identical (estimate, trajectory, logical
      passes) - the storage format must be invisible to the sampling
      layer - with the wall-clock speedup recorded.
    """
    import tempfile

    import numpy as np

    from repro.core.driver import EstimatorConfig, TriangleCountEstimator
    from repro.io import write_edgelist
    from repro.streams.file import FileEdgeStream
    from repro.streams.tape import MmapEdgeStream, write_tape

    n = ENGINE_SIZES[scale][-1]
    graph, t, _memory_stream, _plan = _e9_instance(n)
    handle = tempfile.NamedTemporaryFile("w", suffix=".edges", delete=False)
    handle.close()
    tape_path = handle.name + ".etape"
    write_edgelist(graph, handle.name)
    try:
        write_tape(handle.name, tape_path)
        streams = {
            "text": FileEdgeStream(handle.name),
            "mmap": MmapEdgeStream(tape_path),
        }
        streams["text"].stats()  # prime: the stats sweep is not under test

        def sweep_once(stream):
            total = np.int64(0)
            edges = 0
            for chunk in stream.iter_chunks(65536):
                total += chunk.sum()  # touch every mapped page
                edges += len(chunk)
            return edges, total

        sweep = {}
        checks = {}
        for label, stream in streams.items():
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                edges, total = sweep_once(stream)
                best = min(best, time.perf_counter() - start)
            sweep[label] = {
                "sec": round(best, 5),
                "edges": edges,
                "edges_per_sec": round(edges / best),
            }
            checks[label] = (edges, int(total))
        assert checks["text"] == checks["mmap"], "formats swept different tapes"

        config = EstimatorConfig(seed=3, repetitions=3, engine_mode="chunked", workers=1)
        times = {}
        results = {}
        for label, stream in streams.items():
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                results[label] = TriangleCountEstimator(config).estimate(
                    stream, kappa=5
                )
                best = min(best, time.perf_counter() - start)
            times[label] = best
        text_result, mmap_result = results["text"], results["mmap"]
        assert mmap_result.estimate == text_result.estimate, "format parity violated"
        assert [
            (r.t_guess, r.median_estimate, r.accepted) for r in mmap_result.rounds
        ] == [
            (r.t_guess, r.median_estimate, r.accepted) for r in text_result.rounds
        ], "format trajectory drifted"
        assert mmap_result.passes_total == text_result.passes_total, (
            "storage format changed the logical-pass total"
        )
        row = {
            "n": n,
            "m": graph.num_edges,
            "rounds": len(text_result.rounds),
            "text_sweep_eps": sweep["text"]["edges_per_sec"],
            "mmap_sweep_eps": sweep["mmap"]["edges_per_sec"],
            "sweep_speedup": round(sweep["text"]["sec"] / sweep["mmap"]["sec"], 2),
            "text_estimate_sec": round(times["text"], 5),
            "mmap_estimate_sec": round(times["mmap"], 5),
            "estimate_speedup": round(times["text"] / times["mmap"], 2),
        }
        print(f"[bench-suite] tape format: {row}")
    finally:
        os.unlink(handle.name)
        if os.path.exists(tape_path):
            os.unlink(tape_path)
    return {
        "scale": scale,
        "workers": 1,
        "cpu_count": os.cpu_count(),
        "rows": [row],
        "sweep": sweep,
        "total_speedup": row["estimate_speedup"],
    }


def run_snapshot_overhead(scale: str, repeats: int = 3) -> dict:
    """Durable-snapshot overhead and kill-at-round-k resume parity.

    The canonical multi-round workload (file-backed, sharded workers=2,
    speculation depth 3) is estimated three ways:

    * **clean**: no checkpoint dir - the baseline wall clock;
    * **snapshotted**: a checkpoint dir configured, an atomic ``.esnap``
      snapshot (tmp + fsync + rename) after every committed round -
      asserted bit-identical to the clean run (snapshotting must be
      invisible to the trajectory), wall overhead recorded;
    * **resumed**: the run restarted from a *mid-run* snapshot - exactly
      what a crash at that round boundary leaves behind - asserted
      bit-identical to the clean run (estimate, trajectory, logical-pass
      total; the kill -9 subprocess variant is pinned in
      ``tests/test_snapshot.py``).
    """
    import shutil
    import tempfile

    from repro.core.driver import EstimatorConfig, TriangleCountEstimator, resume_from
    from repro.io import write_edgelist
    from repro.streams.file import FileEdgeStream

    n = ENGINE_SIZES[scale][-1]
    graph, t, _memory_stream, _plan = _e9_instance(n)
    handle = tempfile.NamedTemporaryFile("w", suffix=".edges", delete=False)
    handle.close()
    write_edgelist(graph, handle.name)
    stream = FileEdgeStream(handle.name)
    stream.stats()  # prime the cache so all columns pay the same passes
    checkpoint_dir = tempfile.mkdtemp(prefix="esnap-bench-")
    base = dict(
        seed=3,
        repetitions=3,
        engine_mode="sharded",
        workers=2,
        speculate_depth=3,
    )

    def trajectory(result):
        return [(r.t_guess, r.median_estimate, r.accepted) for r in result.rounds]

    try:
        clean_config = EstimatorConfig(**base)
        clean_best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            clean = TriangleCountEstimator(clean_config).estimate(stream, kappa=5)
            clean_best = min(clean_best, time.perf_counter() - start)
        snap_config = EstimatorConfig(
            **base, checkpoint_dir=checkpoint_dir, snapshot_every=1, snapshot_keep=64
        )
        snap_best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            snapped = TriangleCountEstimator(snap_config).estimate(stream, kappa=5)
            snap_best = min(snap_best, time.perf_counter() - start)
        assert snapped.estimate == clean.estimate, "snapshotting parity violated"
        assert trajectory(snapped) == trajectory(clean), "snapshotting drifted the trajectory"
        assert snapped.passes_total == clean.passes_total, (
            "snapshotting changed the logical-pass total"
        )
        snapshots = sorted(
            name for name in os.listdir(checkpoint_dir) if name.endswith(".esnap")
        )
        assert snapshots, "no snapshots were written"
        # Resume from a mid-run boundary - the state a kill between rounds
        # leaves on disk - and demand the clean run's exact result.
        mid = snapshots[len(snapshots) // 2]
        resumed = resume_from(os.path.join(checkpoint_dir, mid), stream)
        assert resumed.estimate == clean.estimate, "resume parity violated"
        assert trajectory(resumed) == trajectory(clean), "resume trajectory drifted"
        assert resumed.passes_total == clean.passes_total, (
            "resume changed the logical-pass total"
        )
        row = {
            "n": n,
            "m": graph.num_edges,
            "rounds": len(clean.rounds),
            "snapshots_written": len(snapshots),
            "resumed_from": mid,
            "clean_sec": round(clean_best, 5),
            "snapshot_sec": round(snap_best, 5),
            "overhead_x": round(snap_best / clean_best, 3) if clean_best else None,
        }
        print(f"[bench-suite] snapshot overhead: {row}")
    finally:
        os.unlink(handle.name)
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return {
        "scale": scale,
        "workers": 2,
        "cpu_count": os.cpu_count(),
        "rows": [row],
        "resumed_identical": True,
    }


def run_serve_throughput(scale: str, repeats: int = 1, jobs: int = 3) -> dict:
    """Cross-job sweep sharing through the serving daemon vs. solo runs.

    ``jobs`` concurrent estimate requests for the same tape (distinct
    seeds, so nothing is cacheable) are served by one daemon over its
    unix socket, with a batch window wide enough that they co-ride from
    the first traversal.  Each response is asserted bit-identical to its
    solo :func:`~repro.core.driver.run_estimate_program` run (estimate,
    trajectory totals, final root-RNG digest), and the tape's physical
    sweep count must come in strictly under the solo runs' sum - the
    daemon's whole value proposition, gated deterministically on sweep
    counts rather than wall clock.  Each solo run is repeated through
    ``estimate()``, which must give the same result.
    """
    import shutil
    import tempfile
    import threading

    from repro.core.driver import (
        EstimatorConfig,
        TriangleCountEstimator,
        run_estimate_program,
    )
    from repro.io import write_edgelist
    from repro.serve.daemon import background_server
    from repro.serve.protocol import request_unix, root_rng_digest
    from repro.streams import open_edge_stream

    n = ENGINE_SIZES[scale][-1]
    graph, _t, _memory_stream, _plan = _e9_instance(n)
    workdir = tempfile.mkdtemp(prefix="serve-bench-")
    tape_path = os.path.join(workdir, "tape.edges")
    write_edgelist(graph, tape_path)
    configs = [
        EstimatorConfig(seed=seed, repetitions=3) for seed in (3, 9, 21)[:jobs]
    ]

    try:
        solo = []
        solo_best = float("inf")
        for _ in range(repeats):
            outcomes = []
            start = time.perf_counter()
            for config in configs:
                outcomes.append(
                    run_estimate_program(open_edge_stream(tape_path), 5, config)
                )
            solo_best = min(solo_best, time.perf_counter() - start)
            solo = outcomes
        solo_sweeps = sum(o.result.sweeps_total for o in solo)
        for outcome, config in zip(solo, configs):
            result = TriangleCountEstimator(config).estimate(open_edge_stream(tape_path), 5)
            assert _result_facts(result) == _result_facts(outcome.result), (
                "estimate() diverged from run_estimate_program"
            )

        socket_path = os.path.join(workdir, "serve.sock")
        responses = [None] * len(configs)

        def _request(index: int, config: EstimatorConfig) -> None:
            responses[index] = request_unix(
                socket_path,
                {
                    "op": "estimate",
                    "path": tape_path,
                    "kappa": 5,
                    "config": {"seed": config.seed, "repetitions": config.repetitions},
                },
            )

        with background_server(socket_path=socket_path, batch_window=0.25):
            threads = [
                threading.Thread(target=_request, args=(i, config))
                for i, config in enumerate(configs)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            served_sec = time.perf_counter() - start
            stats = request_unix(socket_path, {"op": "stats"})

        shared_sweeps = stats["tapes"][0]["sweeps_physical"]
        for outcome, response in zip(solo, responses):
            assert response is not None and response["ok"], f"serve failed: {response}"
            assert response["estimate"] == outcome.result.estimate, "serve parity violated"
            assert response["passes_total"] == outcome.result.passes_total
            assert response["sweeps_total"] == outcome.result.sweeps_total
            assert response["root_rng_sha256"] == root_rng_digest(outcome.root_state), (
                "served root-RNG state diverged from the solo run"
            )
        assert shared_sweeps < solo_sweeps, (
            f"shared serving did not save sweeps: {shared_sweeps} vs {solo_sweeps}"
        )
        row = {
            "n": n,
            "m": graph.num_edges,
            "jobs": len(configs),
            "solo_sweeps": solo_sweeps,
            "shared_sweeps": shared_sweeps,
            "sweep_reduction_x": round(solo_sweeps / shared_sweeps, 3)
            if shared_sweeps
            else None,
            "solo_sec": round(solo_best, 5),
            "served_sec": round(served_sec, 5),
            "shared_per_job": [r["accounting"]["sweeps_shared"] for r in responses],
        }
        print(f"[bench-suite] serve throughput: {row}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"scale": scale, "rows": [row], "parity": True}


def _load_history(path: pathlib.Path) -> list:
    """Load the ``BENCH_engine.json`` run history, surviving corruption.

    A crash during an earlier (pre-atomic-write) append could leave a
    truncated or half-written file behind.  Losing the perf trajectory is
    preferable to refusing every future benchmark run: an unreadable
    history is backed up next to the original (``.corrupt-<epoch>``) and
    the history restarts empty.  Earlier revisions wrote a single record
    instead of an array; those are folded into a one-element list.
    """
    if not path.exists():
        return []
    try:
        existing = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError):
        backup = path.with_name(f"{path.name}.corrupt-{int(time.time())}")
        os.replace(path, backup)
        print(f"[bench-suite] WARNING: {path.name} was unreadable; backed up to {backup.name}")
        return []
    return existing if isinstance(existing, list) else [existing]


def _last_speedup(path: pathlib.Path, section: str, scale: str, key: str = "total_speedup"):
    """Newest recorded ``key`` (default ``total_speedup``) for ``section`` at ``scale``.

    Measurements are only comparable between runs of the same sweep sizes,
    so the gate baselines against the most recent record whose comparison
    was taken at the same scale (records from other scales are skipped).
    """
    for record in reversed(_load_history(path)):
        comparison = record.get(section) or {}
        if comparison.get("scale") == scale:
            return comparison.get(key)
    return None


def run_smoke(output: pathlib.Path) -> int:
    """Tiny-scale regression gate against the last ``BENCH_engine.json`` entry.

    Parity is asserted unconditionally (any drift fails loudly).  The
    serial E9 sweep time and the speedups are compared - at matching scale
    only - with a 2x slack factor (machine noise and shared CI boxes make
    tighter gates flaky), and the sharded gate only arms on multi-core
    machines where fan-out can win at all.  The sharded speedup is a ratio
    of medians over :data:`TIMING_PAIRS` interleaved pairs (see
    :func:`_paired_medians`).
    """
    current_engine = run_engine_comparison("tiny")
    current_sharded = run_sharded_comparison("tiny")
    current_shared_probe = run_shared_probe_comparison("tiny")
    current_speculative = run_speculative_comparison("tiny")
    current_depth_sweep = run_speculative_depth_sweep("tiny")
    current_fault_recovery = run_fault_recovery("tiny")
    current_tape_format = run_tape_format_comparison("tiny")
    current_snapshot = run_snapshot_overhead("tiny")
    current_serve = run_serve_throughput("tiny")
    failures = []
    baseline = _last_speedup(output, "engine_comparison", "tiny", "total_chunked_sec")
    measured = current_engine["total_chunked_sec"]
    if baseline is not None and measured > 2.0 * baseline:
        failures.append(
            f"serial E9 sweep regressed: {measured}s vs last recorded {baseline}s (> 2x)"
        )
    last_sharded = _last_speedup(output, "sharded_comparison", "tiny")
    measured_sharded = current_sharded.get("total_speedup")
    multicore = (os.cpu_count() or 1) > 1
    if (
        multicore
        and last_sharded is not None
        and measured_sharded is not None
        and measured_sharded < 0.5 * last_sharded
    ):
        failures.append(
            f"sharded speedup regressed: {measured_sharded}x vs last recorded {last_sharded}x"
        )
    # Plans sharing a sweep probe each block once per key space, so three
    # degree plans must cost well under three single-plan sweeps (~1.1x
    # when the union probe is shared, ~2.5-3x when each plan probes).
    shared_ratio = current_shared_probe.get("ratio")
    if shared_ratio is not None and shared_ratio > 2.0:
        failures.append(
            f"shared probe not shared: 3-plan sweep {shared_ratio}x a 1-plan sweep (> 2.0x)"
        )
    # The speculation gate is deterministic (sweep counts, not wall clock):
    # a speculative multi-round run must not exceed the sequential sweep
    # count even including the physically-performed wasted sweeps.  Parity
    # and the strict multi-round reduction are asserted inside the
    # comparison; this re-checks the recorded counts per row so a
    # silently-empty comparison cannot pass the gate.
    speculative_rows = current_speculative.get("rows", [])
    for row in speculative_rows:
        physical = row["speculative_physical"]
        sequential_sweeps = row["sequential"]
        multi_round = row.get("rounds", 1) > 1
        if physical > sequential_sweeps or (multi_round and physical >= sequential_sweeps):
            failures.append(
                f"speculative driver sweeps not under sequential at n={row['n']}: "
                f"{physical} vs {sequential_sweeps}"
            )
    if not speculative_rows:
        failures.append("speculative comparison produced no sweep counts")
    # The depth gate is likewise deterministic: on the canonical workload
    # a depth-3 window must come in at or under the depth-2 pair driver's
    # physical sweep count (committed + wasted).  Parity across depths is
    # asserted inside the sweep; this re-checks the recorded counts so a
    # silently-empty sweep cannot pass the gate.
    depth_rows = {row["depth"]: row for row in current_depth_sweep.get("rows", [])}
    if depth_rows:
        if 2 not in depth_rows or 3 not in depth_rows:
            failures.append("speculative depth sweep missing depth 2/3 rows")
        elif depth_rows[3]["physical"] > depth_rows[2]["physical"]:
            failures.append(
                "depth-3 speculation regressed: "
                f"{depth_rows[3]['physical']} physical sweeps vs depth-2's "
                f"{depth_rows[2]['physical']}"
            )
    else:
        failures.append("speculative depth sweep produced no rows")
    # The default-schedule gates are deterministic too: with no
    # speculation field set, the canonical multi-round workload must take
    # fewer physical sweeps than sequential, and the dense K8 workload -
    # whose first window the waste cap cannot clip - may discard at most
    # one round's six passes.
    if depth_rows:
        default_row, sequential_row = depth_rows.get("default"), depth_rows.get(1)
        if default_row is None or sequential_row is None:
            failures.append("speculative depth sweep missing default/sequential rows")
        elif default_row["physical"] >= sequential_row["physical"]:
            failures.append(
                "default schedule saved no sweeps: "
                f"{default_row['physical']} physical vs sequential's {sequential_row['physical']}"
            )
        k8_default = [
            row for row in current_depth_sweep.get("k8_rows", []) if row["schedule"] == "default"
        ]
        if not k8_default:
            failures.append("speculative depth sweep produced no K8 default row")
        elif k8_default[0]["passes_wasted"] > 6:
            failures.append(
                f"default schedule wasted {k8_default[0]['passes_wasted']} passes on K8s (> 6)"
            )
    # The fault-recovery gate is deterministic: recovery from injected
    # worker crashes must complete with bit-identical results (asserted
    # inside the stage) and cost at most 2x the clean run's physical
    # sweeps - recovery is retried tasks, not re-sweeps,
    # so anything past that slack means retries are re-reading the tape.
    recovery_rows = current_fault_recovery.get("rows", [])
    for row in recovery_rows:
        if row["faulted_sweeps"] > 2 * row["clean_sweeps"]:
            failures.append(
                "fault recovery swept the tape too often: "
                f"{row['faulted_sweeps']} vs clean {row['clean_sweeps']}"
            )
    if not recovery_rows:
        failures.append("fault recovery stage produced no rows")
    # The tape-format gate: the whole point of the binary format is that a
    # mapped sweep skips parsing entirely, so its raw sweep throughput
    # must never fall below the text parser's.  Bit-identical estimates
    # across the formats are asserted inside the comparison.
    tape_rows = current_tape_format.get("rows", [])
    for row in tape_rows:
        if row["mmap_sweep_eps"] < row["text_sweep_eps"]:
            failures.append(
                "mmap tape sweep slower than text parsing: "
                f"{row['mmap_sweep_eps']} vs {row['text_sweep_eps']} edges/sec"
            )
    if not tape_rows:
        failures.append("tape format comparison produced no rows")
    # The snapshot gate: resume parity is asserted inside the stage (a
    # non-identical resume raises); here we re-check the recorded flag so
    # a silently-empty stage cannot pass, and bound the wall overhead -
    # one small atomic write per committed round must not dominate the
    # round itself (2x slack for fsync latency on shared CI disks).
    snapshot_rows = current_snapshot.get("rows", [])
    if not current_snapshot.get("resumed_identical", False):
        failures.append("snapshot stage did not verify a bit-identical resume")
    for row in snapshot_rows:
        overhead = row.get("overhead_x")
        if overhead is not None and overhead > 2.0:
            failures.append(
                f"round-boundary snapshotting too expensive: {overhead}x clean wall clock"
            )
    if not snapshot_rows:
        failures.append("snapshot overhead stage produced no rows")
    # The serving gate is deterministic: concurrent same-tape jobs must be
    # bit-identical to their solo runs (asserted inside the stage) AND
    # physically cheaper than running them solo - shared sweeps strictly
    # under the solo sum, re-checked here per row so a silently-empty
    # stage cannot pass.
    serve_rows = current_serve.get("rows", [])
    for row in serve_rows:
        if row["shared_sweeps"] >= row["solo_sweeps"]:
            failures.append(
                "serving daemon saved no sweeps: "
                f"{row['shared_sweeps']} shared vs {row['solo_sweeps']} solo"
            )
    if not serve_rows:
        failures.append("serve throughput stage produced no rows")
    if serve_rows and not current_serve.get("parity", False):
        failures.append("serve throughput stage did not verify parity")
    for failure in failures:
        print(f"[bench-suite] SMOKE FAIL: {failure}")
    if not failures:
        print("[bench-suite] smoke gate passed")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default=os.environ.get("REPRO_BENCH_SCALE", "tiny"),
                        choices=("tiny", "small", "medium"))
    parser.add_argument("--skip-pytest", action="store_true",
                        help="only run the engine measurements")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-scale regression gate vs the last recorded entry; appends nothing")
    parser.add_argument("--output", default=str(REPO / "BENCH_engine.json"))
    args = parser.parse_args()

    if args.smoke:
        return run_smoke(pathlib.Path(args.output))

    record = {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    if not args.skip_pytest:
        record["benchmarks"] = run_pytest_benchmarks(args.scale)
    record["engine_comparison"] = run_engine_comparison(args.scale)
    record["sharded_comparison"] = run_sharded_comparison(args.scale)
    record["shared_probe"] = run_shared_probe_comparison(args.scale)
    record["speculative_comparison"] = run_speculative_comparison(args.scale)
    record["speculative_depth_sweep"] = run_speculative_depth_sweep(args.scale)
    record["fault_recovery"] = run_fault_recovery(args.scale)
    record["tape_format_comparison"] = run_tape_format_comparison(args.scale)
    record["snapshot_overhead"] = run_snapshot_overhead(args.scale)
    record["serve_throughput"] = run_serve_throughput(args.scale)

    out = pathlib.Path(args.output)
    history = _load_history(out)
    history.append(record)
    from repro.core.snapshot import atomic_write_text

    atomic_write_text(out, json.dumps(history, indent=2) + "\n")
    print(f"[bench-suite] appended run {len(history)} to {out}")
    failed = record.get("benchmarks", {}).get("returncode", 0) != 0
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
