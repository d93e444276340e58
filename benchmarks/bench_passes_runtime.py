"""E9 - pass structure and runtime scaling.

Confirms the constant-pass discipline measured end to end (6 passes per
Algorithm 2 run, 3 with the degree oracle, 1 for the exact counter) and
times the estimator across a size sweep of the BA family - serially and
on several threads, so the table doubles as the executor speedup report.
Both produce bit-identical results (``tests/test_executor_sharded.py``),
so the columns differ only in speed.

Reproduction target: per-run passes never exceed their stated constants;
wall time grows near-linearly in m (each pass is one sweep; sample sizes at
fixed T/m ratio stay bounded).  The sharded column reports the thread win
over serial - it only pays off on a multi-core box and at sizes where
kernel work dominates task dispatch, so at small scales (or one core)
expect ratios at or below 1x.
"""

from __future__ import annotations

import os
import random
import time

from repro import EstimatorConfig
from repro.analysis import format_table
from repro.core import DegreeOracle, IdealEstimator, engine_overrides
from repro.core.exact_reference import ExactStreamingCounter
from repro.core.params import ParameterPlan
from repro.core.estimator import run_single_estimate
from repro.graph import count_triangles
from repro.generators import barabasi_albert_graph
from repro.streams.memory import InMemoryEdgeStream
from repro.streams.transforms import shuffled

SIZES = {"tiny": [250, 500], "small": [500, 1000, 2000, 4000], "medium": [1000, 2000, 4000, 8000, 16000]}

#: Threads per sweep for the sharded engine column.
SHARD_WORKERS = min(4, os.cpu_count() or 1)


def run_passes_runtime(scale: str, seeds: range) -> None:
    rows = []
    totals = {"chunked": 0.0, "sharded": 0.0}
    # (label, worker count); sharded = the kernels fanned across threads by
    # the shared executor.
    engines = [("chunked", 1), ("sharded", SHARD_WORKERS)]
    for n in SIZES[scale]:
        graph = barabasi_albert_graph(n, 5, random.Random(1))
        t = count_triangles(graph)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(2)))

        plan = ParameterPlan.build(
            graph.num_vertices, graph.num_edges, 5, float(max(1, t)), 0.25
        )
        engine_times = {}
        results = {}
        for label, workers in engines:
            with engine_overrides(workers=workers):
                best = float("inf")
                for _ in seeds:
                    start = time.perf_counter()
                    results[label] = run_single_estimate(stream, plan, random.Random(3))
                    best = min(best, time.perf_counter() - start)
            engine_times[label] = best
            totals[label] += best
        # Same seed, same answer: the thread counts differ only in speed.
        assert results["chunked"] == results["sharded"]
        single = results["sharded"]

        oracle_result = IdealEstimator(
            DegreeOracle(graph), copies=200, rng=random.Random(4)
        ).estimate(stream)
        exact_result = ExactStreamingCounter().count(stream)

        rows.append(
            [
                n,
                graph.num_edges,
                t,
                single.passes_used,
                oracle_result.passes_used,
                exact_result.passes_used,
                engine_times["chunked"],
                engine_times["sharded"],
                engine_times["chunked"] / max(engine_times["sharded"], 1e-9),
                graph.num_edges / max(engine_times["chunked"], 1e-9),
            ]
        )
        assert single.passes_used <= 6
        assert oracle_result.passes_used == 3
        assert exact_result.passes_used == 1
    print()
    print(
        format_table(
            [
                "n",
                "m",
                "T",
                "alg2 passes",
                "oracle passes",
                "exact passes",
                "chunked sec",
                f"sharded sec (w={SHARD_WORKERS})",
                "shard speedup",
                "edges/sec",
            ],
            rows,
            caption=(
                "E9: pass constants and runtime scaling (BA family, one Algorithm 2 "
                "run per engine setting; identical estimates)"
            ),
        )
    )
    print(
        f"sweep total: chunked {totals['chunked']:.3f}s, "
        f"sharded {totals['sharded']:.3f}s (workers={SHARD_WORKERS}), "
        f"shard speedup {totals['chunked'] / max(totals['sharded'], 1e-9):.2f}x"
    )


def test_passes_runtime(benchmark, bench_scale, bench_seeds):
    benchmark.pedantic(
        run_passes_runtime, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
