"""Sharded pass-executor parity: bit-identical across worker counts.

The sharded executor (:mod:`repro.core.executor`) must produce exactly the
results of the serial chunked engine - and therefore of the pure-Python
reference path - for the same seeds, whatever the worker count, batch
size, or chunk boundaries.  These tests pin that invariant end to end
(single runner, parallel runner, driver, file streams) and at the plan
level, including the cross-instance unique-key dedup fan-out of passes 4
and 6.

Worker pools are real processes (reused across tests); the task-batch
floor is shrunk so even tiny test streams split into many shard tasks.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import engine, executor
from repro.core.estimator import run_single_estimate, stage_pass4
from repro.core.kernels import (
    DegreeCountPlan,
    NeighborPositionPlan,
    PositionCollectPlan,
    WatchKeyPlan,
)
from repro.core.parallel import run_parallel_estimates
from repro.core.params import ParameterPlan
from repro.core.stages import execute_stage
from repro.core.driver import EstimatorConfig, TriangleCountEstimator
from repro.generators import planted_triangles_graph, rmat_graph, wheel_graph
from repro.graph import count_triangles, degeneracy
from repro.streams import InMemoryEdgeStream, PassScheduler, SpaceMeter
from repro.streams.file import FileEdgeStream
from repro.streams.transforms import shuffled

WORKER_COUNTS = [2, 4]


@pytest.fixture(autouse=True)
def _small_task_batches(monkeypatch):
    """Force multi-task shards even on tiny test streams."""
    monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 32)


def _stream_and_plan(graph, order_seed=11, epsilon=0.25):
    stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(order_seed)))
    kappa = max(1, degeneracy(graph))
    t = float(max(1, count_triangles(graph)))
    plan = ParameterPlan.build(graph.num_vertices, graph.num_edges, kappa, t, epsilon)
    return stream, plan


GRAPHS = {
    "wheel": lambda: wheel_graph(120),
    "rmat": lambda: rmat_graph(8, 6, random.Random(5)),
    "planted": lambda: planted_triangles_graph(150, 60, kappa_clique=6, rng=random.Random(7)),
}


class TestSingleRunnerSharded:
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_identical_to_serial_and_python(self, family, workers):
        stream, plan = _stream_and_plan(GRAPHS[family]())
        with engine.engine_overrides("python"):
            ref_py = run_single_estimate(stream, plan, random.Random(1))
        with engine.engine_overrides("chunked", 67, 1):
            meter_serial = SpaceMeter()
            ref = run_single_estimate(stream, plan, random.Random(1), meter=meter_serial)
        with engine.engine_overrides("chunked", 67, workers):
            meter_sharded = SpaceMeter()
            got = run_single_estimate(stream, plan, random.Random(1), meter=meter_sharded)
        assert got == ref == ref_py  # estimates, diagnostics, passes: all fields
        assert meter_sharded.peak_words == meter_serial.peak_words
        assert meter_sharded.peak_breakdown() == meter_serial.peak_breakdown()

    @pytest.mark.parametrize("chunk", [1, 7, 64, 119, 120, 121, 100_000])
    def test_chunk_boundary_splits(self, chunk):
        # m = 2*120 - 2 = 238 for the wheel: chunks land mid-stream, at the
        # stream edge, and beyond it; every split must merge identically.
        stream, plan = _stream_and_plan(wheel_graph(120))
        with engine.engine_overrides("chunked", chunk, 1):
            ref = run_single_estimate(stream, plan, random.Random(3))
        with engine.engine_overrides("chunked", chunk, 2):
            got = run_single_estimate(stream, plan, random.Random(3))
        assert got == ref

    def test_duplicate_edges_stay_bit_identical(self):
        # Unvalidated tapes may repeat edges; the occurrence-counted pass-6
        # merge (summed, not presence-based) must keep shards identical.
        graph = wheel_graph(80)
        order = shuffled(graph, random.Random(3))
        tape = order + order[:9]
        stream = InMemoryEdgeStream(tape, validate=False)
        plan = ParameterPlan.build(
            graph.num_vertices, len(tape), 3, float(count_triangles(graph)), 0.25
        )
        with engine.engine_overrides("python"):
            ref = run_single_estimate(stream, plan, random.Random(5))
        with engine.engine_overrides("chunked", 37, 4):
            got = run_single_estimate(stream, plan, random.Random(5))
        assert got == ref

    def test_file_stream_sharded(self, tmp_path):
        graph = wheel_graph(90)
        order = shuffled(graph, random.Random(2))
        path = tmp_path / "edges.txt"
        path.write_text(
            "# comment line\n" + "\n".join(f"{u} {v}" for u, v in order) + "\n",
            encoding="utf-8",
        )
        stream = FileEdgeStream(path)
        plan = ParameterPlan.build(
            graph.num_vertices, graph.num_edges, 3, float(count_triangles(graph)), 0.25
        )
        with engine.engine_overrides("python"):
            ref = run_single_estimate(stream, plan, random.Random(4))
        with engine.engine_overrides("chunked", 31, 2):
            got = run_single_estimate(stream, plan, random.Random(4))
        assert got == ref


class TestParallelRunnerSharded:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_identical_results(self, workers):
        stream, plan = _stream_and_plan(GRAPHS["planted"]())
        rngs = lambda: [random.Random(s) for s in range(5)]  # noqa: E731
        with engine.engine_overrides("python"):
            ref = run_parallel_estimates(stream, plan, rngs())
        with engine.engine_overrides("chunked", 53, workers):
            got = run_parallel_estimates(stream, plan, rngs())
        assert got == ref

    def test_cross_instance_watch_dedup_fans_out(self):
        # Two instances watch the *same* missing edge: the shared pass-4
        # scan carries one unique key and the hit must fan out to both
        # (instance, draw) watchers identically under sharding.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4)]
        stream = InMemoryEdgeStream(edges)
        draws = [[(0, 1)], [(0, 1)]]  # both instances drew the same edge
        owners = [[0], [0]]
        apexes = [[2], [2]]  # wedge {0-1, 0-2}: missing edge is (1, 2)
        results = []
        for workers in (1, 2):
            scheduler = PassScheduler(stream)
            with engine.engine_overrides("chunked", 2, workers):
                results.append(
                    execute_stage(
                        scheduler,
                        stage_pass4(draws, owners, apexes, SpaceMeter(), chunked=True),
                    )
                )
        assert results[0] == results[1] == [[(0, 1, 2)], [(0, 1, 2)]]

    def test_driver_workers_config_end_to_end(self):
        graph = wheel_graph(150)
        t = count_triangles(graph)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(0)))
        base = dict(seed=7, repetitions=3, t_hint=float(t))
        serial = TriangleCountEstimator(
            EstimatorConfig(engine_mode="chunked", workers=1, **base)
        ).estimate(stream, kappa=3)
        sharded = TriangleCountEstimator(
            EstimatorConfig(engine_mode="sharded", workers=2, chunk_size=41, **base)
        ).estimate(stream, kappa=3)
        assert sharded.estimate == serial.estimate
        assert sharded.rounds == serial.rounds


class TestPlanLevelMerges:
    def _scheduler(self, edges):
        return PassScheduler(InMemoryEdgeStream(edges, validate=False))

    def test_degree_counts_sum_across_shards(self):
        rng = random.Random(0)
        edges = [(rng.randrange(50), 50 + rng.randrange(50)) for _ in range(500)]
        ids = np.arange(0, 100, 3, dtype=np.int64)
        serial = executor.run_plan(
            self._scheduler(edges), DegreeCountPlan(ids), chunk_size=16, workers=1
        )
        sharded = executor.run_plan(
            self._scheduler(edges), DegreeCountPlan(ids), chunk_size=16, workers=2
        )
        assert serial.tolist() == sharded.tolist()

    def test_positions_served_across_batch_boundaries(self):
        edges = [(i, i + 1) for i in range(400)]
        positions = np.array([0, 31, 32, 33, 399, 200, 200], dtype=np.int64)
        serial = executor.run_plan(
            self._scheduler(edges), PositionCollectPlan(positions), chunk_size=32, workers=1
        )
        sharded = executor.run_plan(
            self._scheduler(edges), PositionCollectPlan(positions), chunk_size=32, workers=2
        )
        assert serial == sharded == [edges[p] for p in positions.tolist()]

    def test_neighbor_occurrences_merge_in_stream_order(self):
        # Owner 5 appears on many edges; occurrence numbering must fold
        # per-batch counts in stream-offset order to stay global.
        edges = [(5, 100 + i) if i % 3 == 0 else (i, i + 1) for i in range(300)]
        owner_ids = np.array([5], dtype=np.int64)
        owner_index = np.zeros(4, dtype=np.int64)
        positions = np.array([0, 7, 50, 99], dtype=np.int64)
        results = [
            executor.run_plan(
                self._scheduler(edges),
                NeighborPositionPlan(owner_ids, owner_index, positions),
                chunk_size=16,
                workers=w,
            ).tolist()
            for w in (1, 2, 4)
        ]
        assert results[0] == results[1] == results[2]
        incident = [v if u == 5 else u for u, v in edges if 5 in (u, v)]
        expected = [incident[p] if p < len(incident) else -1 for p in positions.tolist()]
        assert results[0] == expected

    def test_watch_keys_union_and_early_stop_keeps_budget(self):
        # All keys found in the first few chunks: the serial path abandons
        # early; sharded must return the same union and the pass budget
        # must survive either way.
        edges = [(0, 1), (2, 3)] + [(10 + i, 11 + i) for i in range(200)]
        keys = [(0, 1), (2, 3)]
        for workers in (1, 2):
            scheduler = PassScheduler(
                InMemoryEdgeStream(edges, validate=False), max_passes=1
            )
            found = executor.run_plan(
                scheduler, WatchKeyPlan(keys), chunk_size=8, workers=workers
            )
            assert found == {(0, 1), (2, 3)}
            assert scheduler.passes_used == 1

    def test_sharded_pass_counts_once(self):
        edges = [(i, i + 1) for i in range(100)]
        scheduler = self._scheduler(edges)
        ids = np.array([0, 1], dtype=np.int64)
        executor.run_plan(scheduler, DegreeCountPlan(ids), chunk_size=8, workers=2)
        assert scheduler.passes_used == 1
        # The stream stays sequential: the next pass opens cleanly.
        executor.run_plan(scheduler, DegreeCountPlan(ids), chunk_size=8, workers=2)
        assert scheduler.passes_used == 2


class TestEngineKnobs:
    def test_workers_override_restores(self):
        before = engine.workers()
        with engine.engine_overrides(num_workers=3):
            assert engine.workers() == 3
        assert engine.workers() == before

    def test_sharded_mode_defaults_workers_to_cores(self):
        import os

        with engine.engine_overrides("sharded"):
            assert engine.effective_workers() == (os.cpu_count() or 1)
        with engine.engine_overrides("sharded", num_workers=5):
            assert engine.effective_workers() == 5

    def test_explicit_one_worker_stays_in_process_under_sharded(self):
        # "workers=1 means in-process" is a contract: an explicit 1 must
        # not be escalated to the core count by the sharded default.
        with engine.engine_overrides("sharded", num_workers=1):
            assert engine.effective_workers() == 1

    def test_invalid_workers_rejected(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            engine.set_engine("chunked", num_workers=0)
        with pytest.raises(ParameterError):
            EstimatorConfig(workers=0)
        with pytest.raises(ParameterError):
            EstimatorConfig(engine_mode="turbo")
