"""Fused sweep engine parity: bit-identical estimates, strictly fewer sweeps.

The fused executor (:func:`repro.core.executor.run_plans`) drives a round's
independent pass plans through one shared tape sweep, and the estimator
fuses pass 4 (closure watch) with pass 5 (assignment incident collection).
These tests pin the two contracts the engine is built on:

* **parity** - for the same seeds, estimates (and every sampling-derived
  diagnostic) are bit-identical across ``fuse`` on/off, every engine, and
  workers in {1, 2, 4};
* **fewer sweeps** - fused runs consume strictly fewer physical tape
  sweeps than unfused runs whenever a round finds wedges, while logical
  pass accounting (the paper's budget) is unchanged.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from reference_passes import reference_engine
from repro.core import engine, executor
from repro.core.estimator import run_single_estimate
from repro.core.kernels import (
    DegreeCountPlan,
    IncidentCollectPlan,
    PackedKeyCountPlan,
    PositionCollectPlan,
    WatchKeyPlan,
)
from repro.core.parallel import run_parallel_estimates
from repro.core.params import ParameterPlan
from repro.core.driver import EstimatorConfig, TriangleCountEstimator
from repro.errors import PassBudgetExceeded
from repro.generators import planted_triangles_graph, wheel_graph
from repro.graph import count_triangles, degeneracy
from repro.streams import InMemoryEdgeStream, PassScheduler
from repro.streams.file import FileEdgeStream
from repro.streams.transforms import shuffled

WORKER_COUNTS = [1, 2, 4]


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


def _sampling_fields(result):
    """Every result field derived from the sampling process (not accounting).

    ``passes_used`` / ``sweeps_used`` / ``space_words_peak`` legitimately
    differ between fused and unfused execution (fusing trades speculative
    buffer space for sweeps); everything statistical must not.
    """
    return (
        result.estimate,
        result.r,
        result.ell,
        result.d_r,
        result.wedges_closed,
        result.assigned_hits,
        result.distinct_candidate_triangles,
    )


class TestFusedParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_single_runner_bit_identical(self, workers):
        stream, plan = _stream_and_plan(wheel_graph(120))
        with engine.engine_overrides(chunk_size=67, workers=workers, fuse=False):
            unfused = run_single_estimate(stream, plan, random.Random(1))
        with engine.engine_overrides(chunk_size=67, workers=workers, fuse=True):
            fused = run_single_estimate(stream, plan, random.Random(1))
        assert _sampling_fields(fused) == _sampling_fields(unfused)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_parallel_runner_bit_identical(self, workers):
        graph = planted_triangles_graph(150, 60, kappa_clique=6, rng=random.Random(7))
        stream, plan = _stream_and_plan(graph)
        rngs = lambda: [random.Random(s) for s in range(5)]  # noqa: E731
        with engine.engine_overrides(chunk_size=53, workers=workers, fuse=False):
            unfused = run_parallel_estimates(stream, plan, rngs())
        with engine.engine_overrides(chunk_size=53, workers=workers, fuse=True):
            fused = run_parallel_estimates(stream, plan, rngs())
        assert [_sampling_fields(r) for r in fused] == [
            _sampling_fields(r) for r in unfused
        ]

    def test_python_engine_fused_matches_chunked_fused(self):
        # The per-edge reference passes, fused, against the NumPy plans.
        stream, plan = _stream_and_plan(wheel_graph(100))
        with reference_engine(), engine.engine_overrides(fuse=True):
            py = run_single_estimate(stream, plan, random.Random(3))
        with engine.engine_overrides(chunk_size=41, workers=1, fuse=True):
            chunked = run_single_estimate(stream, plan, random.Random(3))
        # Same engine semantics end to end: full dataclass equality,
        # including the pass/sweep accounting.
        assert py == chunked

    def test_driver_fuse_config_end_to_end(self):
        graph = wheel_graph(150)
        t = count_triangles(graph)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(0)))
        base = dict(seed=7, repetitions=3, t_hint=float(t), engine_mode="chunked")
        unfused = TriangleCountEstimator(
            EstimatorConfig(fuse=False, **base)
        ).estimate(stream, kappa=3)
        fused = TriangleCountEstimator(
            EstimatorConfig(fuse=True, **base)
        ).estimate(stream, kappa=3)
        assert fused.estimate == unfused.estimate
        assert [r.median_estimate for r in fused.rounds] == [
            r.median_estimate for r in unfused.rounds
        ]
        assert fused.passes_total == unfused.passes_total
        assert fused.sweeps_total < unfused.sweeps_total

    def test_file_stream_fused_sharded(self, tmp_path):
        graph = wheel_graph(90)
        order = shuffled(graph, random.Random(2))
        path = tmp_path / "edges.txt"
        path.write_text(
            "\n".join(f"{u} {v}" for u, v in order) + "\n", encoding="utf-8"
        )
        plan = ParameterPlan.build(
            graph.num_vertices, graph.num_edges, 3, float(count_triangles(graph)), 0.25
        )
        with engine.engine_overrides(chunk_size=31, workers=1, fuse=False):
            ref = run_single_estimate(FileEdgeStream(path), plan, random.Random(4))
        with engine.engine_overrides(chunk_size=31, workers=2, fuse=True):
            fused = run_single_estimate(FileEdgeStream(path), plan, random.Random(4))
        assert _sampling_fields(fused) == _sampling_fields(ref)


class TestSweepAccounting:
    def test_fused_run_uses_strictly_fewer_sweeps(self):
        # The wheel is triangle-rich: pass 4 finds wedges, so the fused
        # pass-4/5 group saves exactly one sweep per run.
        stream, plan = _stream_and_plan(wheel_graph(120))
        with engine.engine_overrides(chunk_size=67, workers=1, fuse=False):
            unfused = run_single_estimate(stream, plan, random.Random(1))
        with engine.engine_overrides(chunk_size=67, workers=1, fuse=True):
            fused = run_single_estimate(stream, plan, random.Random(1))
        assert unfused.sweeps_used == unfused.passes_used
        assert fused.passes_used == unfused.passes_used
        assert fused.sweeps_used < unfused.sweeps_used

    def test_candidate_free_round_never_costs_extra_sweeps(self):
        # A cycle has wedges but no triangle ever closes: unfused skips
        # passes 5-6 (4 passes, 4 sweeps) while the fused group charges
        # the speculative pass 5 - the sweep count must still tie.
        from repro.generators import cycle_graph

        graph = cycle_graph(40)
        stream = InMemoryEdgeStream.from_graph(graph)
        plan = ParameterPlan.build(40, 40, 2, 10.0, 0.3)
        with engine.engine_overrides(chunk_size=16, workers=1, fuse=False):
            unfused = run_single_estimate(stream, plan, random.Random(1))
        with engine.engine_overrides(chunk_size=16, workers=1, fuse=True):
            fused = run_single_estimate(stream, plan, random.Random(1))
        assert fused.estimate == unfused.estimate == 0.0
        assert unfused.passes_used == unfused.sweeps_used == 4
        assert fused.sweeps_used == 4  # no extra traversal, ever
        assert fused.passes_used <= 5  # at most the speculative pass 5

    def test_no_wedges_falls_back_to_plain_pass4(self):
        # No apex sampled at all: nothing to speculate on, so the fused
        # path must not charge the pass-5 logical pass either.
        from repro.core.estimator import NO_APEX, stage_closure
        from repro.core.stages import execute_stage
        from repro.streams import SpaceMeter

        stream = InMemoryEdgeStream([(0, 1), (2, 3)], validate=False)
        scheduler = PassScheduler(stream, max_passes=6)
        with engine.engine_overrides(chunk_size=2, workers=1, fuse=True):
            closures, incident = execute_stage(
                scheduler,
                stage_closure(
                    [np.array([[0, 1]])],
                    [np.array([0])],
                    [np.array([NO_APEX])],
                    SpaceMeter(),
                    fuse=True,
                ),
            )
        [(_, closed)] = closures
        assert closed.tolist() == [False]
        assert incident is None
        assert scheduler.passes_used == 1
        assert scheduler.sweeps_used == 1

    def test_scheduler_counts_fused_groups(self):
        stream = InMemoryEdgeStream([(i, i + 1) for i in range(100)], validate=False)
        scheduler = PassScheduler(stream, max_passes=3)
        plans = [
            DegreeCountPlan(np.array([0, 1], dtype=np.int64)),
            WatchKeyPlan([(0, 1)]),
            PackedKeyCountPlan(np.array([1], dtype=np.uint64)),
        ]
        executor.run_plans(scheduler, plans, chunk_size=8, workers=1)
        assert scheduler.passes_used == 3
        assert scheduler.sweeps_used == 1

    def test_fused_group_respects_pass_budget(self):
        stream = InMemoryEdgeStream([(0, 1), (1, 2)], validate=False)
        scheduler = PassScheduler(stream, max_passes=1)
        plans = [
            DegreeCountPlan(np.array([0], dtype=np.int64)),
            DegreeCountPlan(np.array([1], dtype=np.int64)),
        ]
        with pytest.raises(PassBudgetExceeded):
            executor.run_plans(scheduler, plans, chunk_size=8, workers=1)


class TestRunPlansMerges:
    def _scheduler(self, edges, **kwargs):
        return PassScheduler(InMemoryEdgeStream(edges, validate=False), **kwargs)

    def _edges(self):
        rng = random.Random(0)
        return [(rng.randrange(60), 60 + rng.randrange(60)) for _ in range(400)]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_matches_per_plan_execution(self, workers):
        edges = self._edges()
        ids = np.arange(0, 120, 3, dtype=np.int64)
        positions = np.array([0, 31, 32, 399, 200, 200], dtype=np.int64)

        def plans():
            return [DegreeCountPlan(ids), PositionCollectPlan(positions)]

        per_plan = [
            executor.run_plan(self._scheduler(edges), plan, chunk_size=16, workers=1)
            for plan in plans()
        ]
        fused = executor.run_plans(
            self._scheduler(edges), plans(), chunk_size=16, workers=workers
        )
        assert fused[0].tolist() == per_plan[0].tolist()
        assert fused[1] == per_plan[1]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_early_finisher_does_not_stop_the_sweep(self, workers):
        # The watch plan finishes on the first chunk; the degree plan must
        # still see the entire tape.
        edges = [(0, 1)] + [(10 + i, 11 + i) for i in range(300)]
        ids = np.array([260, 309], dtype=np.int64)
        results = executor.run_plans(
            self._scheduler(edges),
            [WatchKeyPlan([(0, 1)]), DegreeCountPlan(ids)],
            chunk_size=8,
            workers=workers,
        )
        assert results[0] == {(0, 1)}
        # 260 appears in (259, 260) and (260, 261); 309 in (308, 309) and
        # (309, 310) - the last edge of the tape, proving the sweep ran on.
        assert results[1].tolist() == [2, 2]

    def test_all_plans_abandoning_ends_the_sweep(self):
        edges = [(i, i + 1) for i in range(1000)]
        scheduler = self._scheduler(edges, max_passes=2)
        plans = [
            PositionCollectPlan(np.array([0, 3], dtype=np.int64)),
            WatchKeyPlan([(1, 2)]),
        ]
        results = executor.run_plans(scheduler, plans, chunk_size=8, workers=1)
        assert results[0] == [(0, 1), (3, 4)]
        assert results[1] == {(1, 2)}
        assert scheduler.passes_used == 2
        assert scheduler.sweeps_used == 1

    def test_incident_collect_buffers_in_stream_order(self):
        edges = [(5, 10), (1, 2), (3, 5), (2, 7), (5, 6)]
        for workers in (1, 2):
            blocks = executor.run_plan(
                self._scheduler(edges),
                IncidentCollectPlan([5]),
                chunk_size=2,
                workers=workers,
            )
            flat = [tuple(row) for block in blocks for row in block.tolist()]
            assert flat == [(5, 10), (3, 5), (5, 6)]
