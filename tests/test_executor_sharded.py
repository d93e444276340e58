"""Threaded pass-executor parity: bit-identical across worker counts.

The executor (:mod:`repro.core.executor`) must produce exactly the
results of the serial engine - and therefore of the per-edge Python
reference passes (``tests/reference_passes.py``) - for the same seeds,
whatever the thread count, batch size, or chunk boundaries.  These tests pin that invariant end to end
(single runner, parallel runner, driver, file and tape streams) and at
the plan level, including the cross-instance unique-key dedup fan-out of
passes 4 and 6, plus the sweep loop's own contracts: several plans per sweep, FIFO absorption,
early stop, cleanup on a failing kernel, and no child processes.

The thread pools are process-wide (reused across tests); the task-batch
floor is shrunk so even tiny test streams split into many tasks.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time

import numpy as np
import pytest

from reference_passes import reference_engine
from repro.core import engine, executor
from repro.core.estimator import run_single_estimate, stage_closure
from repro.core.kernels import (
    DegreeCountPlan,
    NeighborPositionPlan,
    PositionCollectPlan,
    WatchKeyPlan,
)
from repro.core.parallel import run_parallel_estimates
from repro.core.params import ParameterPlan
from repro.core.stages import sweep_stages
from repro.core.driver import EstimatorConfig, TriangleCountEstimator
from repro.errors import PassBudgetExceeded
from repro.generators import planted_triangles_graph, rmat_graph, wheel_graph
from repro.graph import count_triangles, degeneracy
from repro.streams import InMemoryEdgeStream, MmapEdgeStream, PassScheduler, SpaceMeter, write_tape
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
        with reference_engine():
            ref_py = run_single_estimate(stream, plan, random.Random(1))
        with engine.engine_overrides(chunk_size=67, workers=1):
            meter_serial = SpaceMeter()
            ref = run_single_estimate(stream, plan, random.Random(1), meter=meter_serial)
        with engine.engine_overrides(chunk_size=67, workers=workers):
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
        with engine.engine_overrides(chunk_size=chunk, workers=1):
            ref = run_single_estimate(stream, plan, random.Random(3))
        with engine.engine_overrides(chunk_size=chunk, workers=2):
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
        with reference_engine():
            ref = run_single_estimate(stream, plan, random.Random(5))
        with engine.engine_overrides(chunk_size=37, workers=4):
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
        with reference_engine():
            ref = run_single_estimate(stream, plan, random.Random(4))
        with engine.engine_overrides(chunk_size=31, workers=2):
            got = run_single_estimate(stream, plan, random.Random(4))
        assert got == ref


class TestParallelRunnerSharded:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_identical_results(self, workers):
        stream, plan = _stream_and_plan(GRAPHS["planted"]())
        rngs = lambda: [random.Random(s) for s in range(5)]  # noqa: E731
        with reference_engine():
            ref = run_parallel_estimates(stream, plan, rngs())
        with engine.engine_overrides(chunk_size=53, workers=workers):
            got = run_parallel_estimates(stream, plan, rngs())
        assert got == ref

    def test_cross_instance_watch_dedup_fans_out(self):
        # Two instances watch the *same* missing edge: the shared pass-4
        # scan carries one unique key and the hit must fan out to both
        # (instance, draw) watchers identically under sharding.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4)]
        stream = InMemoryEdgeStream(edges)
        draws = [np.array([[0, 1]]), np.array([[0, 1]])]  # both drew the same edge
        owners = [np.array([0]), np.array([0])]
        apexes = [np.array([2]), np.array([2])]  # wedge {0-1, 0-2}: missing (1, 2)
        for workers in (1, 2):
            scheduler = PassScheduler(stream)
            stage = stage_closure(draws, owners, apexes, SpaceMeter())
            with engine.engine_overrides(chunk_size=2, workers=workers):
                sweep_stages(scheduler, [stage])
            for triangles, closed in stage.finish():  # the hit fans out to both
                assert triangles.tolist() == [[0, 1, 2]]
                assert closed.tolist() == [True]

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

    def test_early_stop_keeps_budget(self):
        # Every request is served in the first chunk: the serial path
        # abandons early; sharded must serve the same neighbors and the
        # pass budget must survive either way.
        edges = [(0, 1), (2, 3)] + [(10 + i, 11 + i) for i in range(200)]
        owners = np.array([0, 3], dtype=np.int64)
        requests = np.array([1, 0, 1], dtype=np.int64)
        for workers in (1, 2):
            scheduler = PassScheduler(
                InMemoryEdgeStream(edges, validate=False), max_passes=1
            )
            plan = NeighborPositionPlan(owners, requests, np.zeros(3, dtype=np.int64))
            found = executor.run_plan(scheduler, plan, chunk_size=8, workers=workers)
            assert found.tolist() == [2, 1, 2]
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


class TestRunPlansMerges:
    """Several independent plans through one sweep (a fused pass group)."""

    def _scheduler(self, edges, **kwargs):
        return PassScheduler(InMemoryEdgeStream(edges, validate=False), **kwargs)

    def _edges(self):
        rng = random.Random(0)
        return [(rng.randrange(60), 60 + rng.randrange(60)) for _ in range(400)]

    @pytest.mark.parametrize("workers", [1, *WORKER_COUNTS])
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

    @pytest.mark.parametrize("workers", [1, *WORKER_COUNTS])
    def test_early_finisher_does_not_stop_the_sweep(self, workers):
        # The neighbor plan is served, and finishes, on the first chunk;
        # the degree plan must still see the entire tape.
        edges = [(0, 1)] + [(10 + i, 11 + i) for i in range(300)]
        ids = np.array([260, 309], dtype=np.int64)
        zero = np.zeros(1, dtype=np.int64)
        results = executor.run_plans(
            self._scheduler(edges),
            [NeighborPositionPlan(zero, zero, zero), DegreeCountPlan(ids)],
            chunk_size=8,
            workers=workers,
        )
        assert results[0].tolist() == [1]
        # 260 appears in (259, 260) and (260, 261); 309 in (308, 309) and
        # (309, 310) - the last edge of the tape, proving the sweep ran on.
        assert results[1].tolist() == [2, 2]

    def test_all_plans_abandoning_ends_the_sweep(self):
        edges = [(i, i + 1) for i in range(1000)]
        scheduler = self._scheduler(edges, max_passes=2)
        zero = np.zeros(1, dtype=np.int64)
        plans = [
            PositionCollectPlan(np.array([0, 3], dtype=np.int64)),
            NeighborPositionPlan(np.array([2], dtype=np.int64), zero, zero),
        ]
        results = executor.run_plans(scheduler, plans, chunk_size=8, workers=1)
        assert results[0] == [(0, 1), (3, 4)]
        assert results[1].tolist() == [1]
        assert scheduler.passes_used == 2
        assert scheduler.sweeps_used == 1

    def test_scheduler_counts_fused_groups(self):
        stream = InMemoryEdgeStream([(i, i + 1) for i in range(100)], validate=False)
        scheduler = PassScheduler(stream, max_passes=3)
        plans = [
            DegreeCountPlan(np.array([0, 1], dtype=np.int64)),
            WatchKeyPlan(np.array([[0, 1]], dtype=np.int64)),
            PositionCollectPlan(np.array([5], dtype=np.int64)),
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


class TestEngineKnobs:
    def test_workers_override_restores(self):
        before = engine.policy()
        with engine.engine_overrides(workers=3):
            assert engine.policy().workers == 3
        assert engine.policy() == before

    def test_workers_default_to_cores(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert engine.policy().workers == (os.cpu_count() or 1)
        with engine.engine_overrides(workers=5):
            assert engine.policy().workers == 5

    def test_explicit_one_worker_stays_in_process(self):
        # "workers=1 means in-process" is a contract: an explicit 1 must
        # not be escalated to the core count by the default.
        with engine.engine_overrides(workers=1):
            assert engine.policy().workers == 1

    def test_invalid_workers_rejected(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            engine.resolve(workers=0)
        with pytest.raises(ParameterError):
            EstimatorConfig(workers=0)
        with pytest.raises(ParameterError):
            EstimatorConfig(engine_mode="turbo")


# ---------------------------------------------------------------------------
# the sweep loop itself


def _edge_rows(m=3000, seed=4):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(400), rng.randrange(400)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    order = sorted(edges)
    rng.shuffle(order)
    return order


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    """The same edge sequence as an in-memory, a text, and a tape stream."""
    edges = _edge_rows()
    root = tmp_path_factory.mktemp("sweep")
    text = root / "edges.txt"
    text.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    tape = root / "edges.etape"
    write_tape(text, tape)
    return edges, {
        "memory": lambda: InMemoryEdgeStream(edges, validate=False),
        "text": lambda: FileEdgeStream(text),
        "tape": lambda: MmapEdgeStream(tape),
    }


def _plans(edges):
    """One plan of every early-stop shape plus two full-tape plans."""
    positions = np.array([5, 17, 900, 17, 1200], dtype=np.int64)  # stop_row 1201
    # First incidences of the endpoints of edges 3 and 40: served by row
    # 40, so the plan reports finished() mid-sweep.
    early_owners = np.array(sorted({*edges[3], *edges[40]}), dtype=np.int64)
    early = np.arange(len(early_owners), dtype=np.int64)
    late_keys = [edges[-1], (398, 399) if (398, 399) not in set(edges) else edges[0]]
    owners = np.array(sorted({edges[0][0], edges[7][1]}), dtype=np.int64)
    return [
        PositionCollectPlan(positions),
        NeighborPositionPlan(early_owners, early, np.zeros_like(early)),
        WatchKeyPlan(np.array(sorted(set(late_keys)), dtype=np.int64)),
        DegreeCountPlan(np.arange(0, 400, 7, dtype=np.int64)),
        NeighborPositionPlan(owners, np.array([0, 1, 1], dtype=np.int64),
                             np.array([0, 3, 11], dtype=np.int64)),
    ]


def _first_neighbor(edges, owner):
    return next(v if u == owner else u for u, v in edges if owner in (u, v))


def _normalize(results):
    return [r.tolist() if isinstance(r, np.ndarray) else r for r in results]


@pytest.mark.parametrize("kind", ["memory", "text", "tape"])
def test_run_plans_identical_at_every_worker_count(streams, kind):
    edges, make = streams
    reference = None
    for workers in (1, 2, 4):
        scheduler = PassScheduler(make[kind]())
        got = _normalize(
            executor.run_plans(scheduler, _plans(edges), chunk_size=37, workers=workers)
        )
        assert scheduler.passes_used == 5 and scheduler.sweeps_used == 1
        if reference is None:
            reference = got
        assert got == reference, (kind, workers)
    # The early-abandon plans really did stop early, and are right.
    assert reference[0] == [edges[p] for p in (5, 17, 900, 17, 1200)]
    early_owners = sorted({*edges[3], *edges[40]})
    assert reference[1] == [_first_neighbor(edges, owner) for owner in early_owners]
    # Each early-abandon plan alone, too: the sweep stops reading early.
    for plan_index in (0, 1):
        for workers in (1, 2, 4):
            alone = executor.run_plan(
                PassScheduler(make[kind]()),
                _plans(edges)[plan_index],
                chunk_size=37,
                workers=workers,
            )
            assert _normalize([alone]) == [reference[plan_index]], (kind, plan_index, workers)


def test_more_threads_than_cores_under_fast_switching(streams):
    """Stress: 8 threads, a 10 µs switch interval, every plan shape at
    once; any lost or reordered absorb would change a result."""
    import sys

    edges, make = streams
    serial = _normalize(
        executor.run_plans(PassScheduler(make["tape"]()), _plans(edges), chunk_size=19, workers=1)
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            got = executor.run_plans(
                PassScheduler(make["tape"]()), _plans(edges), chunk_size=19, workers=8
            )
            assert _normalize(got) == serial
    finally:
        sys.setswitchinterval(interval)


class _OrderPlan(executor.PassPlan):
    """Records the start row of every absorbed partial."""

    name = "test/order"

    @staticmethod
    def kernel(spec, start_row, rows):
        if start_row == 0:
            time.sleep(0.3)  # task 0 finishes last
        return start_row

    def __init__(self):
        self.seen = []

    def spec(self):
        return None

    def absorb(self, partial):
        self.seen.append(partial)

    def result(self):
        return self.seen


class _SlowChunks(InMemoryEdgeStream):
    """Hands out chunks slowly, so later tasks finish before task 0."""

    def iter_chunks(self, chunk_size):
        for block in super().iter_chunks(chunk_size):
            time.sleep(0.02)
            yield block


def test_absorb_stays_fifo_when_the_first_task_is_slowest(monkeypatch):
    edges = _edge_rows(400)
    starts = list(range(0, 400, 32))
    order = executor.run_plan(
        PassScheduler(_SlowChunks(edges, validate=False)),
        _OrderPlan(),
        chunk_size=32,
        workers=4,
    )
    assert order == starts
    # An order-sensitive real plan, its first task delayed the same way.
    real = NeighborPositionPlan.kernel

    def slow_first(spec, start_row, rows):
        if start_row == 0:
            time.sleep(0.3)
        return real(spec, start_row, rows)

    def occurrences(workers):
        plan = NeighborPositionPlan(
            np.array([edges[0][0]], dtype=np.int64),
            np.zeros(6, dtype=np.int64),
            np.arange(6, dtype=np.int64),
        )
        scheduler = PassScheduler(_SlowChunks(edges, validate=False))
        return executor.run_plan(scheduler, plan, chunk_size=32, workers=workers).tolist()

    serial = occurrences(1)
    monkeypatch.setattr(NeighborPositionPlan, "kernel", staticmethod(slow_first))
    assert occurrences(4) == serial


class _FailingPlan(executor.PassPlan):
    """Slow kernels that count themselves in and out; one block raises."""

    name = "test/failing"
    lock = threading.Lock()
    running = 0
    entered = 0

    @staticmethod
    def kernel(spec, start_row, rows):
        cls = _FailingPlan
        with cls.lock:
            cls.running += 1
            cls.entered += 1
        try:
            time.sleep(0.02)
            if start_row == spec:
                raise RuntimeError("kernel blew up")
            return None
        finally:
            with cls.lock:
                cls.running -= 1

    def __init__(self, fail_at):
        self._fail_at = fail_at

    def spec(self):
        return self._fail_at

    def absorb(self, partial):
        pass

    def result(self):
        return None


def test_raising_kernel_propagates_and_leaves_nothing_running():
    edges = _edge_rows(2000)
    scheduler = PassScheduler(InMemoryEdgeStream(edges, validate=False))
    with pytest.raises(RuntimeError, match="kernel blew up"):
        executor.run_plan(scheduler, _FailingPlan(fail_at=64), chunk_size=32, workers=2)
    assert _FailingPlan.entered >= 2
    assert _FailingPlan.running == 0  # every started kernel finished first
    # The pass closed: the scheduler opens its next sweep normally.
    counts = executor.run_plan(
        scheduler, DegreeCountPlan(np.arange(10, dtype=np.int64)), chunk_size=32, workers=2
    )
    assert scheduler.passes_used == 2
    assert counts.tolist() == executor.run_plan(
        PassScheduler(InMemoryEdgeStream(edges, validate=False)),
        DegreeCountPlan(np.arange(10, dtype=np.int64)),
        workers=1,
    ).tolist()


def _sweep_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-sweep")]


def test_shutdown_pools_then_run_plans_recreates_the_pool():
    edges = _edge_rows(500)
    ids = np.arange(50, dtype=np.int64)

    def degrees(workers):
        scheduler = PassScheduler(InMemoryEdgeStream(edges, validate=False))
        return executor.run_plan(scheduler, DegreeCountPlan(ids), chunk_size=16, workers=workers)

    expected = degrees(1).tolist()
    assert degrees(2).tolist() == expected
    executor.shutdown_pools()
    executor.shutdown_pools()  # idempotent
    assert not _sweep_threads()
    assert degrees(2).tolist() == expected
    assert _sweep_threads()


def test_threaded_estimate_starts_no_child_process():
    graph = wheel_graph(150)
    stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(0)))
    result = TriangleCountEstimator(
        EstimatorConfig(engine_mode="sharded", workers=2, chunk_size=41, seed=3, repetitions=3)
    ).estimate(stream, kappa=3)
    assert result.estimate > 0
    assert multiprocessing.active_children() == []
