"""Seed-for-seed parity between the NumPy pass plans and the per-edge passes.

The kernels (:mod:`repro.core.kernels`) must be *bit-identical* to the
per-edge reference passes of ``tests/reference_passes.py`` for the same
seeds: they pre-draw or replay all randomness in the same order, so
estimates, diagnostics, pass counts, and space accounting cannot drift.
These tests pin that invariant pass by pass (every plan against its fold,
through ``run_plan`` at chunk sizes 1/7/257/larger than the stream and at
1 and 2 workers, on streams with repeated edges, hub vertices whose
offers cross pass 5's flush points, ids past the 32-bit packing, and no
edges at all) and end to end (whole single and parallel
runs on the reference passes, across graph families and chunk
boundaries).  ``tests/test_engine_golden.py`` pins the absolute values.
"""

from __future__ import annotations

import contextlib
import random
import warnings

import numpy as np
import pytest

import reference_passes as ref
from kernel_scans import collect_stream_positions, count_tracked_degrees, scan_watch_keys
from reference_passes import reference_engine
from repro.core import assignment, engine, kernels
from repro.core.driver import EstimatorConfig, TriangleCountEstimator
from repro.core.estimator import run_single_estimate
from repro.core.executor import run_plan, run_plans
from repro.core.kernels import IncidentEdgePlan
from repro.core.parallel import run_parallel_estimates
from repro.core.params import ParameterPlan
from repro.errors import ParameterError
from repro.generators import planted_triangles_graph, rmat_graph, wheel_graph
from repro.graph import count_triangles, degeneracy
from repro.streams import InMemoryEdgeStream, PassScheduler, SpaceMeter
from repro.streams.base import EdgeStream
from repro.streams.transforms import shuffled


def _stream_and_plan(graph, order_seed=11, epsilon=0.25):
    stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(order_seed)))
    kappa = max(1, degeneracy(graph))
    t = float(max(1, count_triangles(graph)))
    plan = ParameterPlan.build(graph.num_vertices, graph.num_edges, kappa, t, epsilon)
    return stream, plan


def _run_both(stream, plan, seed, chunk):
    with reference_engine(), engine.engine_overrides(chunk_size=chunk):
        meter_py = SpaceMeter()
        ref = run_single_estimate(stream, plan, random.Random(seed), meter=meter_py)
    with engine.engine_overrides(chunk_size=chunk):
        meter_ck = SpaceMeter()
        got = run_single_estimate(stream, plan, random.Random(seed), meter=meter_ck)
    return ref, got, meter_py, meter_ck


GRAPHS = {
    "wheel": lambda: wheel_graph(150),
    "rmat": lambda: rmat_graph(9, 6, random.Random(5)),
    "planted": lambda: planted_triangles_graph(200, 80, kappa_clique=6, rng=random.Random(7)),
}


class TestSingleRunnerParity:
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_results_across_families(self, family, seed):
        stream, plan = _stream_and_plan(GRAPHS[family]())
        ref, got, meter_py, meter_ck = _run_both(stream, plan, seed, chunk=257)
        assert got == ref  # every SinglePassStackResult field, estimate included
        assert meter_ck.peak_words == meter_py.peak_words
        assert meter_ck.peak_breakdown() == meter_py.peak_breakdown()

    @pytest.mark.parametrize(
        "chunk", [1, 7, 64, 149, 150, 151, 100_000]  # m=2*150-2=298 for the wheel
    )
    def test_chunk_boundaries(self, chunk):
        stream, plan = _stream_and_plan(wheel_graph(150))
        ref, got, _, _ = _run_both(stream, plan, seed=3, chunk=chunk)
        assert got == ref

    def test_duplicate_edges_stay_bit_identical(self):
        # The model's tape has unrepeated edges, but unvalidated streams
        # (FileEdgeStream, InMemoryEdgeStream(validate=False)) may not;
        # parity must hold regardless, which requires occurrence-counted
        # (not presence-based) closure scans in pass 6.
        graph = wheel_graph(80)
        order = shuffled(graph, random.Random(3))
        tape = order + order[:7]  # seven repeated edges at the end
        stream = InMemoryEdgeStream(tape, validate=False)
        plan = ParameterPlan.build(
            graph.num_vertices, len(tape), 3, float(count_triangles(graph)), 0.25
        )
        ref, got, _, _ = _run_both(stream, plan, seed=5, chunk=37)
        assert got == ref

    def test_forced_chunked_on_iterator_only_stream(self):
        # The generic batching fallback must feed the kernels correctly too.
        graph = wheel_graph(80)
        base_stream, plan = _stream_and_plan(graph)
        edges = list(base_stream)

        class IteratorOnly(EdgeStream):
            def __iter__(self):
                return iter(edges)

            def __len__(self):
                return len(edges)

        with reference_engine():
            ref = run_single_estimate(base_stream, plan, random.Random(9))
        with engine.engine_overrides(chunk_size=33):
            got = run_single_estimate(IteratorOnly(), plan, random.Random(9))
        assert got == ref


class TestParallelRunnerParity:
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_identical_results(self, family):
        stream, plan = _stream_and_plan(GRAPHS[family]())
        with reference_engine():
            ref = run_parallel_estimates(stream, plan, [random.Random(s) for s in range(5)])
        with engine.engine_overrides(chunk_size=193):
            got = run_parallel_estimates(stream, plan, [random.Random(s) for s in range(5)])
        assert got == ref


class TestKernelPrimitives:
    def test_collect_stream_positions_duplicates_and_order(self):
        edges = [(i, i + 1) for i in range(10)]
        stream = InMemoryEdgeStream(edges)
        scheduler = PassScheduler(stream)
        positions = np.array([9, 0, 3, 3, 0], dtype=np.int64)
        got = collect_stream_positions(scheduler, positions, chunk_size=4)
        assert got == [edges[9], edges[0], edges[3], edges[3], edges[0]]
        assert scheduler.passes_used == 1

    def test_collect_stream_positions_abandons_early(self):
        edges = [(i, i + 1) for i in range(100)]
        scheduler = PassScheduler(InMemoryEdgeStream(edges), max_passes=1)
        got = collect_stream_positions(scheduler, np.array([2], dtype=np.int64), 10)
        assert got == [(2, 3)]  # and no PassBudgetExceeded on the next line
        assert scheduler.passes_used == 1

    def test_count_tracked_degrees_empty_and_nonempty(self):
        edges = [(0, 1), (1, 2), (2, 3), (1, 3)]
        scheduler = PassScheduler(InMemoryEdgeStream(edges))
        counts = count_tracked_degrees(scheduler, np.array([1, 3], dtype=np.int64), 2)
        assert counts.tolist() == [3, 2]
        counts = count_tracked_degrees(scheduler, np.array([], dtype=np.int64), 2)
        assert counts.tolist() == []
        assert scheduler.passes_used == 2

    def test_scan_incident_edges_filters_in_order(self):
        edges = [(0, 1), (2, 3), (1, 4), (5, 6), (4, 7)]
        scheduler = PassScheduler(InMemoryEdgeStream(edges))
        plan = IncidentEdgePlan(np.array([4]), 8, lambda *flush: None)
        run_plan(scheduler, plan, chunk_size=2)
        seen, starts, offers = plan.tails()
        assert plan.result().tolist() == [2]
        assert (seen.tolist(), starts.tolist(), offers.tolist()) == ([0], [0, 2], [1, 7])

    def test_scan_watch_keys_subset(self):
        edges = [(0, 1), (2, 3), (1, 4)]
        scheduler = PassScheduler(InMemoryEdgeStream(edges))
        found = scan_watch_keys(scheduler, [(2, 3), (7, 9), (0, 1)], chunk_size=2)
        assert found == {(0, 1), (2, 3)}
        found = scan_watch_keys(scheduler, [], chunk_size=2)
        assert found == set()

    def test_scan_watch_keys_large_ids_fallback(self):
        big = 1 << 40  # overflows the 32-bit packing; per-row fallback kicks in
        edges = [(0, 1), (5, big), (2, 3)]
        scheduler = PassScheduler(InMemoryEdgeStream(edges))
        found = scan_watch_keys(scheduler, [(5, big), (2, 3)], chunk_size=2)
        assert found == {(5, big), (2, 3)}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_watch_keeps_packed_probe_beside_an_overflow_key(self, workers):
        """Packed keys plus ``(1, 2**40)``: the packable keys stay on the
        edge probe (shared with a co-riding edge plan), only rows with a
        wide id take the index, and the counts land in key order."""
        big = 1 << 40
        edges = [(0, 1), (1, big), (2, 3), (0, 1), (5, big), (1, big), (4, 9), (3, big)]
        stream = InMemoryEdgeStream(edges, validate=False)
        keys = kernels.unique_edge_rows(np.array([(0, 1), (2, 3), (7, 8), (1, big), (4, 9)]))[0]
        plan = kernels.WatchKeyPlan(keys)
        assert plan.probe() is not None and len(plan.probe()) == 4
        rider = kernels.WatchKeyPlan(np.array([(2, 3), (4, 9)]))
        run_plans(PassScheduler(stream), [plan, rider], chunk_size=3, workers=workers)
        counts = plan.result()
        assert counts.tolist() == [edges.count(key) for key in map(tuple, keys.tolist())]
        assert rider.result().tolist() == [1, 1]
        found = scan_watch_keys(PassScheduler(stream), keys, chunk_size=2)
        assert set(map(tuple, keys[counts > 0].tolist())) == found

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_pack_canonical_rows_keys(self, dtype):
        """Each row packs to ``u << 32 | v``; an id outside
        ``[0, PACK_LIMIT)`` packs nothing."""
        top = min(kernels.PACK_LIMIT - 1, np.iinfo(dtype).max)
        rows = np.array([[0, 0], [0, top], [1, 2], [top - 1, top], [7, 1]], dtype=dtype)
        packed = kernels.pack_canonical_rows(rows)
        assert packed.dtype == np.uint64
        assert packed.tolist() == [(int(u) << 32) | int(v) for u, v in rows.tolist()]
        assert kernels.pack_canonical_rows(np.empty((0, 2), dtype=dtype)).tolist() == []
        assert kernels.pack_canonical_rows(np.array([[0, -1]], dtype=dtype)) is None
        if np.iinfo(dtype).max >= kernels.PACK_LIMIT:
            limit = np.array([[1, kernels.PACK_LIMIT]], dtype=dtype)
            assert kernels.pack_canonical_rows(limit) is None

    def test_negative_ids_stay_distinct(self):
        """A negative id would wrap to the same packed key as another row's;
        such rows take the row-wise dedupe instead."""
        unique, inverse = kernels.unique_edge_rows(np.array([[3, -1], [4, -1], [0, 5]]))
        assert unique.tolist() == [[0, 5], [3, -1], [4, -1]]
        assert inverse.tolist() == [1, 2, 0]
        assert kernels.pack_canonical_rows(np.array([[3, -1]])) is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_watch_on_a_negative_id_matches_the_reference(self, workers):
        """A watch on ``(3, -1)`` never counts ``(4, -1)``, with or without
        a co-riding packed edge plan."""
        for edges, keys in (
            ([(4, -1)], [(3, -1)]),
            ([(4, -1), (0, 5), (3, -1), (4, -1)], [(0, 5), (3, -1)]),
        ):
            stream = InMemoryEdgeStream(edges, validate=False)
            keys = np.array(keys)
            plan = kernels.WatchKeyPlan(keys)
            rider = kernels.WatchKeyPlan(np.array([(0, 5)]))
            run_plans(PassScheduler(stream), [plan, rider], chunk_size=1, workers=workers)
            fold = ref.WatchFold(keys)
            ref.fold_stream(stream, [fold])
            assert plan.result().tolist() == fold.counts.tolist(), edges
            assert rider.result().tolist() == [edges.count((0, 5))]

    def test_empty_stream_chunk_iteration(self):
        stream = InMemoryEdgeStream([])
        assert list(stream.iter_chunks(16)) == []
        scheduler = PassScheduler(stream)
        assert list(scheduler.new_fused_pass_chunks(16)) == []
        assert scheduler.passes_used == 1


class TestEngineConfig:
    def test_overrides_restore_previous_policy(self):
        before = engine.policy()
        with engine.engine_overrides(chunk_size=123):
            assert engine.policy().chunk_size == 123
        assert engine.policy() == before

    def test_invalid_mode_rejected(self):
        with pytest.raises(ParameterError):
            EstimatorConfig(engine_mode="turbo")

    def test_removed_python_mode_is_rejected_not_mapped(self):
        for reject in (
            lambda: engine.check_mode("python"),
            lambda: EstimatorConfig(engine_mode="python"),
        ):
            with pytest.raises(ParameterError, match="removed"):
                reject()

    def test_removed_python_mode_in_environment_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "python")
        with pytest.warns(UserWarning, match="removed"):
            engine.resolve()
        monkeypatch.setenv("REPRO_ENGINE", "sharded")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine.resolve()

    @pytest.mark.parametrize("mode", ["auto", "chunked", "sharded"])
    def test_remaining_modes_are_synonyms(self, mode):
        graph = wheel_graph(40)
        stream = InMemoryEdgeStream.from_graph(graph)
        config = dict(seed=4, repetitions=3, chunk_size=16)
        got = TriangleCountEstimator(EstimatorConfig(engine_mode=mode, **config))
        ref = TriangleCountEstimator(EstimatorConfig(**config))
        assert got.estimate(stream, kappa=3) == ref.estimate(stream, kappa=3)


# ---------------------------------------------------------------------------
# pass by pass: every plan against its per-edge fold


ORACLE_EDGES = ["planted", "duplicates", "hubs", "big-ids", "empty"]


def _oracle_edges(name):
    graph = planted_triangles_graph(60, 25, kappa_clique=5, rng=random.Random(3))
    edges = shuffled(graph, random.Random(8))
    if name == "planted":
        return edges
    if name == "duplicates":
        return edges + edges[:9] + edges[20:23]
    if name == "hubs":  # offers cross the flush points 32, 64 and 128 mid-pass
        hubs = [(1000, w) for w in range(150)] + [(w, 1001) for w in range(40, 110)]
        hubs += [(1000, 1000), (1000, 3), (1001, 1000)]  # a self-loop, a repeat
        edges = edges + hubs
        random.Random(9).shuffle(edges)
        return edges
    if name == "big-ids":  # every other edge moved past the 32-bit packing
        big = 1 << 33
        return [(u + big, v + big) if i % 2 else (u, v) for i, (u, v) in enumerate(edges)]
    assert name == "empty"
    return []


def _pass_cases(edges, rng):
    """``(label, fold, plan, read_fold, read_plan)`` for every pass."""
    m = len(edges)
    rows = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    vertices = kernels.sorted_unique(rows.reshape(-1))
    absent = np.asarray([(1 << 31) - 1, (1 << 40) + 5], dtype=np.int64)
    ids = kernels.sorted_unique(np.concatenate((rng.choice(vertices, 12) if m else absent, absent)))
    positions = rng.integers(0, m, 40) if m else np.empty(0, dtype=np.int64)
    owner_ids = kernels.sorted_unique(rng.choice(vertices, 8)) if m else absent[:0]
    owner_index = rng.integers(0, len(owner_ids), 30) if m else np.empty(0, dtype=np.int64)
    requests = rng.integers(0, 6, len(owner_index))  # some past the owner's degree
    watched = rows[rng.choice(m, 10)] if m else rows
    # One key past the packing sends a watch to its key-index path.
    keys = kernels.unique_edge_rows(np.concatenate((watched, [[1, 1 << 34], [2, 3]])))[0]
    small = watched[(watched < kernels.PACK_LIMIT).all(axis=1)]
    packed = kernels.unique_edge_rows(np.concatenate((small, [[2, 3]])))[0]
    # Pass 5 tracks the busiest vertices too, so offers cross flush points.
    busiest = np.argsort(np.bincount(np.searchsorted(vertices, rows.reshape(-1))))[-4:]
    tracked = kernels.sorted_unique(np.concatenate((ids[: len(ids) // 2 + 1], vertices[busiest])))
    fold_flushes, plan_flushes = [], []

    def recorder(into):
        return lambda rank, offers, seen: into.append((rank, offers.tolist(), seen))

    def offer_log(counts, tails, flushes):
        return repr([flushes, counts.tolist(), [part.tolist() for part in tails]])

    return [
        ("pass1", ref.PositionFold(positions), kernels.PositionCollectPlan(positions),
         lambda f: f.rows(), lambda p: p.rows()),
        ("pass2", ref.TrackedDegreeFold(ids), kernels.DegreeCountPlan(ids),
         lambda f: f.counts(), lambda p: p.result()),
        ("pass3", ref.NeighborServeFold(owner_ids[owner_index], requests),
         kernels.NeighborPositionPlan(owner_ids, owner_index, requests),
         lambda f: f.apexes(), lambda p: p.result()),
        ("watch/key-index", ref.WatchFold(keys), kernels.WatchKeyPlan(keys),
         lambda f: f.counts, lambda p: p.result()),
        ("pass5", ref.OfferFold(tracked, 5, recorder(fold_flushes)),
         kernels.IncidentEdgePlan(tracked, 5, recorder(plan_flushes)),
         lambda f: offer_log(f.counts(), f.tails(), fold_flushes),
         lambda p: offer_log(p.result(), p.tails(), plan_flushes)),
        ("watch/packed", ref.WatchFold(packed), kernels.WatchKeyPlan(packed),
         lambda f: f.counts, lambda p: p.result()),
    ]


class TestPassOracles:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 7, 257, 10**6])
    @pytest.mark.parametrize("name", ORACLE_EDGES)
    def test_every_plan_matches_its_fold(self, name, chunk, workers):
        edges = _oracle_edges(name)
        stream = InMemoryEdgeStream(edges, validate=False)
        for label, fold, plan, read_fold, read_plan in _pass_cases(edges, np.random.default_rng(1)):
            ref.fold_stream(stream, [fold])
            scheduler = PassScheduler(stream)
            run_plan(scheduler, plan, chunk_size=chunk, workers=workers)
            assert scheduler.passes_used == scheduler.sweeps_used == 1, label
            np.testing.assert_array_equal(read_plan(plan), read_fold(fold), err_msg=label)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 7, 257, 10**6])
    @pytest.mark.parametrize("name", ORACLE_EDGES)
    def test_every_plan_in_one_shared_sweep_matches_its_fold(self, name, chunk, workers):
        """All six pass cases merged into one :func:`run_plans` sweep (the
        way speculative windows and the daemon merge stages) still match
        their folds: sharing a sweep and its probes changes no result."""
        edges = _oracle_edges(name)
        stream = InMemoryEdgeStream(edges, validate=False)
        cases = _pass_cases(edges, np.random.default_rng(2))
        ref.fold_stream(stream, [fold for _, fold, _, _, _ in cases])
        scheduler = PassScheduler(stream)
        run_plans(scheduler, [plan for _, _, plan, _, _ in cases], chunk_size=chunk, workers=workers)
        assert (scheduler.passes_used, scheduler.sweeps_used) == (len(cases), 1)
        for label, fold, plan, read_fold, read_plan in cases:
            np.testing.assert_array_equal(read_plan(plan), read_fold(fold), err_msg=label)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 7, 257, 10**6])
    @pytest.mark.parametrize("name", ORACLE_EDGES)
    def test_closure_hits_stage_matches_the_watch_table(self, name, chunk, workers):
        """Pass 6's array stage against the watch table replayed per edge
        (the stage :func:`reference_engine` runs): same hits, same space
        charge, on rows with repeated values, zero-count entries and
        samples equal to the edge's own far endpoint.  Each row's
        heaviest value closes on a leading tape edge, which the
        ``duplicates`` stream repeats; on ``big-ids`` the keys overflow
        the packing and the stage's watch counts them by key index."""
        edges = _oracle_edges(name)
        stream = InMemoryEdgeStream(edges, validate=False)
        rng = np.random.default_rng(4)
        vertices = np.unique(np.asarray(edges, dtype=np.int64)) if edges else np.arange(5)
        others, values = [], []
        for i in range(12):
            other, closing = edges[i] if edges else (i, i + 1)
            row = [closing, *rng.choice(vertices, 2).tolist(), other]
            values.append(np.asarray(row, dtype=np.int64))
            others.append(other)
        counts = [np.array([3, 0, 1, 2], dtype=np.int64)] * len(values)
        others = np.asarray(others, dtype=np.int64)

        def hits_and_space(stage_context):
            meter = SpaceMeter()
            with stage_context():
                stage = assignment.stage_closure_hits(values, counts, others, meter)
            scheduler = PassScheduler(stream)
            run_plans(scheduler, [stage.plan], chunk_size=chunk, workers=workers)
            assert scheduler.passes_used == scheduler.sweeps_used == 1
            return stage.finish().tolist(), meter.peak_breakdown()

        expected = hits_and_space(reference_engine)
        assert hits_and_space(contextlib.nullcontext) == expected
        if name != "empty":
            assert any(expected[0])


#: The oracle streams a narrow tape can hold (every id in ``[0, 2^31)``).
NARROW_EDGES = [name for name in ORACLE_EDGES if name != "big-ids"]


def _narrow_tape(edges, directory):
    """``edges`` on a version-2 tape, whose chunks are int32 rows."""
    from repro.streams import MmapEdgeStream, write_tape

    path = directory / "narrow.etape"
    write_tape(InMemoryEdgeStream(edges, validate=False), path)
    stream = MmapEdgeStream(path)
    assert stream.header.id_dtype == np.int32
    return stream


def _assert_partials_equal(narrow, wide, label):
    """Equal kernel partials, array by array (values; dtypes may differ
    only where a block's own rows are handed on, as in pass 1)."""
    if isinstance(wide, tuple):
        assert isinstance(narrow, tuple) and len(narrow) == len(wide), label
        for a, b in zip(narrow, wide):
            _assert_partials_equal(a, b, label)
    elif isinstance(wide, np.ndarray):
        np.testing.assert_array_equal(narrow, wide, err_msg=label)
    else:
        assert narrow == wide, label


class TestNarrowBlocks:
    """int32 blocks (a narrow tape's rows) give every probe, kernel partial
    and plan result what the same rows as int64 give: no kernel widens a
    block, and hit-sized outputs come back as int64."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 257, 10**6])
    @pytest.mark.parametrize("name", NARROW_EDGES)
    def test_every_plan_matches_its_fold(self, name, chunk, workers, tmp_path):
        edges = _oracle_edges(name)
        stream = _narrow_tape(edges, tmp_path)
        wide = InMemoryEdgeStream(edges, validate=False)
        for label, fold, plan, read_fold, read_plan in _pass_cases(edges, np.random.default_rng(1)):
            ref.fold_stream(wide, [fold])
            run_plan(PassScheduler(stream), plan, chunk_size=chunk, workers=workers)
            np.testing.assert_array_equal(read_plan(plan), read_fold(fold), err_msg=label)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 257, 10**6])
    @pytest.mark.parametrize("name", NARROW_EDGES)
    def test_every_plan_in_one_shared_sweep_matches_its_fold(self, name, chunk, workers, tmp_path):
        edges = _oracle_edges(name)
        stream = _narrow_tape(edges, tmp_path)
        cases = _pass_cases(edges, np.random.default_rng(2))
        ref.fold_stream(InMemoryEdgeStream(edges, validate=False), [c[1] for c in cases])
        run_plans(PassScheduler(stream), [c[2] for c in cases], chunk_size=chunk, workers=workers)
        for label, fold, plan, read_fold, read_plan in cases:
            np.testing.assert_array_equal(read_plan(plan), read_fold(fold), err_msg=label)

    @pytest.mark.parametrize("name", ["planted", "duplicates", "hubs"])
    def test_kernel_partials_equal_across_widths(self, name):
        rows = np.asarray(_oracle_edges(name), dtype=np.int64)
        narrow = rows.astype(np.int32)
        for label, _, plan, _, _ in _pass_cases(_oracle_edges(name), np.random.default_rng(3)):
            spec = plan.spec()
            for start, stop in ((0, len(rows)), (5, 77)):
                wide_partial = plan.kernel(spec, start, rows[start:stop])
                narrow_partial = plan.kernel(spec, start, narrow[start:stop])
                _assert_partials_equal(narrow_partial, wide_partial, label)
                if label in ("pass3", "pass5") and wide_partial is not None:
                    assert narrow_partial[-1].dtype == np.int64, label  # widened hits

    @pytest.mark.parametrize("slots", [None, 1 << 16], ids=["own-table", "union-table"])
    def test_keyset_finds_int32_values_like_int64(self, slots):
        rng = np.random.default_rng(5)
        keys = kernels.sorted_unique(rng.integers(0, 1 << 31, 6000))
        values = np.concatenate((rng.choice(keys, 3000), rng.integers(0, 1 << 31, 20000)))
        keyset = kernels.KeySet(keys, slots)
        assert (keyset.table == kernels._COLLIDED).any()  # the exact search runs too
        positions, ranks = keyset.find(values)
        assert len(positions) >= 3000
        strided = np.repeat(values.astype(np.int32), 2)[::2]  # not contiguous
        for narrow in (values.astype(np.int32), strided):
            found = keyset.find(narrow)
            np.testing.assert_array_equal(found[0], positions)
            np.testing.assert_array_equal(found[1], ranks)

    def test_packed_block_packs_int32_rows_without_widening(self):
        rng = np.random.default_rng(6)
        rows = np.sort(rng.integers(0, 1 << 31, (5000, 2)), axis=1)
        expected = kernels.pack_canonical_rows(rows)
        np.testing.assert_array_equal(kernels._packed_block(rows.astype(np.int32)), expected)
        strided = rows.astype(np.int32)[::3]  # not contiguous
        np.testing.assert_array_equal(kernels._packed_block(strided), expected[::3])
        assert kernels._packed_block(rows[:0].astype(np.int32)).dtype == np.uint64
