"""Seed-for-seed parity between the chunked NumPy engine and pure Python.

The chunked kernels (:mod:`repro.core.kernels`) must be *bit-identical* to
the reference Python passes for the same seeds: they pre-draw or replay all
randomness in the same order, so estimates, diagnostics, pass counts, and
space accounting cannot drift.  These tests pin that invariant across graph
families, stream orders, both runner shapes (single and parallel), and the
chunk-boundary edge cases (chunk larger than the stream, stream length not
a multiple of the chunk size, chunk of one, empty stream).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import engine
from repro.core.estimator import run_single_estimate
from repro.core.executor import run_plan
from repro.core.kernels import (
    IncidentEdgePlan,
    collect_stream_positions,
    count_tracked_degrees,
    scan_watch_keys,
)
from repro.core.parallel import run_parallel_estimates
from repro.core.params import ParameterPlan
from repro.generators import planted_triangles_graph, rmat_graph, wheel_graph
from repro.graph import count_triangles, degeneracy
from repro.streams import InMemoryEdgeStream, PassScheduler, SpaceMeter
from repro.streams.transforms import shuffled


def _stream_and_plan(graph, order_seed=11, epsilon=0.25):
    stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(order_seed)))
    kappa = max(1, degeneracy(graph))
    t = float(max(1, count_triangles(graph)))
    plan = ParameterPlan.build(graph.num_vertices, graph.num_edges, kappa, t, epsilon)
    return stream, plan


def _run_both(stream, plan, seed, chunk):
    with engine.engine_overrides("python"):
        meter_py = SpaceMeter()
        ref = run_single_estimate(stream, plan, random.Random(seed), meter=meter_py)
    with engine.engine_overrides("chunked", chunk):
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

        class IteratorOnly(InMemoryEdgeStream.__bases__[0]):  # EdgeStream
            supports_native_chunks = False

            def __iter__(self):
                return iter(edges)

            def __len__(self):
                return len(edges)

        with engine.engine_overrides("python"):
            ref = run_single_estimate(base_stream, plan, random.Random(9))
        with engine.engine_overrides("chunked", 33):
            got = run_single_estimate(IteratorOnly(), plan, random.Random(9))
        assert got == ref


class TestParallelRunnerParity:
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_identical_results(self, family):
        stream, plan = _stream_and_plan(GRAPHS[family]())
        with engine.engine_overrides("python"):
            ref = run_parallel_estimates(stream, plan, [random.Random(s) for s in range(5)])
        with engine.engine_overrides("chunked", 193):
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
        got = []
        run_plan(scheduler, IncidentEdgePlan([4], lambda u, v: got.append((u, v))), chunk_size=2)
        assert got == [(1, 4), (4, 7)]

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

    def test_empty_stream_chunk_iteration(self):
        stream = InMemoryEdgeStream([])
        assert list(stream.iter_chunks(16)) == []
        scheduler = PassScheduler(stream)
        assert list(scheduler.new_pass_chunks(16)) == []
        assert scheduler.passes_used == 1


class TestEngineConfig:
    def test_auto_uses_python_for_iterator_only_streams(self):
        class IteratorOnly(InMemoryEdgeStream.__bases__[0]):
            def __iter__(self):
                return iter(())

            def __len__(self):
                return 0

        with engine.engine_overrides("auto"):
            assert engine.use_chunks(InMemoryEdgeStream([(0, 1)]))
            assert not engine.use_chunks(IteratorOnly())

    def test_overrides_restore_previous_policy(self):
        before = (engine.engine_mode(), engine.chunk_size())
        with engine.engine_overrides("python", 123):
            assert engine.engine_mode() == "python"
            assert engine.chunk_size() == 123
        assert (engine.engine_mode(), engine.chunk_size()) == before

    def test_invalid_mode_rejected(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            engine.set_engine("turbo")
