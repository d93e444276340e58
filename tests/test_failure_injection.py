"""Failure injection: the guard rails must fail loudly, not silently.

The streaming model's constraints (pass budgets, space budgets, replay
consistency) are enforced by the infrastructure; these tests inject
violations and assert the failure is an exception at the right layer, with
state left coherent.

Library-level failures (mid-sweep stream faults, pool failures) are
injected through the deterministic :mod:`repro.core.faults` harness;
``NthPassFailingStream`` remains as the one *ad-hoc* failure stream
because it models an external user stream raising bare ``IOError`` -
exactly the class of exception the harness cannot type for us.
"""

from __future__ import annotations

import random
from typing import Iterator

import pytest

import repro.core.driver as driver_module
from repro import EstimatorConfig, TriangleCountEstimator
from repro.core import faults
from repro.core.params import ParameterPlan
from repro.core.estimator import run_single_estimate
from repro.errors import (
    PassBudgetExceeded,
    SpaceBudgetExceeded,
    StreamError,
    StreamReadError,
)
from repro.generators import barabasi_albert_graph, wheel_graph
from repro.graph import count_triangles
from repro.rng import make_rng, spawn
from repro.streams import InMemoryEdgeStream, PassScheduler, SpaceMeter
from repro.streams.base import EdgeStream
from repro.types import Edge


class NthPassFailingStream(EdgeStream):
    """Delegates to a fixed tape; every pass from ``fail_pass`` on dies mid-way."""

    def __init__(self, edges, fail_pass: int, fail_after: int = 10) -> None:
        self._edges = list(edges)
        self._fail_pass = fail_pass
        self._fail_after = fail_after
        self._passes = 0

    def __iter__(self) -> Iterator[Edge]:
        self._passes += 1
        if self._passes >= self._fail_pass:
            return self._failing_pass()
        return iter(self._edges)

    def _failing_pass(self) -> Iterator[Edge]:
        for i, e in enumerate(self._edges):
            if i >= self._fail_after:
                raise IOError("injected stream failure")
            yield e

    def __len__(self) -> int:
        return len(self._edges)


class MutatingStream(EdgeStream):
    """A stream whose order changes between passes (model violation)."""

    def __init__(self, edges) -> None:
        self._edges = list(edges)
        self._passes = 0

    def __iter__(self) -> Iterator[Edge]:
        self._passes += 1
        order = list(self._edges)
        random.Random(self._passes).shuffle(order)
        return iter(order)

    def __len__(self) -> int:
        return len(self._edges)


class TestStreamFailures:
    def test_midsweep_fault_propagates(self):
        # A mid-sweep stream fault injected by the harness reaches the
        # single-run estimator as a typed StreamReadError (no recovery
        # machinery below the driver - the failure must be loud).
        graph = wheel_graph(40)
        stream = InMemoryEdgeStream.from_graph(graph)
        plan = ParameterPlan.build(40, graph.num_edges, 3, 39.0, 0.3)
        with faults.fault_scope("sweep.mid_stage@0"):
            with pytest.raises(StreamReadError, match="injected"):
                run_single_estimate(stream, plan, random.Random(0))

    def test_scheduler_recovers_after_failed_pass(self):
        graph = wheel_graph(20)
        stream = InMemoryEdgeStream.from_graph(graph)
        with faults.fault_scope("sweep.mid_stage@0"):
            scheduler = PassScheduler(stream)
            with pytest.raises(StreamReadError, match="injected"):
                list(scheduler.new_pass())
            # The failed pass counted and closed; the injection was a
            # one-shot event, so the same scheduler serves the next pass
            # cleanly with its accounting coherent.
            assert scheduler.passes_used == 1
            assert len(list(scheduler.new_pass())) == len(stream)
            assert scheduler.passes_used == 2

    def test_mutating_stream_does_not_crash_estimator(self):
        # A stream violating replay consistency produces *wrong numbers*,
        # not crashes - the model assumption is external.  The estimator
        # must still terminate and return a finite value.
        graph = wheel_graph(100)
        stream = MutatingStream(graph.edge_list())
        plan = ParameterPlan.build(100, graph.num_edges, 3, 99.0, 0.3)
        result = run_single_estimate(stream, plan, random.Random(1))
        assert result.estimate >= 0.0
        assert result.passes_used <= 6


class TestBudgetViolations:
    def test_space_budget_aborts_during_pass1(self):
        graph = wheel_graph(200)
        stream = InMemoryEdgeStream.from_graph(graph)
        plan = ParameterPlan.build(200, graph.num_edges, 3, 10.0, 0.3)  # big r
        meter = SpaceMeter(budget_words=50)
        with pytest.raises(SpaceBudgetExceeded):
            run_single_estimate(stream, plan, random.Random(0), meter=meter)

    def test_space_budget_driver_level(self):
        graph = wheel_graph(100)
        stream = InMemoryEdgeStream.from_graph(graph)
        cfg = EstimatorConfig(seed=0, repetitions=1, space_budget_words=20)
        with pytest.raises(SpaceBudgetExceeded):
            TriangleCountEstimator(cfg).estimate(stream, kappa=3)

    def test_pass_budget_violation_detected(self):
        graph = wheel_graph(30)
        stream = InMemoryEdgeStream.from_graph(graph)
        scheduler = PassScheduler(stream, max_passes=1)
        list(scheduler.new_pass())
        with pytest.raises(PassBudgetExceeded):
            scheduler.new_pass()

    def test_meter_state_coherent_after_abort(self):
        meter = SpaceMeter(budget_words=10)
        meter.allocate(8, "a")
        with pytest.raises(SpaceBudgetExceeded):
            meter.allocate(5, "b")
        # The failed allocation was still recorded (abort semantics: the
        # algorithm stops; the meter reports what it observed).
        assert meter.current_words == 13
        assert meter.peak_words == 13


class TestInputValidationAtBoundaries:
    def test_stream_graph_mismatch(self):
        graph = wheel_graph(30)
        other = wheel_graph(40)
        stream = InMemoryEdgeStream.from_graph(other)
        plan = ParameterPlan.build(30, graph.num_edges, 3, 29.0, 0.3)
        with pytest.raises(ValueError, match="plan was built"):
            run_single_estimate(stream, plan, random.Random(0))

    def test_order_not_permutation(self):
        graph = wheel_graph(10)
        with pytest.raises(StreamError):
            InMemoryEdgeStream.from_graph(graph, graph.edge_list()[:-1])

    def test_estimator_survives_minimum_graph(self):
        # Single triangle: the smallest instance with T > 0.
        stream = InMemoryEdgeStream([(0, 1), (1, 2), (0, 2)])
        cfg = EstimatorConfig(seed=1, repetitions=3)
        result = TriangleCountEstimator(cfg).estimate(stream, kappa=2)
        assert result.estimate == pytest.approx(1.0, rel=1.0)

    def test_estimator_single_edge(self):
        stream = InMemoryEdgeStream([(0, 1)])
        cfg = EstimatorConfig(seed=1, repetitions=2)
        result = TriangleCountEstimator(cfg).estimate(stream, kappa=1)
        assert result.estimate == 0.0


class TestSpeculativeCleanupPaths:
    """The speculative driver's cleanup contracts under injected failures.

    A shared sweep dying mid-stage must not leave speculative residue
    behind: the root generator's consumption has to match the sequential
    trajectory (pre-drawn rounds rewound), and a sharded sweep's per-task
    shared-memory spools have to be unlinked even when the failure strikes
    before their task's partial was absorbed.
    """

    @pytest.mark.parametrize("depth", [2, 3])
    def test_sweep_failure_rewinds_speculative_rng_spawns(self, monkeypatch, depth):
        # The stream survives the stats pass, then dies during every later
        # sweep - after the speculative rounds' generators were already
        # spawned from the root.  The recovery layer retries the round
        # (rewinding the root each time) and degrades speculation to the
        # sequential loop before giving up; the persistent failure then
        # propagates with the root's consumption matching the sequential
        # trajectory up to the failure.
        graph = barabasi_albert_graph(200, 4, random.Random(3))
        stream = NthPassFailingStream(graph.edge_list(), fail_pass=2)
        captured = []
        real_make_rng = driver_module.make_rng

        def recording_make_rng(seed):
            rng = real_make_rng(seed)
            captured.append(rng)
            return rng

        monkeypatch.setattr(driver_module, "make_rng", recording_make_rng)
        cfg = EstimatorConfig(
            seed=5,
            repetitions=3,
            workers=1,
            speculate_depth=depth,
        )
        with pytest.raises(IOError, match="injected stream failure"):
            TriangleCountEstimator(cfg).estimate(stream, kappa=4)
        # The sequential driver would have drawn only round 0's children
        # before the failing sweep; every speculative spawn must have been
        # rewound when the window aborted.
        expected = make_rng(5)
        for rep in range(3):
            spawn(expected, f"round0/rep{rep}")
        assert captured, "instrumentation never saw the root generator"
        assert captured[-1].getstate() == expected.getstate()
