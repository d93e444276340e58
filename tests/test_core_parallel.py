"""Tests for the parallel multi-instance runner (shared six passes)."""

from __future__ import annotations

import random

import pytest

from repro import EstimatorConfig, TriangleCountEstimator
from repro.analysis.variance import empirical_moments
from repro.core import parallel
from repro.core.driver import estimate_program
from repro.core.estimator import PASS_BUDGET_PER_ROUND
from repro.core.params import ParameterPlan
from repro.core.parallel import run_parallel_estimates
from repro.errors import PassBudgetExceeded
from repro.generators import book_graph, cycle_graph, wheel_graph
from repro.graph import count_triangles
from repro.streams import InMemoryEdgeStream, SpaceMeter
from repro.streams.transforms import shuffled


def plan_for(graph, kappa, epsilon=0.25):
    return ParameterPlan.build(
        graph.num_vertices,
        graph.num_edges,
        kappa,
        float(max(1, count_triangles(graph))),
        epsilon,
    )


class TestMechanics:
    def test_six_shared_passes(self):
        graph = wheel_graph(100)
        plan = plan_for(graph, 3)
        stream = InMemoryEdgeStream.from_graph(graph)
        rngs = [random.Random(s) for s in range(5)]
        results = run_parallel_estimates(stream, plan, rngs)
        assert len(results) == 5
        # All instances report the same shared pass count, at most 6.
        assert len({r.passes_used for r in results}) == 1
        assert results[0].passes_used <= 6

    def test_four_passes_when_no_triangles(self):
        graph = cycle_graph(40)
        plan = ParameterPlan.build(40, 40, 2, 10.0, 0.3)
        stream = InMemoryEdgeStream.from_graph(graph)
        results = run_parallel_estimates(stream, plan, [random.Random(1), random.Random(2)])
        assert all(r.estimate == 0.0 for r in results)
        assert results[0].passes_used == 4

    def test_empty_instance_list_rejected(self):
        graph = wheel_graph(20)
        plan = plan_for(graph, 3)
        stream = InMemoryEdgeStream.from_graph(graph)
        with pytest.raises(ValueError):
            run_parallel_estimates(stream, plan, [])

    def test_stream_mismatch_rejected(self):
        graph = wheel_graph(20)
        plan = plan_for(graph, 3)
        stream = InMemoryEdgeStream.from_graph(wheel_graph(30))
        with pytest.raises(ValueError, match="plan was built"):
            run_parallel_estimates(stream, plan, [random.Random(0)])

    def test_ensemble_space_reported(self):
        graph = wheel_graph(100)
        plan = plan_for(graph, 3)
        stream = InMemoryEdgeStream.from_graph(graph)
        meter = SpaceMeter()
        results = run_parallel_estimates(
            stream, plan, [random.Random(s) for s in range(3)], meter=meter
        )
        # Every result reports the shared ensemble peak.
        assert all(r.space_words_peak == meter.peak_words for r in results)
        # The ensemble holds 3x the pass-1 sample.
        assert meter.peak_breakdown()["R"] == 3 * 2 * plan.r

    def test_deterministic(self):
        graph = wheel_graph(80)
        plan = plan_for(graph, 3)
        stream = InMemoryEdgeStream.from_graph(graph)
        a = run_parallel_estimates(stream, plan, [random.Random(5), random.Random(6)])
        b = run_parallel_estimates(stream, plan, [random.Random(5), random.Random(6)])
        assert [r.estimate for r in a] == [r.estimate for r in b]


class TestStatisticalEquivalence:
    def test_instances_are_unbiased(self):
        # Mean over many parallel instances approaches T, exactly like the
        # sequential runner (E[X] = T-bar).
        graph = wheel_graph(120)
        t = count_triangles(graph)
        plan = plan_for(graph, 3)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(1)))
        rngs = [random.Random(s) for s in range(24)]
        results = run_parallel_estimates(stream, plan, rngs)
        moments = empirical_moments([r.estimate for r in results])
        se = moments.std / (len(results) ** 0.5)
        assert abs(moments.mean - t) <= 4 * se + 0.1 * t

    def test_instances_look_independent(self):
        # Crude independence check: the spread across parallel instances
        # matches the spread across sequential runs within a factor.
        from repro.core.estimator import run_single_estimate

        graph = book_graph(100)
        plan = plan_for(graph, 2)
        stream = InMemoryEdgeStream.from_graph(graph)
        parallel = [
            r.estimate
            for r in run_parallel_estimates(
                stream, plan, [random.Random(s) for s in range(16)]
            )
        ]
        sequential = [
            run_single_estimate(stream, plan, random.Random(100 + s)).estimate
            for s in range(16)
        ]
        p = empirical_moments(parallel)
        q = empirical_moments(sequential)
        assert p.std <= 3 * q.std + 1.0
        assert q.std <= 3 * p.std + 1.0


class TestDriverIntegration:
    def test_shared_passes_round_is_six(self):
        graph = wheel_graph(200)
        t = count_triangles(graph)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(0)))
        cfg = EstimatorConfig(seed=3, repetitions=5, t_hint=float(t))
        result = TriangleCountEstimator(cfg).estimate(stream, kappa=3)
        assert result.passes_total <= 6
        assert abs(result.estimate - t) / t < 0.35

    def test_full_search_pass_budget(self):
        # With shared passes the whole unknown-T search costs 6 passes per
        # round - a constant-factor-of-log total, never 6*reps*rounds.
        graph = wheel_graph(300)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(0)))
        cfg = EstimatorConfig(seed=2, repetitions=5)
        result = TriangleCountEstimator(cfg).estimate(stream, kappa=3)
        assert result.passes_total <= 6 * len(result.rounds)


def _seven_stages(m, plan, rngs, meter, assign=None):
    """A round body that overruns Theorem 5.1's budget by one pass."""
    import numpy as np

    from repro.core import kernels
    from repro.core.stages import RoundStage

    for _ in range(PASS_BUDGET_PER_ROUND + 1):
        yield RoundStage(plan=kernels.DegreeCountPlan(np.arange(2, dtype=np.int64)))
    return []


class TestRoundPassBudget:
    """The six-pass budget lives in the round program: every driver of a
    round - the solo driver and a served job alike - is checked."""

    def test_seventh_stage_raises(self):
        program = parallel._budgeted(_seven_stages)(0, None, [], None)
        next(program)
        for _ in range(PASS_BUDGET_PER_ROUND - 1):
            program.send(None)
        with pytest.raises(PassBudgetExceeded, match="more than 6 passes"):
            program.send(None)

    def test_solo_and_served_estimates_are_budgeted(self, monkeypatch):
        from repro.core import speculate
        from repro.serve import SweepScheduler
        from repro.serve.jobs import Job

        monkeypatch.setattr(speculate, "round_program", parallel._budgeted(_seven_stages))
        stream = InMemoryEdgeStream.from_graph(wheel_graph(40))
        config = EstimatorConfig(seed=1, repetitions=3)
        with pytest.raises(PassBudgetExceeded):
            TriangleCountEstimator(config).estimate(stream, kappa=3)
        shared = SweepScheduler(stream)
        job = Job("budget", estimate_program(stream, 3, config, owner_prefix="budget/"))
        shared.submit(job)
        shared.start()
        try:
            assert job.wait(60.0)
        finally:
            shared.shutdown()
        assert isinstance(job.error, PassBudgetExceeded)
