"""Tests for Algorithm 2 (run_single_estimate): passes, unbiasedness, accuracy."""

from __future__ import annotations

import random

import pytest

from repro.analysis.variance import empirical_moments
from repro.core import ParameterPlan, exact_assignment
from repro.core.estimator import SinglePassStackResult, run_single_estimate
from repro.generators import (
    barabasi_albert_graph,
    book_graph,
    cycle_graph,
    triangulated_grid_graph,
    wheel_graph,
)
from repro.graph import count_triangles
from repro.streams import InMemoryEdgeStream, SpaceMeter
from repro.streams.transforms import shuffled


def plan_for(graph, kappa, epsilon=0.25, t_guess=None, mode="practical"):
    t = t_guess if t_guess is not None else max(1, count_triangles(graph))
    return ParameterPlan.build(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        kappa=kappa,
        t_guess=float(t),
        epsilon=epsilon,
        mode=mode,
    )


class TestMechanics:
    def test_stream_length_mismatch_rejected(self, wheel10):
        plan = plan_for(wheel10, 3)
        wrong = InMemoryEdgeStream([(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="plan was built for"):
            run_single_estimate(wrong, plan, random.Random(0))

    def test_six_passes_with_streaming_assigner(self, wheel10):
        plan = plan_for(wheel10, 3)
        stream = InMemoryEdgeStream.from_graph(wheel10)
        result = run_single_estimate(stream, plan, random.Random(0))
        # 4 core passes + 2 assignment passes when candidates were found.
        assert result.passes_used == 6 if result.distinct_candidate_triangles else 4

    def test_four_passes_on_triangle_free(self):
        graph = cycle_graph(30)
        plan = plan_for(graph, 2, t_guess=10.0)
        stream = InMemoryEdgeStream.from_graph(graph)
        result = run_single_estimate(stream, plan, random.Random(0))
        assert result.passes_used == 4
        assert result.estimate == 0.0

    def test_diagnostics_consistency(self, wheel10):
        plan = plan_for(wheel10, 3)
        stream = InMemoryEdgeStream.from_graph(wheel10)
        result = run_single_estimate(stream, plan, random.Random(1))
        assert result.r == plan.r
        assert result.ell >= 8
        assert result.d_r >= result.r  # every d_e >= 1
        assert 0 <= result.assigned_hits <= result.wedges_closed <= result.ell
        assert result.space_words_peak > 0

    def test_deterministic_given_seed(self, grid4):
        plan = plan_for(grid4, 3)
        stream = InMemoryEdgeStream.from_graph(grid4)
        a = run_single_estimate(stream, plan, random.Random(7))
        b = run_single_estimate(stream, plan, random.Random(7))
        assert a.estimate == b.estimate

    def test_payload_with_dropped_sweeps_used_loads(self, wheel10):
        # Snapshots written while runs reported ``sweeps_used`` still load.
        plan = plan_for(wheel10, 3)
        stream = InMemoryEdgeStream.from_graph(wheel10)
        result = run_single_estimate(stream, plan, random.Random(2))
        state = dict(result.to_state(), sweeps_used=result.passes_used)
        assert SinglePassStackResult.from_state(state) == result

    def test_meter_used_when_supplied(self, grid4):
        plan = plan_for(grid4, 3)
        stream = InMemoryEdgeStream.from_graph(grid4)
        meter = SpaceMeter()
        run_single_estimate(stream, plan, random.Random(0), meter=meter)
        assert meter.peak_words > 0
        assert "R" in meter.peak_breakdown()


class TestUnbiasednessWithExactAssigner:
    """With the exact min-t_e assigner, E[X] = T exactly (no unassigned
    triangles, no estimation error in IsAssigned)."""

    @pytest.mark.parametrize(
        "graph_factory,kappa",
        [
            (lambda: wheel_graph(80), 3),
            (lambda: book_graph(50), 2),
            (lambda: triangulated_grid_graph(8, 8), 3),
        ],
    )
    def test_mean_over_runs_close_to_t(self, graph_factory, kappa):
        graph = graph_factory()
        t = count_triangles(graph)
        plan = plan_for(graph, kappa)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(13)))
        assign = exact_assignment(graph)
        estimates = [
            run_single_estimate(stream, plan, random.Random(seed), assign=assign).estimate
            for seed in range(30)
        ]
        moments = empirical_moments(estimates)
        standard_error = moments.std / (len(estimates) ** 0.5)
        assert abs(moments.mean - t) <= 4 * standard_error + 0.05 * t


class TestAccuracyEndToEnd:
    def test_wheel_accuracy(self):
        graph = wheel_graph(400)
        t = count_triangles(graph)
        plan = plan_for(graph, 3)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(4)))
        estimates = [
            run_single_estimate(stream, plan, random.Random(seed)).estimate for seed in range(7)
        ]
        med = sorted(estimates)[3]
        assert abs(med - t) / t < 0.3

    def test_ba_accuracy(self):
        graph = barabasi_albert_graph(250, 5, random.Random(2))
        t = count_triangles(graph)
        plan = plan_for(graph, 5)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(4)))
        estimates = [
            run_single_estimate(stream, plan, random.Random(seed)).estimate for seed in range(7)
        ]
        med = sorted(estimates)[3]
        assert abs(med - t) / t < 0.35

    def test_adversarial_stream_order(self):
        # Heavy edges last: pass-1 uniform sampling must not care.
        from repro.streams.transforms import adversarial_heavy_edge_last_order

        graph = wheel_graph(300)
        t = count_triangles(graph)
        plan = plan_for(graph, 3)
        stream = InMemoryEdgeStream.from_graph(graph, adversarial_heavy_edge_last_order(graph))
        estimates = [
            run_single_estimate(stream, plan, random.Random(seed)).estimate for seed in range(7)
        ]
        med = sorted(estimates)[3]
        assert abs(med - t) / t < 0.3
