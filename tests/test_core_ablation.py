"""Tests for the ablation variants (core/ablation.py)."""

from __future__ import annotations

import random

from repro.analysis.variance import empirical_moments
from repro.core.ablation import (
    run_single_estimate_exact_assigner,
    run_single_estimate_third_split,
)
from repro.core.params import ParameterPlan
from repro.generators import book_graph, friendship_graph, wheel_graph
from repro.graph import count_triangles
from repro.streams import InMemoryEdgeStream


def plan_for(graph, kappa, epsilon=0.25):
    return ParameterPlan.build(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        kappa=kappa,
        t_guess=float(max(1, count_triangles(graph))),
        epsilon=epsilon,
    )


class TestThirdSplit:
    def test_four_passes_only(self):
        graph = wheel_graph(60)
        plan = plan_for(graph, 3)
        stream = InMemoryEdgeStream.from_graph(graph)
        result = run_single_estimate_third_split(stream, plan, random.Random(0))
        assert result.passes_used == 4  # assignment passes ablated

    def test_unbiased_mean(self):
        graph = wheel_graph(80)
        t = count_triangles(graph)
        plan = plan_for(graph, 3)
        stream = InMemoryEdgeStream.from_graph(graph)
        estimates = [
            run_single_estimate_third_split(stream, plan, random.Random(s)).estimate
            for s in range(30)
        ]
        moments = empirical_moments(estimates)
        se = moments.std / (len(estimates) ** 0.5)
        assert abs(moments.mean - t) <= 4 * se + 0.05 * t

    def test_variance_blows_up_on_book(self):
        # The paper's Section 1.2 argument, measured: on the book graph the
        # no-rule estimator's relative spread must dominate the assigned
        # version's by a wide margin.
        graph = book_graph(200)
        plan = plan_for(graph, 2)
        stream = InMemoryEdgeStream.from_graph(graph)
        split = [
            run_single_estimate_third_split(stream, plan, random.Random(s)).estimate
            for s in range(25)
        ]
        assigned = [
            run_single_estimate_exact_assigner(
                stream, plan, random.Random(s), graph
            ).estimate
            for s in range(25)
        ]
        split_rel = empirical_moments(split).relative_std
        assigned_rel = empirical_moments(assigned).relative_std
        assert split_rel > 2 * assigned_rel

    def test_rule_neutral_on_friendship(self):
        # Control: every t_e = 1, so the rule cannot help much; the two
        # variants should have comparable spread.
        graph = friendship_graph(150)
        plan = plan_for(graph, 2)
        stream = InMemoryEdgeStream.from_graph(graph)
        split = [
            run_single_estimate_third_split(stream, plan, random.Random(s)).estimate
            for s in range(20)
        ]
        assigned = [
            run_single_estimate_exact_assigner(
                stream, plan, random.Random(s), graph
            ).estimate
            for s in range(20)
        ]
        split_rel = empirical_moments(split).relative_std
        assigned_rel = empirical_moments(assigned).relative_std
        assert split_rel < 3 * assigned_rel + 0.2


class TestExactAssignerVariant:
    def test_matches_direct_injection(self):
        graph = wheel_graph(50)
        plan = plan_for(graph, 3)
        stream = InMemoryEdgeStream.from_graph(graph)
        a = run_single_estimate_exact_assigner(stream, plan, random.Random(3), graph)
        from repro.core import exact_assignment
        from repro.core.estimator import run_single_estimate

        b = run_single_estimate(stream, plan, random.Random(3), assign=exact_assignment(graph))
        assert a.estimate == b.estimate

    def test_prebuilt_hook_matches_building_it_per_run(self):
        from repro.core import exact_assignment

        graph = wheel_graph(50)
        plan = plan_for(graph, 3)
        stream = InMemoryEdgeStream.from_graph(graph)
        hook = exact_assignment(graph)
        for seed in range(3):
            per_run = run_single_estimate_exact_assigner(stream, plan, random.Random(seed), graph)
            shared = run_single_estimate_exact_assigner(
                stream, plan, random.Random(seed), graph, hook=hook
            )
            assert shared == per_run
