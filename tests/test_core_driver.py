"""Tests for the driver: config validation, guessing loop, end-to-end API."""

from __future__ import annotations

import random

import pytest

from repro import EstimatorConfig, TriangleCountEstimator
from repro.errors import ParameterError, SpaceBudgetExceeded
from repro.generators import (
    barabasi_albert_graph,
    cycle_graph,
    path_graph,
    triangulated_grid_graph,
    wheel_graph,
)
from repro.graph import count_triangles
from repro.streams import InMemoryEdgeStream
from repro.streams.transforms import shuffled


class TestConfigValidation:
    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1])
    def test_epsilon_range(self, epsilon):
        with pytest.raises(ParameterError):
            EstimatorConfig(epsilon=epsilon)

    def test_repetitions_positive(self):
        with pytest.raises(ParameterError):
            EstimatorConfig(repetitions=0)

    def test_kappa_positive(self, wheel10):
        stream = InMemoryEdgeStream.from_graph(wheel10)
        with pytest.raises(ParameterError):
            TriangleCountEstimator().estimate(stream, kappa=0)

    def test_t_hint_positive(self, wheel10):
        stream = InMemoryEdgeStream.from_graph(wheel10)
        with pytest.raises(ParameterError):
            cfg = EstimatorConfig(t_hint=-5.0)
            TriangleCountEstimator(cfg).estimate(stream, kappa=3)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_rounds", 0),
            ("max_rounds", -2),
            ("t_hint", 0.0),
            ("t_hint", -1.0),
            ("space_budget_words", -5),
            ("repetitions", 2.5),
            ("max_rounds", 2.5),
            ("chunk_size", 100.5),
            ("workers", 2.5),
            ("workers", True),
            ("speculate_depth", 2.5),
            ("speculate_depth", 0),
            ("max_retries", 1.5),
            ("snapshot_every", 1.5),
            ("snapshot_keep", 1.5),
            ("fuse", "no"),
            ("fuse", 1),
        ],
    )
    def test_round_settings_rejected_at_config_time(self, field, value):
        """No stream is read: an empty one would otherwise answer 0.0, and a
        fractional count would fail only inside a sweep."""
        with pytest.raises(ParameterError, match=field):
            EstimatorConfig(**{field: value})

    @pytest.mark.parametrize("fuse", [True, False])
    def test_retired_fuse_field_selects_nothing(self, fuse):
        """Still accepted as a bool, and the run is the default run,
        accounting included."""
        graph = barabasi_albert_graph(200, 4, random.Random(5))
        runs = [
            TriangleCountEstimator(EstimatorConfig(seed=1, repetitions=3, **extra)).estimate(
                InMemoryEdgeStream.from_graph(graph), kappa=4
            )
            for extra in ({}, {"fuse": fuse})
        ]
        default, given = [
            (r.estimate, r.sweeps_total, r.passes_total, r.space_words_peak) for r in runs
        ]
        assert given == default

    def test_config_property_echoes(self):
        cfg = EstimatorConfig(epsilon=0.5)
        assert TriangleCountEstimator(cfg).config is cfg


class TestEdgeCases:
    def test_empty_stream(self):
        result = TriangleCountEstimator().estimate(InMemoryEdgeStream([]), kappa=1)
        assert result.estimate == 0.0
        assert result.rounds == []
        assert result.passes_total == 0

    def test_triangle_free_returns_near_zero(self):
        graph = cycle_graph(40)
        stream = InMemoryEdgeStream.from_graph(graph)
        result = TriangleCountEstimator(EstimatorConfig(seed=1, repetitions=3)).estimate(
            stream, kappa=2
        )
        assert result.estimate == 0.0
        # The guess walked all the way down without acceptance.
        assert all(not r.accepted for r in result.rounds)

    def test_path_graph(self):
        graph = path_graph(30)
        stream = InMemoryEdgeStream.from_graph(graph)
        result = TriangleCountEstimator(EstimatorConfig(seed=1, repetitions=3)).estimate(
            stream, kappa=1
        )
        assert result.estimate == 0.0


class TestGuessingLoop:
    def test_guesses_halve(self):
        graph = wheel_graph(200)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(2)))
        result = TriangleCountEstimator(EstimatorConfig(seed=3, repetitions=3)).estimate(
            stream, kappa=3
        )
        guesses = [r.t_guess for r in result.rounds]
        assert guesses[0] == 2.0 * graph.num_edges * 3
        for previous, current in zip(guesses, guesses[1:]):
            assert current == pytest.approx(previous / 2)

    def test_accepted_round_is_last(self):
        graph = wheel_graph(200)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(2)))
        result = TriangleCountEstimator(EstimatorConfig(seed=3, repetitions=3)).estimate(
            stream, kappa=3
        )
        assert result.accepted_round is result.rounds[-1]
        assert result.accepted_round.median_estimate == result.estimate

    def test_accepted_guess_near_truth(self):
        graph = wheel_graph(200)
        t = count_triangles(graph)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(2)))
        result = TriangleCountEstimator(EstimatorConfig(seed=3, repetitions=3)).estimate(
            stream, kappa=3
        )
        accepted = result.accepted_round
        assert accepted is not None
        # Acceptance fires once the guess falls within a small factor of T.
        assert t / 4 <= accepted.t_guess <= 16 * t

    def test_t_hint_skips_search(self):
        graph = wheel_graph(200)
        t = count_triangles(graph)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(2)))
        cfg = EstimatorConfig(seed=3, repetitions=3, t_hint=float(t))
        result = TriangleCountEstimator(cfg).estimate(stream, kappa=3)
        assert len(result.rounds) == 1
        assert result.rounds[0].accepted

    def test_max_rounds_cap(self):
        graph = cycle_graph(50)
        stream = InMemoryEdgeStream.from_graph(graph)
        cfg = EstimatorConfig(seed=1, repetitions=1, max_rounds=3)
        result = TriangleCountEstimator(cfg).estimate(stream, kappa=2)
        assert len(result.rounds) <= 3


class TestEndToEndAccuracy:
    @pytest.mark.parametrize(
        "graph_factory,kappa,tolerance",
        [
            (lambda: wheel_graph(600), 3, 0.30),
            (lambda: triangulated_grid_graph(16, 16), 3, 0.35),
        ],
    )
    def test_estimates_within_tolerance(self, graph_factory, kappa, tolerance):
        graph = graph_factory()
        t = count_triangles(graph)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(8)))
        result = TriangleCountEstimator(EstimatorConfig(seed=5)).estimate(stream, kappa=kappa)
        assert abs(result.estimate - t) / t < tolerance

    def test_determinism(self):
        graph = wheel_graph(150)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(2)))
        cfg = EstimatorConfig(seed=42, repetitions=3)
        r1 = TriangleCountEstimator(cfg).estimate(stream, kappa=3)
        r2 = TriangleCountEstimator(cfg).estimate(stream, kappa=3)
        assert r1.estimate == r2.estimate
        assert [g.t_guess for g in r1.rounds] == [g.t_guess for g in r2.rounds]

    def test_overestimated_kappa_still_works(self):
        # The promise may exceed the true degeneracy; accuracy must hold
        # (space just grows proportionally).
        graph = wheel_graph(300)
        t = count_triangles(graph)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(2)))
        result = TriangleCountEstimator(EstimatorConfig(seed=5, repetitions=3)).estimate(
            stream, kappa=12
        )
        assert abs(result.estimate - t) / t < 0.35

    def test_passes_are_multiple_of_runs(self):
        graph = wheel_graph(150)
        stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(2)))
        cfg = EstimatorConfig(seed=42, repetitions=3)
        result = TriangleCountEstimator(cfg).estimate(stream, kappa=3)
        runs = sum(len(r.runs) for r in result.rounds)
        assert result.passes_total <= 6 * runs
        assert all(run.passes_used <= 6 for r in result.rounds for run in r.runs)


class TestSpaceBudget:
    def test_budget_abort_raises(self):
        graph = wheel_graph(300)
        stream = InMemoryEdgeStream.from_graph(graph)
        cfg = EstimatorConfig(seed=1, repetitions=1, space_budget_words=10)
        with pytest.raises(SpaceBudgetExceeded):
            TriangleCountEstimator(cfg).estimate(stream, kappa=3)

    def test_generous_budget_passes(self):
        graph = wheel_graph(100)
        stream = InMemoryEdgeStream.from_graph(graph)
        cfg = EstimatorConfig(seed=1, repetitions=1, space_budget_words=10_000_000)
        result = TriangleCountEstimator(cfg).estimate(stream, kappa=3)
        assert result.space_words_peak <= 10_000_000
