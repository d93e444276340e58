"""Tests for Algorithm 3 (streaming_assignment) against Definition 5.2."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import ParameterPlan, exact_assignment, streaming_assignment
from repro.errors import GraphError
from repro.graph import count_triangles, degeneracy, enumerate_triangles, per_edge_triangle_counts
from repro.generators import barabasi_albert_graph, book_graph, friendship_graph, wheel_graph
from repro.streams import InMemoryEdgeStream, PassScheduler, SpaceMeter
from repro.types import triangle_edges


def plan_for(graph, kappa, epsilon=0.25, t_guess=None):
    t = t_guess if t_guess is not None else max(1, count_triangles(graph))
    return ParameterPlan.build(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        kappa=kappa,
        t_guess=float(t),
        epsilon=epsilon,
    )


def run_assigner(graph, kappa, triangles, seed=0, epsilon=0.25):
    plan = plan_for(graph, kappa, epsilon)
    stream = InMemoryEdgeStream.from_graph(graph)
    scheduler = PassScheduler(stream)
    return streaming_assignment(scheduler, plan, random.Random(seed), triangles, SpaceMeter())


def triangle_rows(graph):
    return np.array(sorted(enumerate_triangles(graph)), dtype=np.int64)


class TestExactAssigner:
    def test_assigns_min_te_edge(self, book8):
        te = per_edge_triangle_counts(book8)
        rows = triangle_rows(book8)
        edges, assigned = exact_assignment(book8)(rows)
        assert edges.shape == (len(rows), 2) and assigned.all()
        for t, e in zip(map(tuple, rows.tolist()), map(tuple, edges.tolist())):
            assert e in triangle_edges(t)
            assert te[e] == min(te[f] for f in triangle_edges(t))

    def test_never_unassigned(self, grid4):
        assert exact_assignment(grid4)(triangle_rows(grid4))[1].all()

    def test_rejects_a_row_that_is_no_triangle(self, grid4):
        rows = triangle_rows(grid4)
        rows[-1, 2] += 100
        with pytest.raises(KeyError):
            exact_assignment(grid4)(rows)


class TestStreamingAssignerBasics:
    def test_empty_input_consumes_no_passes(self, wheel10):
        plan = plan_for(wheel10, 3)
        stream = InMemoryEdgeStream.from_graph(wheel10)
        scheduler = PassScheduler(stream)
        out = streaming_assignment(scheduler, plan, random.Random(0), [])
        assert out == {}
        assert scheduler.passes_used == 0

    def test_two_passes_used(self, wheel10):
        plan = plan_for(wheel10, 3)
        stream = InMemoryEdgeStream.from_graph(wheel10)
        scheduler = PassScheduler(stream)
        triangles = list(enumerate_triangles(wheel10))[:3]
        streaming_assignment(scheduler, plan, random.Random(0), triangles)
        assert scheduler.passes_used == 2

    def test_unique_assignment_to_contained_edge(self, grid4):
        # Definition 5.2(1): assigned edge is one of the triangle's own.
        triangles = list(enumerate_triangles(grid4))
        out = run_assigner(grid4, 3, triangles)
        assert set(out) == set(triangles)
        for t, e in out.items():
            assert e is None or e in triangle_edges(t)

    def test_duplicate_input_triangles_deduplicated(self, wheel10):
        triangles = list(enumerate_triangles(wheel10))[:2]
        out = run_assigner(wheel10, 3, triangles * 5)
        assert set(out) == set(triangles)

    def test_vertex_orders_of_one_triangle_are_one_key(self, wheel10):
        """Triangles are canonicalised: two orders of one vertex set give
        one sorted key, assigned a canonical edge, exactly as the sorted
        triangle alone is."""
        out = run_assigner(wheel10, 3, [(0, 2, 3), (3, 2, 0)])
        assert out == run_assigner(wheel10, 3, [(0, 2, 3)])
        assert list(out) == [(0, 2, 3)]
        assert out[(0, 2, 3)] in triangle_edges((0, 2, 3))

    def test_repeated_vertex_rejected(self, wheel10):
        with pytest.raises(GraphError, match="distinct"):
            run_assigner(wheel10, 3, [(0, 2, 2)])

    def test_deterministic_given_seed(self, grid4):
        triangles = list(enumerate_triangles(grid4))
        out1 = run_assigner(grid4, 3, triangles, seed=5)
        out2 = run_assigner(grid4, 3, triangles, seed=5)
        assert out1 == out2


class TestDefinition52Properties:
    def test_almost_all_assigned_on_benign_graph(self, grid4):
        # Definition 5.2(2): on the triangulated grid no edge is heavy
        # (t_e <= 2 << kappa/eps), so everything should be assigned.
        triangles = list(enumerate_triangles(grid4))
        out = run_assigner(grid4, 3, triangles)
        assigned = [t for t, e in out.items() if e is not None]
        assert len(assigned) == len(triangles)

    def test_bounded_assignment_on_book(self, book8):
        # Definition 5.2(3): the spine (t_e = 8 > kappa/eps = 8) must not
        # swallow every triangle; with kappa=2, eps=0.25, the cutoff
        # kappa/(2 eps) = 4 keeps assignments on the pages.
        triangles = list(enumerate_triangles(book8))
        out = run_assigner(book8, 2, triangles, seed=3)
        spine_hits = sum(1 for e in out.values() if e == (0, 1))
        assert spine_hits <= 2  # estimate noise may leak a little

    def test_tau_max_bounded(self):
        # tau_max <= kappa/eps whp across a real workload.
        graph = barabasi_albert_graph(150, 4, random.Random(3))
        triangles = list(enumerate_triangles(graph))
        out = run_assigner(graph, 4, triangles, seed=1)
        per_edge: dict = {}
        for t, e in out.items():
            if e is not None:
                per_edge[e] = per_edge.get(e, 0) + 1
        kappa = degeneracy(graph)
        assert max(per_edge.values()) <= kappa / 0.25 + 2

    def test_most_triangles_assigned_on_ba(self):
        graph = barabasi_albert_graph(150, 4, random.Random(3))
        triangles = list(enumerate_triangles(graph))
        out = run_assigner(graph, 4, triangles, seed=1)
        assigned = sum(1 for e in out.values() if e is not None)
        # Lemma 5.12-style: heavy + costly triangles are a small fraction.
        assert assigned >= 0.6 * len(triangles)

    def test_friendship_all_assigned(self, friendship6):
        # All t_e = 1: nothing is heavy, everything assigns.
        triangles = list(enumerate_triangles(friendship6))
        out = run_assigner(friendship6, 2, triangles)
        assert all(e is not None for e in out.values())


class TestDegreeCutoff:
    def test_high_degree_edges_skipped(self, book8):
        # With a tiny degree cutoff, every edge gets Y = inf and every
        # triangle is unassigned.
        plan = ParameterPlan.build(
            num_vertices=book8.num_vertices,
            num_edges=book8.num_edges,
            kappa=2,
            t_guess=1e9,  # blows the cutoffs down to ~0
            epsilon=0.25,
        )
        assert plan.degree_cutoff < 1
        stream = InMemoryEdgeStream.from_graph(book8)
        scheduler = PassScheduler(stream)
        out = streaming_assignment(
            scheduler, plan, random.Random(0), list(enumerate_triangles(book8))
        )
        assert all(e is None for e in out.values())

    def test_space_charged_to_meter(self, grid4):
        plan = plan_for(grid4, 3)
        meter = SpaceMeter()
        stream = InMemoryEdgeStream.from_graph(grid4)
        scheduler = PassScheduler(stream)
        streaming_assignment(
            scheduler, plan, random.Random(0), list(enumerate_triangles(grid4)), meter
        )
        breakdown = meter.peak_breakdown()
        assert breakdown.get("assignment-reservoirs", 0) > 0
        assert breakdown.get("assignment-degrees", 0) > 0


class TestAssignHookContract:
    """An ``assign=`` hook sees what Algorithm 3 would: per instance, the
    sorted unique rows of the triangles whose wedges closed."""

    def test_hook_gets_each_instances_unique_closed_rows_in_order(self, monkeypatch):
        from repro.core import parallel
        from repro.core.parallel import run_parallel_estimates
        from repro.core.stages import RoundStage
        from repro.generators import planted_triangles_graph

        graph = planted_triangles_graph(400, 3, rng=random.Random(1))
        plan = plan_for(graph, 3, t_guess=400.0)
        closures = []
        stage_closure = parallel.stage_closure

        def spy_stage(*args):
            stage = stage_closure(*args)

            def finish():
                value = stage.finish()
                closures.extend(value)
                return value

            return RoundStage(plan=stage.plan, finish=finish)

        calls = []
        exact = exact_assignment(graph)

        def hook(rows):
            calls.append(rows.copy())
            return exact(rows)

        monkeypatch.setattr(parallel, "stage_closure", spy_stage)
        stream = InMemoryEdgeStream.from_graph(graph)
        results = run_parallel_estimates(
            stream, plan, [random.Random(s) for s in range(6)], assign=hook
        )
        expected = [np.unique(t[closed], axis=0) for t, closed in closures]
        # Some instances close no wedge: the hook is never called for them.
        assert 0 < sum(map(len, expected)) and not all(map(len, expected))
        assert [rows.tolist() for rows in calls] == [
            rows.tolist() for rows in expected if len(rows)
        ]
        assert all(rows.shape[1:] == (3,) and rows.dtype == np.int64 for rows in calls)
        assert [r.distinct_candidate_triangles for r in results] == list(map(len, expected))
        assert [r.wedges_closed for r in results] == [int(c.sum()) for _, c in closures]

    def test_unassigned_hook_hits_nothing(self):
        from repro.core.assignment import unassigned
        from repro.core.estimator import run_single_estimate

        graph = wheel_graph(50)
        stream = InMemoryEdgeStream.from_graph(graph)
        result = run_single_estimate(
            stream, plan_for(graph, 3), random.Random(3), assign=unassigned
        )
        assert result.wedges_closed > 0
        assert result.assigned_hits == 0 and result.estimate == 0.0
        assert result.passes_used == 4
