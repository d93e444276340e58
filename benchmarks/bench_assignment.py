"""E6 - Definition 5.2 / Lemma 5.12: the assignment rule, measured.

Runs the streaming ``Assignment`` (Algorithm 3) over *all* triangles of
each workload and reports the Definition 5.2 ledger: fraction assigned,
``tau_max`` vs the ``kappa/eps`` budget, and how the exact rule's loss
(heavy + costly triangles, Lemma 5.12's ``<= 3 eps T``) compares.

Reproduction target: assigned fraction >= 1 - O(eps); tau_max <= kappa/eps;
the book graph (the paper's worst case) keeps its spine edge empty.
"""

from __future__ import annotations

import random

from repro.analysis import format_table
from repro.core.parallel import streaming_assignment
from repro.core.params import ParameterPlan
from repro.graph import count_triangles, degeneracy, enumerate_triangles, per_edge_triangle_counts
from repro.generators import standard_suite
from repro.streams.memory import InMemoryEdgeStream
from repro.streams.multipass import PassScheduler

EPSILON = 0.25


def run_assignment_ledger(scale: str, seeds: range) -> None:
    rows = []
    for workload in standard_suite(scale):
        graph = workload.instantiate(seed=0)
        t = count_triangles(graph)
        if t == 0:
            continue
        kappa = degeneracy(graph)
        triangles = list(enumerate_triangles(graph))
        plan = ParameterPlan.build(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            kappa=max(1, kappa),
            t_guess=float(t),
            epsilon=EPSILON,
        )
        stream = InMemoryEdgeStream.from_graph(graph)
        scheduler = PassScheduler(stream)
        out = streaming_assignment(scheduler, plan, random.Random(1), triangles)
        assigned = {tri: e for tri, e in out.items() if e is not None}
        per_edge: dict = {}
        for e in assigned.values():
            per_edge[e] = per_edge.get(e, 0) + 1
        tau_max = max(per_edge.values(), default=0)
        te = per_edge_triangle_counts(graph)
        heavy_cut = kappa / EPSILON
        exact_heavy_triangles = sum(
            1
            for tri in triangles
            if all(te[e2] > heavy_cut for e2 in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])))
        )
        rows.append(
            [
                workload.name,
                t,
                len(assigned) / t,
                tau_max,
                heavy_cut,
                tau_max <= heavy_cut + 1,
                exact_heavy_triangles / t,
            ]
        )
    print()
    print(
        format_table(
            [
                "workload",
                "T",
                "assigned frac",
                "tau_max",
                "kappa/eps",
                "tau_max ok",
                "exact heavy frac",
            ],
            rows,
            caption=f"E6: Definition 5.2 ledger at eps={EPSILON} "
            "(assigned frac >= 1-O(eps); tau_max <= kappa/eps)",
        )
    )


def test_assignment_ledger(benchmark, bench_scale, bench_seeds):
    benchmark.pedantic(
        run_assignment_ledger, args=(bench_scale, bench_seeds), rounds=1, iterations=1
    )
