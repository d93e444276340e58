"""E11 - design-choice ablation: what the assignment rule buys.

Three estimator variants on the paper's motivating pair of graphs:

* ``third-split`` - Algorithm 2's sampling with the assignment rule
  ablated (every triangle credited 1/3 from any edge);
* ``exact-rule``  - Algorithm 2 with the ground-truth min-``t_e`` rule;
* ``streaming``   - the full paper pipeline (Algorithm 3's sampled rule).

Reproduction target (the Section 1.2 argument, measured): on the *book*
graph the third-split variant's relative spread explodes (all triangles
sit on one edge) while both rule-based variants stay tight; on the
*friendship* control (every ``t_e = 1``) all three variants behave alike.
"""

from __future__ import annotations

import random

from repro.analysis import format_table
from repro.analysis.variance import empirical_moments
from repro.core.ablation import (
    run_single_estimate_exact_assigner,
    run_single_estimate_third_split,
)
from repro.core.assignment import exact_assignment
from repro.core.estimator import run_single_estimate
from repro.core.params import ParameterPlan
from repro.graph import count_triangles
from repro.generators import book_graph, friendship_graph
from repro.streams.memory import InMemoryEdgeStream

RUNS = {"tiny": 15, "small": 30, "medium": 60}


def run_ablation(scale: str, seeds: range) -> None:
    runs = RUNS[scale]
    size = {"tiny": 120, "small": 400, "medium": 1200}[scale]
    instances = [
        ("book (worst case)", book_graph(size), 2),
        ("friendship (control)", friendship_graph(size), 2),
    ]
    rows = []
    for name, graph, kappa in instances:
        t = count_triangles(graph)
        plan = ParameterPlan.build(
            graph.num_vertices, graph.num_edges, kappa, float(t), 0.25
        )
        stream = InMemoryEdgeStream.from_graph(graph)
        exact = exact_assignment(graph)  # once per graph, not per run
        variants = {
            "third-split": lambda s: run_single_estimate_third_split(
                stream, plan, random.Random(s)
            ),
            "exact-rule": lambda s: run_single_estimate_exact_assigner(
                stream, plan, random.Random(s), graph, hook=exact
            ),
            "streaming": lambda s: run_single_estimate(stream, plan, random.Random(s)),
        }
        for variant, runner in variants.items():
            estimates = [runner(s).estimate for s in range(runs)]
            moments = empirical_moments(estimates)
            rows.append(
                [
                    name,
                    variant,
                    t,
                    moments.mean,
                    (moments.mean - t) / t,
                    moments.relative_std,
                ]
            )
    print()
    print(
        format_table(
            ["graph", "variant", "T", "mean est", "mean rel err", "rel std"],
            rows,
            caption=f"E11: assignment-rule ablation over {runs} runs "
            "(rule tames the book graph; neutral on the control)",
        )
    )


def test_ablation(benchmark, bench_scale, bench_seeds):
    benchmark.pedantic(run_ablation, args=(bench_scale, bench_seeds), rounds=1, iterations=1)
