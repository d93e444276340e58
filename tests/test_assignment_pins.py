"""Pinned outputs of Algorithm 3 and of the two ablation runners.

Recorded before Algorithm 3 lost its adapter classes, so any change to
how the ``k = 1`` assignment or an ablation drives the round shows here:

* the ``k = 1`` streaming assignment of every triangle of ``grid4`` and
  ``book8`` at seed 0 - a digest of the sorted assignment, a digest of
  the generator's state afterwards, the passes and the peak space;
* :func:`run_single_estimate_third_split` and
  :func:`run_single_estimate_exact_assigner` on ``wheel_graph(50)`` at
  seed 3 - every result field and the generator's final state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro.core import ParameterPlan, streaming_assignment
from repro.core.ablation import (
    run_single_estimate_exact_assigner,
    run_single_estimate_third_split,
)
from repro.generators import book_graph, triangulated_grid_graph, wheel_graph
from repro.graph import count_triangles, enumerate_triangles
from repro.streams import InMemoryEdgeStream, PassScheduler, SpaceMeter


def plan_for(graph, kappa):
    return ParameterPlan.build(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        kappa=kappa,
        t_guess=float(max(1, count_triangles(graph))),
        epsilon=0.25,
    )


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


#: The state of ``random.Random(s)`` after one ``getrandbits(64)``.
ONE_DRAW_STATE = "1e0f3cff0f8d7eb273b006fb899c120c943cab5343db1b44c1eb403bb1df0ece"

ASSIGNMENT_PINS = {
    # name: (graph, kappa, sorted-assignment digest, passes, peak words)
    "grid4": (
        lambda: triangulated_grid_graph(4, 4),
        3,
        "71fccdbc59b7439f6dc414f6715365cc872fb69d1c3308c32c51391ffa5370c6",
        2,
        5445,
    ),
    "book8": (
        lambda: book_graph(8),
        2,
        "6270627fdb34f6b2df99134c0a21510f39b1482748590ca2bbc474552ace8517",
        2,
        1345,
    ),
}


@pytest.mark.parametrize("name", sorted(ASSIGNMENT_PINS))
def test_k1_assignment_pinned(name):
    make_graph, kappa, expected, passes, peak = ASSIGNMENT_PINS[name]
    graph = make_graph()
    plan = plan_for(graph, kappa)
    scheduler = PassScheduler(InMemoryEdgeStream.from_graph(graph))
    rng = random.Random(0)
    meter = SpaceMeter()
    out = streaming_assignment(scheduler, plan, rng, list(enumerate_triangles(graph)), meter)
    assert digest(sorted(out.items())) == expected
    assert digest(rng.getstate()) == ONE_DRAW_STATE
    assert scheduler.passes_used == passes
    assert meter.peak_words == peak


WHEEL_RNG = "031d8f27e4f86011909ce26f2b51bbfdfa6283ac07db5a0b4d3cbdcbf20a8adc"

ABLATION_PINS = {
    "third_split": dict(
        estimate=53.083333333333336,
        r=288,
        ell=288,
        d_r=864.0,
        wedges_closed=156,
        assigned_hits=156,
        distinct_candidate_triangles=48,
        passes_used=4,
        space_words_peak=2147,
    ),
    "exact_assigner": dict(
        estimate=46.95833333333333,
        r=288,
        ell=288,
        d_r=864.0,
        wedges_closed=156,
        assigned_hits=46,
        distinct_candidate_triangles=48,
        passes_used=4,
        space_words_peak=2147,
    ),
}


@pytest.mark.parametrize("variant", sorted(ABLATION_PINS))
def test_ablation_runner_pinned(variant):
    graph = wheel_graph(50)
    plan = plan_for(graph, 3)
    stream = InMemoryEdgeStream.from_graph(graph)
    rng = random.Random(3)
    if variant == "third_split":
        result = run_single_estimate_third_split(stream, plan, rng)
    else:
        result = run_single_estimate_exact_assigner(stream, plan, rng, graph)
    assert dataclasses.asdict(result) == ABLATION_PINS[variant]
    assert digest(rng.getstate()) == WHEEL_RNG
