"""Pinned outputs of Algorithm 3 and of the two ablation runners.

Recorded before Algorithm 3 lost its adapter classes, so any change to
how the ``k = 1`` assignment or an ablation drives the round shows here:

* the ``k = 1`` streaming assignment of every triangle of ``grid4`` and
  ``book8`` at seed 0 - a digest of the sorted assignment, a digest of
  the generator's state afterwards, the passes and the peak space;
* :func:`run_single_estimate_third_split` and
  :func:`run_single_estimate_exact_assigner` on ``wheel_graph(50)`` at
  seed 3 - every result field and the generator's final state;
* the flush schedule of Algorithm 3's sample bundles, on a wheel hub and
  on a hand-ordered three-instance stream whose offers cross the mid-pass
  flush points - one digest of the pass-6 rows' samples and the
  assignments, the same at every chunk size and worker count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import numpy as np
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


# ---------------------------------------------------------------------------
# Flush-schedule pins: offers that cross the mid-pass flush points
#
# A vertex's bundles resolve their held offers when its offer count reaches
# 32, 64, 128, ... and, past ``max(s, 1024)``, every ``max(s, 1024)`` offers.
# The pins above make no mid-pass flush; these cross every kind of point.
# A spy on the pass-6 stage records each light row's far endpoint and its
# sorted ``(value, count)`` samples, so any change in when the bundles
# flush, or in the order their generators are consumed, changes the digest.
# Each digest holds at every chunk size and worker count.

CHUNKS = [1, 7, 257, 65_536]


def _record_closure_rows(monkeypatch):
    """Spy on the pass-6 stage: ``[(far endpoint, sorted samples), ...]``."""
    from repro.core import assignment, parallel

    seen = []
    original = assignment.stage_closure_hits

    def spy(values, counts, others, meter):
        for row_values, row_counts, other in zip(values, counts, others.tolist()):
            samples = sorted(zip(row_values.tolist(), row_counts.tolist()))
            seen.append((other, samples))
        return original(values, counts, others, meter)

    for module in (assignment, parallel):
        monkeypatch.setattr(module, "stage_closure_hits", spy)
    return seen


def _wheel_hub_case():
    """``streaming_assignment`` of every triangle of a shuffled 3300-wheel:
    the hub's 3299 offers pass 32, 64, ..., 1024 and the two 1024-steps
    2048 and 3072 (``s`` is 288 here)."""
    from repro.streams.transforms import shuffled

    graph = wheel_graph(3300)
    plan = plan_for(graph, 3)
    assert max(plan.s, 1024) == 1024
    stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(5)))
    triangles = list(enumerate_triangles(graph))

    def run():
        rng = random.Random(11)
        out = streaming_assignment(PassScheduler(stream), plan, rng, triangles, SpaceMeter())
        return [sorted(out.items())]

    return run


#: Vertex 0 and vertex 1 each make 31 offers before the row ``(0, 1)``,
#: which is then the 32nd offer of both; vertex 0's 31 include a self-loop
#: (two offers) and a repeated edge.  Afterwards 0 reaches 80 offers and 1
#: reaches 90, so both also cross 64.
def _hand_ordered_edges():
    zero = [(0, 0), (0, 10), (0, 10)] + [(0, w) for w in range(11, 38)]
    one = [(1, w) for w in range(50, 81)]
    edges = []
    for i in range(31):  # interleave the two vertices' first offers
        if i < len(zero):
            edges.append(zero[i])
        edges.append(one[i])
    edges.append((0, 1))
    edges += [(10, 11), (11, 12), (50, 51), (52, 53), (12, 37), (51, 80)]
    tail_zero = [(0, w) for w in range(100, 148)]
    tail_one = [(w, 1) for w in range(200, 258)]
    for i in range(max(len(tail_zero), len(tail_one))):
        edges += tail_zero[i : i + 1] + tail_one[i : i + 1]
    return edges


def _three_instance_case():
    """``drive_round(_assign_program)`` with k = 3 on the hand-ordered
    unvalidated stream; one instance tracks a vertex absent from the tape."""
    from repro.core.parallel import _assign_program, drive_round

    edges = _hand_ordered_edges()
    stream = InMemoryEdgeStream(edges, validate=False)
    plan = ParameterPlan.build(num_vertices=300, num_edges=len(edges), kappa=4, t_guess=400.0,
                               epsilon=0.25)
    assert plan.degree_cutoff > 90 and plan.s < 1024
    distinct = [
        {(0, 1, 10), (0, 10, 11), (0, 1, 37), (0, 12, 37)},
        {(0, 1, 50), (1, 50, 51), (0, 1, 10), (1, 51, 80)},
        {(0, 11, 12), (1, 52, 53), (0, 11, 999), (0, 1, 100)},
    ]

    rows = [np.array(sorted(triangles), dtype=np.int64) for triangles in distinct]

    def run():
        rngs = [random.Random(21 + j) for j in range(3)]
        meter = SpaceMeter()
        program = _assign_program(plan, rngs, rows, meter)
        out = drive_round(PassScheduler(stream), program)
        # Each instance's (triangle, assigned edge or None) pairs, in row
        # order: the items of the sorted dict the digest was recorded on.
        assigned = [
            [
                (tuple(t), tuple(edge) if ok else None)
                for t, edge, ok in zip(triangles.tolist(), edges.tolist(), mask.tolist())
            ]
            for triangles, (edges, mask) in zip(rows, out)
        ]
        return assigned + [meter.peak_breakdown()]

    return run


FLUSH_PINS = {
    "wheel-hub": (
        _wheel_hub_case,
        "4f768458bd4d1f28169872c874621915ed163e6003c1a1a441f4a80fa1217930",
    ),
    "three-instances": (
        _three_instance_case,
        "eacf29a66939c03e66faae768b6d566cd90dc9fdd37388d1f180984499e5d843",
    ),
}


@pytest.mark.parametrize("name", sorted(FLUSH_PINS))
def test_flush_schedule_pinned(name, monkeypatch):
    from repro.core import engine

    make_case, expected = FLUSH_PINS[name]
    run = make_case()
    seen = _record_closure_rows(monkeypatch)
    digests = set()
    for chunk in CHUNKS:
        for workers in (1, 2):
            seen.clear()
            with engine.engine_overrides(chunk_size=chunk, workers=workers):
                outputs = run()
            assert seen, "the case must reach pass 6"
            digests.add(digest((seen, outputs)))
    assert digests == {expected}
