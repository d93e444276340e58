"""Running many Algorithm 2 instances in parallel over six shared passes.

The paper's model runs all of its independent basic estimators *in
parallel*: Theorem 5.1's "six passes" covers the entire ensemble, and the
space bound covers the sum of all copies.  This module keeps that
accounting: :func:`run_parallel_estimates` executes ``k`` independent
instances over exactly six shared passes.

The pass implementations themselves live in :mod:`repro.core.estimator`
(``stage_pass1`` ... ``stage_pass3``, ``stage_closure``) - they are
multi-instance by construction, pass their state between sweeps as NumPy
arrays, and the single runner
(:func:`~repro.core.estimator.run_single_estimate`) is this module's
``k = 1`` case, so every runner rides the same executor spine (on one or
more threads) with no duplicated pass loops.

Sharing rules (what may be shared without breaking independence):

* **the degree counts** (pass 2) are shared - degrees are deterministic
  functions of the stream, so every instance reading the same counts is
  exact, not a statistical shortcut;
* **the scans** (passes 4 and 6) are shared per *unique watched key*:
  instances watch overlapping closure edges, so the tape is scanned once
  against the deduplicated key set and hits fan back out per instance -
  the packed-key scan cost is per unique key, not per instance;
* **everything random** (pass-1 positions, the ``d_e``-proportional draws,
  neighbor reservoirs, assignment sample bundles) is kept strictly
  per-instance, driven by that instance's own RNG - instances remain
  mutually independent, as the median-of-runs combiner requires.

The assignment stage (:func:`_assign_program`) is Algorithm 3 for every
instance at once, with bundles keyed by ``(instance, vertex)``, and the
only code that runs it: :func:`streaming_assignment` drives it alone at
``k = 1``, and an :data:`~repro.core.assignment.AssignHook` passed as
``assign=`` is the only way to replace it.  Both map an instance's
sorted unique candidate triangle rows to assigned edge rows and a mask,
so from pass 2 to the hit count a round's state is arrays.

The whole round is expressed as a **round program**
(:func:`round_program`): a generator that yields one
:class:`~repro.core.stages.RoundStage` per tape sweep it needs and
receives the stage's result back, returning the per-instance results when
done.  :func:`run_parallel_estimates` drives one program with one private
sweep per stage, while the guessing loop
(:func:`repro.core.driver.estimate_program`, through
:func:`repro.core.speculate.window_program`) drives the programs of ``k``
*independent guessing rounds* in lockstep, merging their same-numbered
stages into single shared sweeps.  The program neither knows nor cares
which runner drives it, which is what keeps speculative execution
bit-identical to sequential execution at any depth.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, Generator, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import PassBudgetExceeded
from ..streams.base import EdgeStream
from ..streams.multipass import PassScheduler
from ..streams.space import SpaceMeter
from ..types import Edge, Triangle, canonical_triangle
from . import kernels
from .assignment import (
    AssignHook,
    derive_sample_generator,
    stage_closure_hits,
    stage_neighbor_samples,
    unassigned,
)
from .estimator import (
    PASS_BUDGET_PER_ROUND,
    SinglePassStackResult,
    draw_weighted_edges,
    stage_closure,
    stage_pass1,
    stage_pass2,
    stage_pass3,
)
from .params import ParameterPlan
from .stages import RoundStage, sweep_stages

#: A round program: yields the stages it needs, receives each stage's
#: ``finish()`` value back, and returns the per-instance results.
RoundProgram = Generator[RoundStage, object, List[SinglePassStackResult]]


def run_parallel_estimates(
    stream: EdgeStream,
    plan: ParameterPlan,
    rngs: List[random.Random],
    meter: Optional[SpaceMeter] = None,
    assign: Optional[AssignHook] = None,
) -> List[SinglePassStackResult]:
    """Run ``len(rngs)`` independent Algorithm 2 instances in six passes.

    Returns one :class:`SinglePassStackResult` per instance; every result
    reports the *shared* pass count (at most 6) and the ensemble's peak
    space (the paper's accounting - parallel copies coexist in memory).
    ``assign`` replaces passes 5-6 (see :func:`round_program`).
    """
    meter = meter if meter is not None else SpaceMeter()
    return drive_round(PassScheduler(stream), round_program(len(stream), plan, rngs, meter, assign))


def drive_round(
    scheduler: PassScheduler, program: RoundProgram
) -> List[SinglePassStackResult]:
    """Drive one round program, one private sweep per stage."""
    try:
        stage = next(program)
        while True:
            sweep_stages(scheduler, [stage])
            stage = program.send(stage.finish())
    except StopIteration as stop:
        return stop.value


def _budgeted(body):
    """Theorem 5.1's budget on a round program, whoever drives it: a stage
    past :data:`~repro.core.estimator.PASS_BUDGET_PER_ROUND` raises
    :class:`~repro.errors.PassBudgetExceeded`."""

    @functools.wraps(body)
    def program(*args, **kwargs) -> RoundProgram:
        stages = body(*args, **kwargs)
        try:
            stage = next(stages)
            for _ in range(PASS_BUDGET_PER_ROUND):
                stage = stages.send((yield stage))
        except StopIteration as stop:
            return stop.value
        finally:
            stages.close()
        raise PassBudgetExceeded(f"a round opened more than {PASS_BUDGET_PER_ROUND} passes")

    return program


@_budgeted
def round_program(
    m: int,
    plan: ParameterPlan,
    rngs: List[random.Random],
    meter: SpaceMeter,
    assign: Optional[AssignHook] = None,
) -> RoundProgram:
    """One guessing-loop round (``k`` parallel instances) as a stage program.

    Yields one :class:`~repro.core.stages.RoundStage` per tape sweep the
    round needs; the driver executes the stage's sweep (private, or shared
    with another round's stage) and sends ``stage.finish()`` back.  The
    returned results carry the round's *own* accounting - ``passes_used``
    is the logical passes this round charged, one per stage it rode -
    regardless of whether the driver shared the physical traversals.

    ``assign`` (the ablations' hook) resolves each instance's candidate
    triangles without a pass in place of Algorithm 3.  The six-pass
    budget is checked for every driver (:func:`_budgeted`).
    """
    if not rngs:
        raise ValueError("need at least one instance")
    if m != plan.num_edges:
        raise ValueError(f"stream has {m} edges but plan was built for {plan.num_edges}")
    # One derived sample source per instance, consumed in instance order at
    # every stage - cross-instance independence holds (see
    # derive_sample_generator).
    sources = [derive_sample_generator(rng) for rng in rngs]

    sampled = yield stage_pass1(plan.r, m, sources, meter)
    degrees = yield stage_pass2(sampled, meter)
    draws, owners, owner_degrees, ells, d_rs = draw_weighted_edges(
        sampled, degrees, plan, sources, meter
    )
    apexes = yield stage_pass3(owners, owner_degrees, sources, meter)
    closures = yield stage_closure(draws, owners, apexes, meter)

    # Per instance: the closed wedges' drawn edges, their distinct
    # triangles as sorted rows, and each closed wedge's row among them.
    drawn_edges = [drawn[closed] for (_, closed), drawn in zip(closures, draws)]
    candidates, wedge_rows = zip(*(kernels.unique_rows(t[closed]) for t, closed in closures))
    # One logical pass per stage yielded: the four above, plus Algorithm
    # 3's two when it runs (it runs none without a candidate triangle).
    passes_used = 4
    if assign is not None:
        assignments = [assign(rows) if len(rows) else unassigned(rows) for rows in candidates]
    else:
        assignments = yield from _assign_program(plan, rngs, list(candidates), meter)
        passes_used += 2 if any(map(len, candidates)) else 0

    results: List[SinglePassStackResult] = []
    for j, ((edges, assigned), rows) in enumerate(zip(assignments, wedge_rows)):
        hits = int(np.count_nonzero(assigned[rows] & (edges[rows] == drawn_edges[j]).all(axis=1)))
        y = hits / ells[j]
        results.append(
            SinglePassStackResult(
                estimate=(m / plan.r) * d_rs[j] * y,
                r=plan.r,
                ell=ells[j],
                d_r=d_rs[j],
                wedges_closed=len(rows),
                assigned_hits=hits,
                distinct_candidate_triangles=len(candidates[j]),
                passes_used=passes_used,
                space_words_peak=meter.peak_words,
            )
        )
    return results


def streaming_assignment(
    scheduler: PassScheduler,
    plan: ParameterPlan,
    rng: random.Random,
    triangles: Iterable[Triangle],
    meter: Optional[SpaceMeter] = None,
) -> Dict[Triangle, Optional[Edge]]:
    """Algorithm 3 alone: assign every distinct triangle in two passes.

    The ``k = 1`` case of :func:`_assign_program`, each stage run as a
    private sweep on ``scheduler``, its rows turned into a dict (``None``
    = unassigned).  Triangles are canonicalised first
    (:func:`~repro.types.canonical_triangle`, which rejects repeated
    vertices), so the keys are sorted vertex triples.  Draws from ``rng``
    exactly as a round does at its assignment stage, and consumes no pass
    (and no randomness) when ``triangles`` is empty.
    """
    meter = meter if meter is not None else SpaceMeter()
    rows = np.array([canonical_triangle(*t) for t in triangles], dtype=np.int64)
    distinct = kernels.unique_rows(rows.reshape(-1, 3))[0]
    edges, assigned = drive_round(scheduler, _assign_program(plan, [rng], [distinct], meter))[0]
    return {
        tuple(t): (tuple(edge) if ok else None)
        for t, edge, ok in zip(distinct.tolist(), edges.tolist(), assigned.tolist())
    }


#: The edges ``(a, b), (a, c), (b, c)`` of a sorted triangle ``(a, b, c)``,
#: as column pairs - in ascending edge order.
_TRIANGLE_EDGES = np.array([[0, 1], [0, 2], [1, 2]])


def _assign_program(
    plan: ParameterPlan,
    rngs: List[random.Random],
    triangles_by_instance: List[np.ndarray],
    meter: SpaceMeter,
) -> Generator[RoundStage, object, List[Tuple[np.ndarray, np.ndarray]]]:
    """Passes 5-6: Algorithm 3 for every instance, sharing the two passes.

    Maps each instance's sorted unique triangle rows to an
    :data:`~repro.core.assignment.AssignHook`'s result: edge rows and mask.
    Sample bundles and estimates are per (instance, vertex/edge) -
    instances stay independent; only the passes are shared.  Pass 5
    samples every bundle (:func:`~repro.core.assignment.stage_neighbor_samples`);
    pass 6's watched keys are deduplicated *across* instances before the
    scan (two instances probing the same missing edge share one packed
    key; the hit count fans back out per (instance, edge) row - see
    :func:`~repro.core.assignment.stage_closure_hits`).  Skipped entirely
    (0 passes) when no instance found any triangle.
    """
    if not any(map(len, triangles_by_instance)):
        return [unassigned(rows) for rows in triangles_by_instance]
    s = plan.s

    # Per instance: its sorted distinct edges, each triangle's three edge
    # indices, and one bundle per endpoint vertex in order of first
    # appearance among the edges (the bundles' construction order, which
    # the end-of-pass flushes follow).
    edges_by_instance, edge_index, bundle_vertices = [], [], []
    for rows in triangles_by_instance:
        edges, inverse = kernels.unique_edge_rows(rows[:, _TRIANGLE_EDGES].reshape(-1, 2))
        edges_by_instance.append(edges)
        edge_index.append(inverse.reshape(-1, 3))
        endpoints = edges.reshape(-1)
        bundle_vertices.append(endpoints[np.sort(np.unique(endpoints, return_index=True)[1])])
    sizes = [len(vertices) for vertices in bundle_vertices]
    bundle_offsets = np.cumsum([0] + sizes)
    bundle_vertex = np.concatenate(bundle_vertices)
    tracked = kernels.sorted_unique(bundle_vertex)

    # Pass 5: degrees (shared table) + per-(instance, vertex) sample bundles.
    meter.allocate(s * len(bundle_vertex), "assignment-reservoirs")
    meter.allocate(len(tracked), "assignment-degrees")
    # One vectorized sample generator per instance, derived in instance
    # order at this fixed point (see derive_sample_generator).
    sample_rngs = [derive_sample_generator(rng).generator for rng in rngs]
    generators = [generator for generator, size in zip(sample_rngs, sizes) for _ in range(size)]
    degree, values, counts = yield stage_neighbor_samples(
        tracked, np.searchsorted(tracked, bundle_vertex), generators, s, meter
    )

    # Pass 6: closure watch per (instance, edge).  Heavy edges (degree over
    # the cutoff) get infinite estimates; the remaining light rows are
    # resolved by one closure-counting sweep, on the samples of their
    # owner: the lower-degree endpoint, ties to the second.
    light_rows, light_degree, light_bundles, light_others = [], [], [], []
    for j, edges in enumerate(edges_by_instance):
        du, dv = degree[np.searchsorted(tracked, edges)].T
        light = np.flatnonzero(np.minimum(du, dv) <= plan.degree_cutoff)
        du, dv, (u, v) = du[light], dv[light], edges[light].T
        owner = np.where(du < dv, u, v)
        vertices = bundle_vertices[j]
        by_vertex = np.argsort(vertices)
        owner_bundle = by_vertex[np.searchsorted(vertices, owner, sorter=by_vertex)]
        light_rows.append(light)
        light_degree.append(np.minimum(du, dv))
        light_bundles.append(bundle_offsets[j] + owner_bundle)
        light_others.append(np.where(du < dv, v, u))
    rows = np.concatenate(light_bundles).tolist()
    hit_counts = yield stage_closure_hits(
        [values[b] for b in rows], [counts[b] for b in rows], np.concatenate(light_others), meter
    )

    # Resolve per instance with the canonical tie-break: the least
    # (estimate, edge) is the first least estimate of a triangle's three
    # edges, which _TRIANGLE_EDGES lists in ascending order.
    out: List[Tuple[np.ndarray, np.ndarray]] = []
    at = 0
    for j, edges in enumerate(edges_by_instance):
        light = light_rows[j]
        estimates = np.full(len(edges), np.inf)
        estimates[light] = light_degree[j] * hit_counts[at : at + len(light)] / s
        at += len(light)
        per_triangle = estimates[edge_index[j]]
        best = np.argmin(per_triangle, axis=1)
        picked = np.arange(len(best))
        assigned = per_triangle[picked, best] <= plan.assignment_cutoff
        out.append((edges[edge_index[j][picked, best]], assigned))
    return out
