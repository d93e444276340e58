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

* **the degree table** (pass 2) is shared - degrees are deterministic
  functions of the stream, so every instance reading the same table is
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
``assign=`` is the only way to replace it.

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

import random
from typing import Dict, Generator, Iterable, List, Optional, Tuple

from ..streams.base import EdgeStream
from ..streams.multipass import PassScheduler
from ..streams.space import SpaceMeter
from ..types import Edge, Triangle, Vertex, triangle_edges
from . import kernels
from .assignment import AssignHook, _Bundle, derive_sample_generator, stage_closure_hits
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
from .stages import RoundStage, charge_prefilter, sweep_stages

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
    scheduler = PassScheduler(stream, max_passes=PASS_BUDGET_PER_ROUND)
    return drive_round(scheduler, round_program(len(stream), plan, rngs, meter, assign))


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
    triangles without a pass in place of Algorithm 3.
    """
    k = len(rngs)
    if k < 1:
        raise ValueError("need at least one instance")
    if m != plan.num_edges:
        raise ValueError(f"stream has {m} edges but plan was built for {plan.num_edges}")
    # One derived sample source per instance, consumed in instance order at
    # every stage - cross-instance independence holds (see
    # derive_sample_generator).
    sources = [derive_sample_generator(rngs[j]) for j in range(k)]

    sampled = yield stage_pass1(plan.r, m, sources, meter)
    degrees = yield stage_pass2(sampled, meter)
    draws, owners, ells, d_rs = draw_weighted_edges(sampled, degrees, plan, sources, meter)
    apexes = yield stage_pass3(owners, degrees, sources, meter)
    closures = yield stage_closure(draws, owners, apexes, meter)

    # Per instance: each closed wedge's triangle and its drawn edge.
    closed_by_instance: List[Tuple[List[Triangle], List[Edge]]] = [
        (
            list(map(tuple, triangles[closed].tolist())),
            list(map(tuple, drawn[closed].tolist())),
        )
        for (triangles, closed), drawn in zip(closures, draws)
    ]
    distinct_by_instance: List[set] = [set(triangles) for triangles, _ in closed_by_instance]
    # One logical pass per stage yielded: the four above, plus Algorithm
    # 3's two when it runs (it runs none without a candidate triangle).
    passes_used = 4
    if assign is not None:
        assignments = [assign(distinct) if distinct else {} for distinct in distinct_by_instance]
    else:
        assignments = yield from _assign_program(plan, rngs, distinct_by_instance, meter)
        passes_used += 2 if any(distinct_by_instance) else 0

    results: List[SinglePassStackResult] = []
    for j, (triangles, edges) in enumerate(closed_by_instance):
        hits = sum(1 for t, edge in zip(triangles, edges) if assignments[j].get(t) == edge)
        y = hits / ells[j]
        estimate = (m / plan.r) * d_rs[j] * y
        results.append(
            SinglePassStackResult(
                estimate=estimate,
                r=plan.r,
                ell=ells[j],
                d_r=d_rs[j],
                wedges_closed=len(triangles),
                assigned_hits=hits,
                distinct_candidate_triangles=len(distinct_by_instance[j]),
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
    private sweep on ``scheduler``.  Draws from ``rng`` exactly as a round
    does at its assignment stage, and consumes no pass (and no
    randomness) when ``triangles`` is empty.
    """
    meter = meter if meter is not None else SpaceMeter()
    program = _assign_program(plan, [rng], [set(triangles)], meter)
    return drive_round(scheduler, program)[0]


def _assign_program(
    plan: ParameterPlan,
    rngs: List[random.Random],
    distinct_by_instance: List[set],
    meter: SpaceMeter,
) -> Generator[RoundStage, object, List[Dict[Triangle, Optional[Edge]]]]:
    """Passes 5-6: Algorithm 3 for every instance, sharing the two passes.

    Bundles and estimates are per (instance, vertex/edge) - instances stay
    independent; only the passes are shared.  Pass 6's watched keys are
    deduplicated *across* instances before the scan (two instances probing
    the same missing edge share one packed key; the hit count fans back
    out per (instance, edge) row - see
    :func:`~repro.core.assignment.stage_closure_hits`).  Skipped entirely
    (0 passes) when no instance found any triangle.
    """
    k = len(rngs)
    if not any(distinct_by_instance):
        return [{} for _ in range(k)]
    s = plan.s

    edges_by_instance: List[List[Edge]] = [
        sorted({f for t in distinct for f in triangle_edges(t)})
        for distinct in distinct_by_instance
    ]

    # Pass 5: degrees (shared table) + per-(instance, vertex) sample bundles.
    bundles: Dict[Tuple[int, Vertex], _Bundle] = {}
    degree: Dict[Vertex, int] = {}
    by_vertex: Dict[Vertex, List[Tuple[int, _Bundle]]] = {}
    for j in range(k):
        for f in edges_by_instance[j]:
            for endpoint in f:
                degree[endpoint] = 0
                key = (j, endpoint)
                if key not in bundles:
                    bundle = _Bundle(s)
                    bundles[key] = bundle
                    by_vertex.setdefault(endpoint, []).append((j, bundle))
    meter.allocate(s * len(bundles), "assignment-reservoirs")
    meter.allocate(len(degree), "assignment-degrees")
    # One vectorized sample generator per instance, derived in instance
    # order at this fixed point (see derive_sample_generator).
    sample_rngs = [derive_sample_generator(rngs[j]) for j in range(k)]

    def offer(a: Vertex, b: Vertex) -> None:
        if a in degree:
            degree[a] += 1
            for j, bundle in by_vertex[a]:
                bundle.offer(b, sample_rngs[j])
        if b in degree:
            degree[b] += 1
            for j, bundle in by_vertex[b]:
                bundle.offer(a, sample_rngs[j])

    charge_prefilter(meter, len(degree))
    yield RoundStage(plan=kernels.IncidentEdgePlan(degree, offer))
    for (j, _), bundle in bundles.items():  # deterministic construction order
        bundle.flush(sample_rngs[j])

    # Pass 6: closure watch per (instance, edge).  Heavy edges (degree over
    # the cutoff) get infinite estimates up front; the remaining light rows
    # are resolved by one closure-counting sweep.
    estimates: List[Dict[Edge, float]] = [dict() for _ in range(k)]
    light: List[Tuple[int, Edge]] = []
    light_others: List[Vertex] = []
    light_owners: List[Vertex] = []
    for j in range(k):
        for f in edges_by_instance[j]:
            u, v = f
            d_f = min(degree[u], degree[v])
            if d_f > plan.degree_cutoff:
                estimates[j][f] = float("inf")
                continue
            estimates[j][f] = 0.0
            owner = u if degree[u] < degree[v] else v
            light.append((j, f))
            light_owners.append(owner)
            light_others.append(v if owner == u else u)
    bundle_rows = [bundles[(j, owner)] for (j, _), owner in zip(light, light_owners)]
    hit_counts = yield stage_closure_hits(bundle_rows, light_others, meter)
    for (j, f), hit_count in zip(light, hit_counts):
        u, v = f
        estimates[j][f] = min(degree[u], degree[v]) * hit_count / s

    # Resolve per instance with the canonical tie-break.
    out: List[Dict[Triangle, Optional[Edge]]] = []
    for j in range(k):
        resolved: Dict[Triangle, Optional[Edge]] = {}
        for t in sorted(distinct_by_instance[j]):
            best = min(triangle_edges(t), key=lambda f: (estimates[j][f], f))
            resolved[t] = None if estimates[j][best] > plan.assignment_cutoff else best
        out.append(resolved)
    return out
