"""Section 5: Algorithm 2 - the six-pass triangle estimator.

One Algorithm 2 instance produces one sample of the random variable ``X``
from Algorithm 2 line 13.  The pass layout matches Theorem 5.1's six
passes:

====  =====================================================================
pass  work
====  =====================================================================
1     sample ``r`` i.i.d. uniform edges ``R`` (with replacement; the stream
      length ``m`` is known, so the i.i.d. sample is drawn by pre-selecting
      ``r`` uniform positions and collecting them in one sweep)
2     compute the degree of every endpoint of ``R`` by streaming counters
      (at most ``2r`` of them), giving ``d_e = min(d_u, d_v)`` per edge
 -    (offline) resolve ``ell`` from the realized ``d_R`` (Lemma 5.7) and
      draw ``ell`` indices of ``R`` proportional to ``d_e``
3     for each draw, sample ``w`` uniformly from ``N(e)`` - a single-item
      reservoir over the sub-stream of edges incident to the lower-degree
      endpoint of ``e``
4     check which wedges ``{e, w}`` close triangles by watching for the one
      missing edge of each wedge
5-6   Algorithm 3 (:mod:`repro.core.assignment`) resolves
      ``Assignment(tau)`` for all distinct candidate triangles (Section 5.1);
      skipped entirely when pass 4 found no triangles
====  =====================================================================

The estimate is ``X = (m / r) * d_R * Y`` with ``Y`` the fraction of draws
whose triangle was assigned to the drawn edge (Algorithm 2 line 13).

This module holds the passes as *stage builders* (``stage_pass1`` ...
``stage_pass3``, :func:`stage_closure`): each returns the
:class:`~repro.core.stages.RoundStage` one sweep of the tape must serve.
Every stage is multi-instance - ``k`` independent Algorithm 2 instances
share each sweep (the paper's parallel accounting) - and
:func:`~repro.core.parallel.round_program` strings them into a round;
:func:`run_single_estimate` is its ``k = 1`` case.  A stage is a set of
pass plans (:mod:`repro.core.kernels`) executed - serially or on several
threads, bit-identically - by the shared executor spine.  The per-edge
folds in ``tests/reference_passes.py`` are each pass's reference oracle.

Between sweeps the round state is NumPy arrays: ``R`` is a ``(k, r, 2)``
array, pass 2 finishes into each of its endpoints' degrees (the same
shape), and the draws, owners, owner degrees and apexes are per-instance
arrays (:data:`NO_APEX` for an unserved draw).  The closure watch is the
sorted unique missing edges plus each watching draw's key index, and
pass 4 finishes, per instance, into the sorted ``(ell, 3)`` wedge
triangles and a closed mask.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..sampling.discrete import CumulativeSampler
from ..streams.base import EdgeStream
from ..streams.space import SpaceMeter
from ..types import canonical_triangle
from . import kernels
from .assignment import AssignHook, SampleSource
from .params import ParameterPlan
from .stages import RoundStage, charge_prefilter

#: Theorem 5.1's constant-pass budget: one guessing round - however many
#: parallel instances it carries - opens at most six logical passes.
#: :func:`~repro.core.parallel.round_program` checks it for every driver:
#: a seventh stage raises :class:`~repro.errors.PassBudgetExceeded`.
PASS_BUDGET_PER_ROUND = 6

#: A draw's apex when its pass-3 position was never served.
NO_APEX = -1


@dataclass(frozen=True)
class SinglePassStackResult:
    """Diagnostics of one Algorithm 2 invocation.

    ``estimate`` is the sample of ``X``; the remaining fields expose the
    run's internals for the experiment harness (realized ``d_R``, resolved
    ``ell``, how many wedges closed, how many closed wedges were assigned to
    the drawn edge, pass count, and peak space).
    """

    estimate: float
    r: int
    ell: int
    d_r: float
    wedges_closed: int
    assigned_hits: int
    distinct_candidate_triangles: int
    passes_used: int
    space_words_peak: int

    def to_state(self) -> dict:
        """The run as a JSON-representable document (snapshot payload)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_state(cls, state: dict) -> "SinglePassStackResult":
        """Rebuild a run from :meth:`to_state` output, bit-for-bit.

        Every field is a plain int or float and JSON round-trips floats
        exactly (repr-based encoding), so a restored run compares equal
        to the original.  Unknown keys are ignored, so payloads that
        still carry a dropped field (such as ``sweeps_used``) load.
        """
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in state.items() if key in names})


def run_single_estimate(
    stream: EdgeStream,
    plan: ParameterPlan,
    rng: random.Random,
    meter: Optional[SpaceMeter] = None,
    assign: Optional[AssignHook] = None,
) -> SinglePassStackResult:
    """Run Algorithm 2 once and return one sample of ``X`` with diagnostics.

    The ``k = 1`` case of :func:`~repro.core.parallel.run_parallel_estimates`.

    Parameters
    ----------
    stream:
        The input edge stream (length must equal ``plan.num_edges``).
    plan:
        Resolved parameters (see :class:`~repro.core.params.ParameterPlan`).
    rng:
        Randomness for all sampling steps.
    meter:
        Space meter to charge; a fresh unlimited one is created if omitted.
    assign:
        Replaces the streaming Algorithm 3 (passes 5-6) with a hook that
        consumes no pass; tests and the ablations pass
        :func:`~repro.core.assignment.exact_assignment` here to isolate
        Algorithm 2's error from Algorithm 3's.
    """
    from .parallel import run_parallel_estimates

    return run_parallel_estimates(stream, plan, [rng], meter, assign=assign)[0]


# ---------------------------------------------------------------------------
# the shared multi-instance passes (k instances, one sweep each), each
# expressed as a stage builder (build the request, run the sweep, finish)


def _split(values: np.ndarray, sizes: Sequence[int]) -> List[np.ndarray]:
    """Cut a flat per-draw array back into per-instance pieces."""
    return np.split(values, np.cumsum(sizes)[:-1])


def stage_pass1(r: int, m: int, sources: List[SampleSource], meter: SpaceMeter) -> RoundStage:
    """Build the pass-1 stage: ``r`` i.i.d. uniform edges per instance.

    Positions are pre-drawn in instance-then-slot order, so the
    per-instance variate streams stay aligned; the sweep abandons once
    every slot is served (the scheduler counts abandoned passes exactly
    like consumed ones).  ``finish()`` is ``R`` as a ``(k, r, 2)`` array.
    """
    k = len(sources)
    meter.allocate(2 * r * k, "R")
    positions = np.concatenate([(source.uniforms(r) * m).astype(np.int64) for source in sources])
    plan = kernels.PositionCollectPlan(positions)
    return RoundStage(plan=plan, finish=lambda: plan.rows().reshape(k, r, 2))


def stage_pass2(sampled: np.ndarray, meter: SpaceMeter) -> RoundStage:
    """Build the pass-2 stage: one shared degree count for all endpoints.

    Degrees are deterministic functions of the stream, so every instance
    reading the same counts is exact, not a statistical shortcut.
    ``finish()`` is each endpoint's degree, shaped like ``sampled``.
    """
    ids, index = kernels.sorted_unique(sampled.reshape(-1), return_inverse=True)
    # Held through the sweep: the narrowest dtype keeps the peak RSS down.
    index = index.astype(np.min_scalar_type(len(ids)))
    meter.allocate(len(ids), "degrees")
    charge_prefilter(meter, len(ids))
    plan = kernels.DegreeCountPlan(ids)
    return RoundStage(plan=plan, finish=lambda: plan.result()[index].reshape(sampled.shape))


def draw_weighted_edges(
    sampled: np.ndarray,
    degrees: np.ndarray,
    plan: ParameterPlan,
    sources: List[SampleSource],
    meter: SpaceMeter,
) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray], List[int], List[float]]:
    """Offline step between passes 2 and 3: the ``d_e``-proportional draws.

    Per instance: resolve ``ell`` from the realized ``d_R`` (Lemma 5.7),
    draw ``ell`` indices of ``R`` proportional to ``d_e``, and precompute
    each draw's neighborhood owner - the lower-degree endpoint, ties going
    to the second one (``N(e) = N(u)`` if ``d_u < d_v``, else ``N(v)``,
    the Section 3 convention) - and its degree ``d_e``.  Returns
    ``(draws, owners, owner_degrees, ells, d_rs)`` indexed by instance:
    ``(ell, 2)``, ``(ell,)`` and ``(ell,)`` arrays, ints, floats.
    """
    weights = degrees.min(axis=2)
    draws: List[np.ndarray] = []
    owners: List[np.ndarray] = []
    owner_degrees: List[np.ndarray] = []
    ells: List[int] = []
    d_rs: List[float] = []
    for j, source in enumerate(sources):
        sampler = CumulativeSampler(weights[j])
        d_r = sampler.total_weight
        ell = plan.ell(d_r)
        slots = sampler.draw_many_from_uniforms(source.uniforms(ell))
        drawn = sampled[j][slots]
        drawn_degrees = degrees[j][slots]
        draws.append(drawn)
        owners.append(np.where(drawn_degrees[:, 0] < drawn_degrees[:, 1], drawn[:, 0], drawn[:, 1]))
        owner_degrees.append(weights[j][slots])
        ells.append(ell)
        d_rs.append(d_r)
        meter.allocate(2 * ell, "draws")
    return draws, owners, owner_degrees, ells, d_rs


def stage_pass3(
    owners: List[np.ndarray],
    owner_degrees: List[np.ndarray],
    sources: List[SampleSource],
    meter: SpaceMeter,
) -> RoundStage:
    """Build the pass-3 stage: per-draw uniform neighbor samples.

    Every owner is an endpoint of a pass-1 edge, so its exact degree
    (``owner_degrees``) is already on hand from pass 2 - a uniform
    neighbor therefore needs no reservoir: each draw pre-draws a uniform
    *position* in its owner's incident sub-stream from its instance's own
    sample source (preserving cross-instance independence) and the scan
    just captures the neighbors at the requested positions.  No randomness
    is consumed mid-pass, and the pass is abandoned once every draw is
    served.  The (owner, occurrence) events resolve entirely vectorized
    (:class:`~repro.core.kernels.NeighborPositionPlan`).  ``finish()`` is,
    per instance, the apex of each draw (:data:`NO_APEX` when unserved).
    """
    sizes = [len(instance_owners) for instance_owners in owners]
    requests = np.concatenate(owners)
    owner_ids, owner_index = kernels.sorted_unique(requests, return_inverse=True)
    meter.allocate(len(requests) + len(owner_ids), "neighbor-reservoirs")
    charge_prefilter(meter, len(owner_ids))
    positions = np.concatenate(
        [
            (source.uniforms(len(degrees)) * degrees).astype(np.int64)
            for source, degrees in zip(sources, owner_degrees)
        ]
    )
    plan = kernels.NeighborPositionPlan(owner_ids, owner_index, positions)
    return RoundStage(plan=plan, finish=lambda: _split(plan.result(), sizes))


def stage_closure(
    draws: List[np.ndarray],
    owners: List[np.ndarray],
    apexes: List[np.ndarray],
    meter: SpaceMeter,
) -> RoundStage:
    """Build the pass-4 stage: which wedges ``{e, w}`` close.

    For a draw with edge ``(u, v)`` and apex ``w`` sampled from the owner's
    neighborhood, the only missing edge is (other endpoint, ``w``).  The
    watch is keyed by that missing edge, so overlapping watches across
    instances collapse to *one* unique-key scan; hits fan back out to
    every watching draw.  One :class:`~repro.core.kernels.WatchKeyPlan`,
    the edge-watch plan pass 6 also runs, counts how often each missing
    edge occurs on the tape; a wedge closes when its missing edge occurs
    at all.  ``finish()`` is, per instance, the sorted ``(ell, 3)`` wedge
    triangle of each draw (meaningful for wedges only) and the mask of
    draws whose wedge closed.
    """
    drawn = np.concatenate(draws)
    owner = np.concatenate(owners)
    apex = np.concatenate(apexes)
    u, v = drawn[:, 0], drawn[:, 1]
    other = np.where(owner == u, v, u)
    # No apex, or the edge's own endpoint sampled: not a wedge.
    wedge = (apex != NO_APEX) & (apex != other)
    triangles = np.sort(np.column_stack((u, v, apex)), axis=1)
    repeated = wedge & (
        (triangles[:, 0] == triangles[:, 1]) | (triangles[:, 1] == triangles[:, 2])
    )
    if repeated.any():
        at = int(np.argmax(repeated))
        canonical_triangle(int(u[at]), int(v[at]), int(apex[at]))  # raises GraphError
    watchers = np.flatnonzero(wedge)
    missing = np.sort(np.column_stack((other[watchers], apex[watchers])), axis=1)
    keys, inverse = kernels.unique_edge_rows(missing)
    meter.allocate(2 * len(keys) + len(watchers), "closure-watch")
    charge_prefilter(meter, len(keys))
    sizes = [len(instance_draws) for instance_draws in draws]
    plan = kernels.WatchKeyPlan(keys)

    def finish() -> List[Tuple[np.ndarray, np.ndarray]]:
        closed = np.zeros(len(triangles), dtype=bool)
        closed[watchers] = plan.result()[inverse] > 0
        return list(zip(_split(triangles, sizes), _split(closed, sizes)))

    return RoundStage(plan=plan, finish=finish)
