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
``stage_pass45``): each returns the :class:`~repro.core.stages.RoundStage`
one sweep of the tape must serve.  Every stage is multi-instance - ``k``
independent Algorithm 2 instances share each sweep (the paper's parallel
accounting) - and :func:`~repro.core.parallel.round_program` strings them
into a round; :func:`run_single_estimate` is its ``k = 1`` case.  On the
chunked engines a stage is a set of
:class:`~repro.core.executor.PassPlan` objects executed - serially or
on several threads - by the shared executor spine; on the
pure-Python engine the reference per-edge folds below run instead.  All
of them are seed-for-seed bit-identical.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..sampling.discrete import CumulativeSampler
from ..streams.base import EdgeStream
from ..streams.space import SpaceMeter
from ..types import Edge, Triangle, Vertex, canonical_edge, canonical_triangle
from .assignment import Assigner, SampleSource
from .params import ParameterPlan
from .stages import EdgeFold, RoundStage, charge_prefilter

AssignerFactory = Callable[[ParameterPlan, random.Random, SpaceMeter], Assigner]

#: Theorem 5.1's constant-pass budget: one guessing round - however many
#: parallel instances it carries - opens at most six logical passes.  The
#: round runners budget their schedulers with it directly; the driver
#: budgets ``6 * k`` for a window of ``k`` speculative rounds.
PASS_BUDGET_PER_ROUND = 6

#: Opaque per-draw key used by the shared passes: ``(instance, slot)``.
DrawKey = Tuple[int, int]


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
    #: Physical tape sweeps consumed (== ``passes_used`` unfused; strictly
    #: smaller when the fused sweep engine grouped passes - see
    #: :func:`repro.core.executor.run_plans`).
    sweeps_used: int = 0

    def to_state(self) -> dict:
        """The run as a JSON-representable document (snapshot payload)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_state(cls, state: dict) -> "SinglePassStackResult":
        """Rebuild a run from :meth:`to_state` output, bit-for-bit.

        Every field is a plain int or float and JSON round-trips floats
        exactly (repr-based encoding), so a restored run compares equal
        to the original.
        """
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in state.items() if key in names})


def run_single_estimate(
    stream: EdgeStream,
    plan: ParameterPlan,
    rng: random.Random,
    meter: Optional[SpaceMeter] = None,
    assigner_factory: Optional[AssignerFactory] = None,
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
    assigner_factory:
        Replaces the streaming Algorithm 3 with an assigner that consumes
        no passes (``passes_required == 0``); tests and the ablations
        inject :class:`~repro.core.assignment.ExactAssigner` here to
        isolate Algorithm 2's error from Algorithm 3's.  Such runs never
        fuse passes 4 and 5 (there is no pass 5 to fuse).
    """
    from .parallel import run_parallel_estimates

    meter = meter if meter is not None else SpaceMeter()
    assign = None
    if assigner_factory is not None:
        assigner = assigner_factory(plan, rng, meter)
        if assigner.passes_required:
            raise ValueError("an injected assigner must consume no passes")

        def assign(triangles):
            return assigner.assign(None, triangles)

    return run_parallel_estimates(stream, plan, [rng], meter, assign=assign)[0]


def _neighborhood_owner(e: Edge, vertex_degree: Dict[Vertex, int]) -> Vertex:
    """Owner of ``N(e)``: the lower-degree endpoint (Section 3 convention).

    ``N(e) = N(u)`` if ``d_u < d_v``, else ``N(v)`` - so ties go to the
    canonical second endpoint, exactly as in the paper's definition.
    """
    u, v = e
    return u if vertex_degree[u] < vertex_degree[v] else v


# ---------------------------------------------------------------------------
# the shared multi-instance passes (k instances, one sweep each), each
# expressed as a stage builder (build the request, run the sweep, finish)


class _PositionSlotsFold(EdgeFold):
    """Pass-1 fold: serve pre-drawn stream positions (Python engine)."""

    can_finish_early = True

    __slots__ = ("_slots_by_position", "_filled", "_remaining", "_position")

    def __init__(self, slots_by_position: Dict[int, list], total: int) -> None:
        self._slots_by_position = slots_by_position
        self._filled: dict = {}
        self._remaining = total
        self._position = 0

    def edge(self, u: Vertex, v: Vertex) -> None:
        slots = self._slots_by_position.get(self._position)
        if slots:
            edge = (u, v)
            for key in slots:
                self._filled[key] = edge
            self._remaining -= len(slots)
        self._position += 1

    def done(self) -> bool:
        return self._remaining == 0

    def result(self) -> dict:
        assert self._remaining == 0, "stream ended with unserved sample positions"
        return self._filled


def stage_pass1(
    r: int, m: int, sources: List, meter: SpaceMeter, chunked: bool
) -> RoundStage:
    """Build the pass-1 stage: ``r`` i.i.d. uniform edges per instance.

    Positions are pre-drawn in instance-then-slot order on every engine, so
    the per-instance variate streams stay aligned; the sweep abandons once
    every slot is served (the scheduler counts abandoned passes exactly
    like consumed ones).
    """
    k = len(sources)
    meter.allocate(2 * r * k, "R")
    if isinstance(sources[0], SampleSource):
        import numpy as np

        positions = np.concatenate(
            [(sources[j].uniforms(r) * m).astype(np.int64) for j in range(k)]
        )
        if chunked:
            from . import kernels

            plan = kernels.PositionCollectPlan(positions)

            def finish_chunked() -> List[List[Edge]]:
                flat = plan.result()
                return [flat[j * r : (j + 1) * r] for j in range(k)]

            return RoundStage(plans=[plan], finish=finish_chunked)
        position_list = positions.tolist()
    else:  # pragma: no cover - exercised only without NumPy
        position_list = [sources[j].randrange(m) for j in range(k) for _ in range(r)]
    slots_by_position: Dict[int, List[DrawKey]] = {}
    for flat_slot, position in enumerate(position_list):
        slots_by_position.setdefault(position, []).append(divmod(flat_slot, r))
    fold = _PositionSlotsFold(slots_by_position, r * k)

    def finish() -> List[List[Edge]]:
        filled = fold.result()
        return [[filled[(j, slot)] for slot in range(r)] for j in range(k)]

    return RoundStage(fold=fold, finish=finish)


class _TrackedDegreeFold(EdgeFold):
    """Pass-2 fold: streaming degree counters for the tracked endpoints."""

    __slots__ = ("tracked",)

    def __init__(self, tracked: Dict[Vertex, int]) -> None:
        self.tracked = tracked

    def edge(self, u: Vertex, v: Vertex) -> None:
        tracked = self.tracked
        if u in tracked:
            tracked[u] += 1
        if v in tracked:
            tracked[v] += 1


def stage_pass2(
    sampled: List[List[Edge]], meter: SpaceMeter, chunked: bool
) -> RoundStage:
    """Build the pass-2 stage: one shared degree table for all endpoints.

    Degrees are deterministic functions of the stream, so every instance
    reading the same table is exact, not a statistical shortcut.
    """
    tracked: Dict[Vertex, int] = {}
    for instance in sampled:
        for u, v in instance:
            tracked[u] = 0
            tracked[v] = 0
    meter.allocate(len(tracked), "degrees")
    charge_prefilter(meter, len(tracked))
    if chunked:
        import numpy as np

        from . import kernels

        ids = np.array(sorted(tracked), dtype=np.int64)
        plan = kernels.DegreeCountPlan(ids)
        return RoundStage(
            plans=[plan],
            finish=lambda: dict(zip(ids.tolist(), plan.result().tolist())),
        )
    fold = _TrackedDegreeFold(tracked)
    return RoundStage(fold=fold, finish=lambda: fold.tracked)


def draw_weighted_edges(
    sampled: List[List[Edge]],
    degree: Dict[Vertex, int],
    plan: ParameterPlan,
    sources: List,
    meter: SpaceMeter,
) -> Tuple[List[List[Edge]], List[List[Vertex]], List[int], List[float]]:
    """Offline step between passes 2 and 3: the ``d_e``-proportional draws.

    Per instance: resolve ``ell`` from the realized ``d_R`` (Lemma 5.7),
    draw ``ell`` indices of ``R`` proportional to ``d_e``, and precompute
    each draw's neighborhood owner.  Returns ``(draws, owners, ells, d_rs)``
    indexed by instance.
    """
    draws: List[List[Edge]] = []
    owners: List[List[Vertex]] = []
    ells: List[int] = []
    d_rs: List[float] = []
    for j, instance in enumerate(sampled):
        weights = [float(min(degree[u], degree[v])) for u, v in instance]
        d_r = sum(weights)
        ell = plan.ell(d_r)
        sampler = CumulativeSampler(weights)
        if isinstance(sources[j], SampleSource):
            slots = sampler.draw_many_from_uniforms(sources[j].uniforms(ell))
        else:  # pragma: no cover - exercised only without NumPy
            slots = sampler.draw_many(sources[j], ell)
        instance_draws = [instance[slot] for slot in slots]
        draws.append(instance_draws)
        owners.append([_neighborhood_owner(e, degree) for e in instance_draws])
        ells.append(ell)
        d_rs.append(d_r)
        meter.allocate(2 * ell, "draws")
    return draws, owners, ells, d_rs


class _NeighborServeFold(EdgeFold):
    """Pass-3 fold: serve per-owner incident-stream positions."""

    can_finish_early = True

    __slots__ = ("_pending", "_served", "_seen", "_cursor", "_unserved")

    def __init__(self, pending: Dict[Vertex, list]) -> None:
        for entries in pending.values():
            entries.sort()
        self._pending = pending
        self._served: dict = {}
        self._seen: Dict[Vertex, int] = {owner: 0 for owner in pending}
        self._cursor: Dict[Vertex, int] = {owner: 0 for owner in pending}
        self._unserved = sum(len(entries) for entries in pending.values())

    def edge(self, u: Vertex, v: Vertex) -> None:
        for owner, neighbor in ((u, v), (v, u)):
            entries = self._pending.get(owner)
            if entries is None:
                continue
            occurrence = self._seen[owner]
            self._seen[owner] = occurrence + 1
            at = self._cursor[owner]
            while at < len(entries) and entries[at][0] == occurrence:
                self._served[entries[at][1]] = neighbor
                at += 1
                self._unserved -= 1
            self._cursor[owner] = at

    def done(self) -> bool:
        return self._unserved == 0

    def result(self) -> dict:
        return self._served


def stage_pass3(
    owners: List[List[Vertex]],
    degree: Dict[Vertex, int],
    sources: List,
    meter: SpaceMeter,
    chunked: bool,
) -> RoundStage:
    """Build the pass-3 stage: per-draw uniform neighbor samples.

    Every owner is an endpoint of a pass-1 edge, so its exact degree is
    already on hand from pass 2 - a uniform neighbor therefore needs no
    reservoir: each draw pre-draws a uniform *position* in its owner's
    incident sub-stream from its instance's own sample source (preserving
    cross-instance independence) and the scan just captures the neighbors
    at the requested positions.  No randomness is consumed mid-pass, and
    the pass is abandoned once every draw is served.  The chunked engines
    resolve the (owner, occurrence) events entirely vectorized
    (:class:`~repro.core.kernels.NeighborPositionPlan`); results are
    identical across engines by construction.
    """
    k = len(sources)
    total_draws = sum(len(instance_owners) for instance_owners in owners)
    distinct_owners = {owner for instance_owners in owners for owner in instance_owners}
    meter.allocate(total_draws + len(distinct_owners), "neighbor-reservoirs")
    charge_prefilter(meter, len(distinct_owners))
    vectorized = isinstance(sources[0], SampleSource) if sources else False
    if vectorized:
        import numpy as np

        position_lists = []
        for j in range(k):
            degrees = np.fromiter(
                (degree[o] for o in owners[j]), np.int64, count=len(owners[j])
            )
            position_lists.append(
                (sources[j].uniforms(len(owners[j])) * degrees).astype(np.int64)
            )
        if chunked:
            from . import kernels

            owner_ids = np.asarray(sorted(distinct_owners), dtype=np.int64)
            flat_owners = np.asarray(
                [owner for instance_owners in owners for owner in instance_owners],
                dtype=np.int64,
            )
            owner_index = np.searchsorted(owner_ids, flat_owners)
            plan = kernels.NeighborPositionPlan(
                owner_ids, owner_index, np.concatenate(position_lists)
            )

            def finish_chunked() -> List[List[Optional[Vertex]]]:
                found = plan.result()
                apexes = []
                at = 0
                for j in range(k):
                    row = found[at : at + len(owners[j])].tolist()
                    apexes.append([None if w < 0 else int(w) for w in row])
                    at += len(owners[j])
                return apexes

            return RoundStage(plans=[plan], finish=finish_chunked)
        positions = [p.tolist() for p in position_lists]
    else:  # pragma: no cover - exercised only without NumPy
        positions = [
            [sources[j].randrange(degree[o]) for o in owners[j]] for j in range(k)
        ]
    pending: Dict[Vertex, List[Tuple[int, DrawKey]]] = {}
    for j, instance_owners in enumerate(owners):
        for i, owner in enumerate(instance_owners):
            pending.setdefault(owner, []).append((positions[j][i], (j, i)))
    fold = _NeighborServeFold(pending)

    def finish() -> List[List[Optional[Vertex]]]:
        served = fold.result()
        return [
            [served.get((j, i)) for i in range(len(owners[j]))]
            for j in range(len(owners))
        ]

    return RoundStage(fold=fold, finish=finish)


def _closure_watch_tables(
    draws: List[List[Edge]],
    owners: List[List[Vertex]],
    apexes: List[List[Optional[Vertex]]],
    meter: SpaceMeter,
) -> Tuple[Dict[Edge, List[DrawKey]], List[List[Optional[Triangle]]]]:
    """The pass-4 watch table and per-draw wedge triangles (no scan yet).

    For a draw with edge ``(u, v)`` and apex ``w`` sampled from the owner's
    neighborhood, the only missing edge is (other endpoint, ``w``).  The
    watch table is keyed by that missing edge, so overlapping watches
    across instances collapse to *one* unique-key scan; hits fan back out
    to every ``(instance, draw)`` watcher.
    """
    watch: Dict[Edge, List[DrawKey]] = {}
    wedges: List[List[Optional[Triangle]]] = [
        [None] * len(draws[j]) for j in range(len(draws))
    ]
    for j in range(len(draws)):
        for i, ((u, v), owner, w) in enumerate(zip(draws[j], owners[j], apexes[j])):
            if w is None:
                continue
            other = v if owner == u else u
            if w == other:
                continue  # sampled the edge's own endpoint; not a wedge
            wedges[j][i] = canonical_triangle(u, v, w)
            watch.setdefault(canonical_edge(other, w), []).append((j, i))
    meter.allocate(2 * len(watch) + sum(len(v) for v in watch.values()), "closure-watch")
    charge_prefilter(meter, len(watch))
    return watch, wedges


def _fan_out_closure(
    closed: Dict[DrawKey, bool],
    wedges: List[List[Optional[Triangle]]],
    draws: List[List[Edge]],
) -> List[List[Optional[Triangle]]]:
    """The closed triangle per draw (``None`` for open wedges)."""
    return [
        [wedges[j][i] if closed.get((j, i)) else None for i in range(len(draws[j]))]
        for j in range(len(draws))
    ]


class _WatchFold(EdgeFold):
    """Pass-4 fold: mark watched missing edges seen anywhere on the tape."""

    __slots__ = ("watch", "closed")

    def __init__(self, watch: Dict[Edge, List[DrawKey]]) -> None:
        self.watch = watch
        self.closed: Dict[DrawKey, bool] = {}

    def edge(self, u: Vertex, v: Vertex) -> None:
        for key in self.watch.get((u, v), ()):
            self.closed[key] = True


class _FusedWatchCollectFold(EdgeFold):
    """Fused pass-4/5 fold: closure watch plus wedge-superset buffering."""

    __slots__ = ("watch", "closed", "superset", "incident")

    def __init__(self, watch: Dict[Edge, List[DrawKey]], superset: set) -> None:
        self.watch = watch
        self.closed: Dict[DrawKey, bool] = {}
        self.superset = superset
        self.incident: list = []

    def edge(self, u: Vertex, v: Vertex) -> None:
        for key in self.watch.get((u, v), ()):
            self.closed[key] = True
        if u in self.superset or v in self.superset:
            self.incident.append((u, v))


def _stage_watch_scan(
    watch: Dict[Edge, List[DrawKey]],
    wedges: List[List[Optional[Triangle]]],
    draws: List[List[Edge]],
    chunked: bool,
) -> RoundStage:
    """One dedicated pass-4 watch scan over prebuilt tables (one pass)."""
    if chunked:
        from . import kernels

        plan = kernels.WatchKeyPlan(list(watch))

        def finish_chunked() -> List[List[Optional[Triangle]]]:
            closed: Dict[DrawKey, bool] = {}
            for found in plan.result():
                for key in watch[found]:
                    closed[key] = True
            return _fan_out_closure(closed, wedges, draws)

        return RoundStage(plans=[plan], finish=finish_chunked)
    fold = _WatchFold(watch)
    return RoundStage(
        fold=fold, finish=lambda: _fan_out_closure(fold.closed, wedges, draws)
    )


def stage_pass4(
    draws: List[List[Edge]],
    owners: List[List[Vertex]],
    apexes: List[List[Optional[Vertex]]],
    meter: SpaceMeter,
    chunked: bool,
) -> RoundStage:
    """Build the pass-4 stage: resolve which wedges ``{e, w}`` close.

    See :func:`_closure_watch_tables` for the watch-table construction and
    the cross-instance dedup.  ``finish()`` is the closed triangle per
    draw, or ``None``.
    """
    watch, wedges = _closure_watch_tables(draws, owners, apexes, meter)
    return _stage_watch_scan(watch, wedges, draws, chunked)


def stage_pass45(
    draws: List[List[Edge]],
    owners: List[List[Vertex]],
    apexes: List[List[Optional[Vertex]]],
    meter: SpaceMeter,
    chunked: bool,
) -> RoundStage:
    """Fused passes 4+5: closure watch and incident collection, one sweep.

    The assignment stage (pass 5) replays the edges incident to the
    candidate triangles' vertices - a set only known once pass 4 resolves
    which wedges closed.  Fusing the two is still exact because the
    replayed fold ignores untracked endpoints: this sweep *buffers* the
    edges incident to every **wedge** vertex (a superset of every possible
    candidate vertex, fixed before the sweep), and the caller replays the
    buffer through the pass-5 per-edge logic after closure is known.  The
    replayed sequence - and therefore every degree counter and every
    sample bundle's RNG consumption - is identical to what a dedicated
    pass-5 sweep would have produced, so estimates are bit-identical to
    unfused execution; the speculative buffer (metered as
    ``fused-incident-buffer``) is the space this trades for one fewer
    sweep of the tape.

    Sweep accounting: a round whose wedges close saves exactly one sweep
    (6 instead of 6 unfused passes over 5 sweeps).  A round with wedges
    but no closures charges the speculative pass-5 logical pass without
    saving a sweep (unfused execution would have skipped passes 5-6
    entirely); a round with no wedges at all falls back to the plain
    pass-4 scan and speculates nothing.  Fused sweeps per estimate are
    therefore never more than unfused, and strictly fewer as soon as any
    round finds a candidate triangle.

    ``finish()`` returns ``(candidates, incident_rows)`` where
    ``incident_rows`` is the buffered incident sequence in stream order
    (``(k, 2)`` blocks on the chunked engines, edge tuples on the Python
    path) for :func:`replay_incident_rows` - or ``None`` when nothing was
    speculated.
    """
    watch, wedges = _closure_watch_tables(draws, owners, apexes, meter)
    superset = {
        endpoint for row in wedges for t in row if t is not None for endpoint in t
    }
    if not watch:
        # No wedges at all: there is nothing pass 5 could ever track, so
        # speculating would charge a logical pass for provably dead work.
        # Run the plain pass-4 scan (which resolves to "no candidates")
        # and let the caller skip the assignment stage, exactly like
        # unfused execution does on such rounds.
        base = _stage_watch_scan(watch, wedges, draws, chunked)
        return RoundStage(
            plans=base.plans,
            fold=base.fold,
            passes=base.passes,
            finish=lambda: (base.finish(), None),
        )
    charge_prefilter(meter, len(superset))
    if chunked:
        from . import kernels

        watch_plan = kernels.WatchKeyPlan(list(watch))
        collect_plan = kernels.IncidentCollectPlan(superset)

        def finish_chunked():
            closed: Dict[DrawKey, bool] = {}
            for key_edge in watch_plan.result():
                for key in watch[key_edge]:
                    closed[key] = True
            incident = collect_plan.result()
            meter.allocate(
                2 * sum(len(block) for block in incident), "fused-incident-buffer"
            )
            return _fan_out_closure(closed, wedges, draws), incident

        return RoundStage(plans=[watch_plan, collect_plan], finish=finish_chunked)
    fused_fold = _FusedWatchCollectFold(watch, superset)

    def finish():
        meter.allocate(2 * len(fused_fold.incident), "fused-incident-buffer")
        return _fan_out_closure(fused_fold.closed, wedges, draws), fused_fold.incident

    return RoundStage(fold=fused_fold, passes=2, finish=finish)
