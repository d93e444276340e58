"""Per-edge reference passes: the oracle for every NumPy pass plan.

Each estimator pass runs in ``src/`` as a vectorized
:class:`~repro.core.executor.PassPlan` (:mod:`repro.core.kernels`).  This
module keeps the same passes written the plain way - one interpreter
iteration per tape edge, dicts and lists instead of probes - so the plans
can be checked against an independent implementation rather than against
themselves:

* the **folds** (:class:`PositionFold` ... :class:`WatchFold`, plus
  :class:`OfferFold` for pass 5's flush schedule and :class:`CallbackFold`
  for the per-edge replays) each take one edge at a time;
  :func:`fold_stream` feeds them a stream directly;
* :class:`FoldPlan` runs any fold as an executor plan (identity kernel,
  per-row absorb in stream order), so a fold rides ``run_plan`` /
  ``run_plans`` at any chunk size and worker count like the real plans;
* the **reference plans** (``Reference*Plan``) wrap the folds behind the
  exact interface of their :mod:`repro.core.kernels` counterparts, and
  :func:`reference_engine` swaps them in for the duration of a ``with``
  block - every stage the estimator builds then runs on the per-edge
  folds, which is how whole estimates are compared against the plans.
  Algorithm 3's two passes run as the per-edge engine ran them, in place
  of their :mod:`repro.core.assignment` stages, so the array stages are
  checked against an independent path rather than against themselves:
  :func:`stage_neighbor_samples` replays every tape edge through an
  ``offer`` callback to one :class:`_Bundle` per (instance, vertex),
  which flushes by its own buffer length; :func:`stage_closure_hits`
  replays a watch table over each row's expanded slots (key building,
  self/zero-count filter, multiplicity weighting, space charge).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np
import pytest

from repro.core import assignment, kernels, parallel
from repro.core.estimator import NO_APEX
from repro.core.executor import PassPlan
from repro.core.stages import RoundStage, charge_prefilter
from repro.types import canonical_edge

Edge = Tuple[int, int]


class EdgeFold:
    """Per-edge fold protocol.

    ``edge(u, v)`` folds one tape edge; ``done()`` declares the rest of
    the tape dead (only consulted when :attr:`can_finish_early` is set,
    mirroring reference loops that scan the full tape).
    """

    can_finish_early = False

    def edge(self, u: int, v: int) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def done(self) -> bool:
        return False


class CallbackFold(EdgeFold):
    """Replay every tape edge to a per-edge callback (passes 5 and 6).

    The callback ignores untracked endpoints, so feeding it the whole tape
    is the reference behaviour of an incident-edge pass.
    """

    def __init__(self, visit) -> None:
        self._visit = visit

    def edge(self, u: int, v: int) -> None:
        self._visit(u, v)


class OfferFold(EdgeFold):
    """Pass 5: each tracked endpoint of an edge is offered the other one.

    A vertex holds its offers until there are
    ``max(32, min(seen, max(s, 1024)))`` of them (``seen`` counts the
    offers it already handed on), then hands them to ``flush(rank,
    offers, seen)`` - the buffer rule of :class:`_Bundle`, checked against
    the plan's precomputed flush points.
    """

    def __init__(self, tracked: np.ndarray, s: int, flush) -> None:
        self._rank = {v: i for i, v in enumerate(tracked.tolist())}
        self._cap = max(s, 1024)
        self._flush = flush
        self.degree = [0] * len(tracked)
        self.seen = [0] * len(tracked)
        self.held: List[List[int]] = [[] for _ in range(len(tracked))]

    def edge(self, u: int, v: int) -> None:
        for a, b in ((u, v), (v, u)):
            i = self._rank.get(a)
            if i is None:
                continue
            self.degree[i] += 1
            held = self.held[i]
            held.append(b)
            if len(held) >= max(32, min(self.seen[i], self._cap)):
                self._flush(i, np.asarray(held, dtype=np.int64), self.seen[i])
                self.seen[i] += len(held)
                held.clear()

    def counts(self) -> np.ndarray:
        return np.asarray(self.degree, dtype=np.int64)

    def tails(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        starts = np.cumsum([0] + [len(offers) for offers in self.held])
        offers = np.asarray([w for offers in self.held for w in offers], dtype=np.int64)
        return np.asarray(self.seen, dtype=np.int64), starts, offers


class PositionFold(EdgeFold):
    """Pass 1: serve pre-drawn stream positions."""

    can_finish_early = True

    def __init__(self, positions: np.ndarray) -> None:
        self._order = np.argsort(positions, kind="stable")
        self._wanted = positions[self._order].tolist()
        self._edges: List[Edge] = []  # the edge at each sorted position
        self._position = 0

    def edge(self, u: int, v: int) -> None:
        wanted, edges = self._wanted, self._edges
        while len(edges) < len(wanted) and wanted[len(edges)] == self._position:
            edges.append((u, v))
        self._position += 1

    def done(self) -> bool:
        return len(self._edges) == len(self._wanted)

    def rows(self) -> np.ndarray:
        assert self.done(), "stream ended with unserved sample positions"
        rows = np.empty((len(self._wanted), 2), dtype=np.int64)
        rows[self._order] = np.asarray(self._edges, dtype=np.int64).reshape(-1, 2)
        return rows


class TrackedDegreeFold(EdgeFold):
    """Pass 2: streaming degree counters for the tracked endpoints."""

    def __init__(self, ids: np.ndarray) -> None:
        self.tracked = dict.fromkeys(ids.tolist(), 0)

    def edge(self, u: int, v: int) -> None:
        tracked = self.tracked
        if u in tracked:
            tracked[u] += 1
        if v in tracked:
            tracked[v] += 1

    def counts(self) -> np.ndarray:
        return np.fromiter(self.tracked.values(), np.int64, count=len(self.tracked))


class NeighborServeFold(EdgeFold):
    """Pass 3: serve per-owner incident-stream positions."""

    can_finish_early = True

    def __init__(self, owners: np.ndarray, positions: np.ndarray) -> None:
        pending: Dict[int, List[Tuple[int, int]]] = {}
        for request, (owner, position) in enumerate(zip(owners.tolist(), positions.tolist())):
            pending.setdefault(owner, []).append((position, request))
        for entries in pending.values():
            entries.sort()
        self._pending = pending
        self._apexes = [NO_APEX] * len(owners)
        self._seen: Dict[int, int] = dict.fromkeys(pending, 0)
        self._cursor: Dict[int, int] = dict.fromkeys(pending, 0)
        self._unserved = len(owners)

    def edge(self, u: int, v: int) -> None:
        for owner, neighbor in ((u, v), (v, u)):
            entries = self._pending.get(owner)
            if entries is None:
                continue
            occurrence = self._seen[owner]
            self._seen[owner] = occurrence + 1
            at = self._cursor[owner]
            while at < len(entries) and entries[at][0] == occurrence:
                self._apexes[entries[at][1]] = neighbor
                at += 1
                self._unserved -= 1
            self._cursor[owner] = at

    def done(self) -> bool:
        return self._unserved == 0

    def apexes(self) -> np.ndarray:
        return np.asarray(self._apexes, dtype=np.int64)


class WatchFold(EdgeFold):
    """Passes 4 and 6: occurrence count of each watched canonical edge."""

    def __init__(self, keys: np.ndarray) -> None:
        self.index = {key: i for i, key in enumerate(map(tuple, keys.tolist()))}
        self.counts = np.zeros(len(keys), dtype=np.int64)

    def edge(self, u: int, v: int) -> None:
        i = self.index.get((u, v))
        if i is not None:
            self.counts[i] += 1


def fold_stream(stream, folds: List[EdgeFold]) -> None:
    """Feed one pass of ``stream`` to every fold, honoring early finishes."""
    active = list(folds)
    for u, v in stream:
        active = [fold for fold in active if not (fold.can_finish_early and fold.done())]
        if not active:
            return
        for fold in active:
            fold.edge(u, v)


def _rows_kernel(spec, start_row: int, rows: np.ndarray) -> np.ndarray:
    return rows


class FoldPlan(PassPlan):
    """A fold as an executor plan: identity kernel, per-row absorb."""

    name = "reference/fold"
    kernel = staticmethod(_rows_kernel)

    def __init__(self, fold: EdgeFold) -> None:
        self.fold = fold

    def spec(self) -> None:
        return None

    def absorb(self, partial: np.ndarray) -> None:
        fold = self.fold
        for u, v in partial.tolist():
            if self.finished():
                return
            fold.edge(u, v)

    def finished(self) -> bool:
        return self.fold.can_finish_early and self.fold.done()

    def result(self):
        return self.fold


class ReferencePositionCollectPlan(FoldPlan):
    def __init__(self, positions: np.ndarray) -> None:
        super().__init__(PositionFold(positions))

    def rows(self) -> np.ndarray:
        return self.fold.rows()


class ReferenceDegreeCountPlan(FoldPlan):
    def __init__(self, tracked_ids: np.ndarray) -> None:
        super().__init__(TrackedDegreeFold(tracked_ids))

    def result(self) -> np.ndarray:
        return self.fold.counts()


class ReferenceNeighborPositionPlan(FoldPlan):
    def __init__(self, owner_ids, request_owner_index, request_positions) -> None:
        super().__init__(NeighborServeFold(owner_ids[request_owner_index], request_positions))

    def result(self) -> np.ndarray:
        return self.fold.apexes()


class ReferenceWatchKeyPlan(FoldPlan):
    def __init__(self, keys: np.ndarray) -> None:
        super().__init__(WatchFold(keys))

    def result(self) -> np.ndarray:
        return self.fold.counts


class ReferenceIncidentEdgePlan(FoldPlan):
    def __init__(self, tracked_ids, s, flush) -> None:
        super().__init__(OfferFold(tracked_ids, s, flush))

    def result(self) -> np.ndarray:
        return self.fold.counts()

    def tails(self):
        return self.fold.tails()


class _Bundle:
    """``s`` independent single-item neighbor reservoirs for one vertex.

    The defining invariant: after ``k`` offers, the ``s`` slots are i.i.d.
    uniform samples of the ``k`` offered neighbors.  The bundle stores the
    slot multiset compressed - distinct ``values`` with slot ``counts``
    summing to ``s`` - and resolves buffered offers in batches: one
    ``Binomial`` thinning of the entries plus one ``Multinomial`` spread
    of the re-sampled slots over the batch.  A batch is flushed once it
    holds ``max(32, min(seen, max(s, 1024)))`` offers, and at the end of
    the pass (in bundle order).
    """

    def __init__(self, s: int) -> None:
        self.capacity = s
        self.values = np.empty(0, dtype=np.int64)
        self.counts = np.empty(0, dtype=np.int64)
        self._buffer: List[int] = []
        self._seen = 0

    def offer(self, neighbor: int, generator) -> None:
        """Offer the next neighbor to every slot independently."""
        buffer = self._buffer
        buffer.append(neighbor)
        if len(buffer) >= max(32, min(self._seen, max(self.capacity, 1024))):
            self.flush(generator)

    def flush(self, generator) -> None:
        """Resolve all buffered offers with one batched thinning + spread."""
        buffer = self._buffer
        c = len(buffer)
        if c == 0:
            return
        k0 = self._seen
        new_values = np.asarray(buffer, dtype=np.int64)
        spread = np.full(c, 1.0 / c)
        if k0 == 0:
            self.values = new_values
            self.counts = generator.multinomial(self.capacity, spread)
        else:
            kept = generator.binomial(self.counts, k0 / (k0 + c))
            adopted = int(self.capacity - kept.sum())
            new_counts = generator.multinomial(adopted, spread)
            values = np.concatenate((self.values, new_values))
            counts = np.concatenate((kept, new_counts))
            occupied = counts > 0
            self.values = values[occupied]
            self.counts = counts[occupied]
        self._seen = k0 + c
        buffer.clear()


def stage_neighbor_samples(tracked, bundle_ranks, generators, s, meter) -> RoundStage:
    """Pass 5 the per-edge way: every tape edge offered to its bundles.

    One :class:`_Bundle` per bundle id; every tracked endpoint of a tape
    edge bumps its degree and offers the other endpoint to each bundle on
    it, and each bundle flushes by its own buffer length.  ``finish()``
    flushes every bundle in bundle order and returns what the array stage
    returns: ``(degrees, values, counts)``.
    """
    charge_prefilter(meter, len(tracked))
    ids = tracked.tolist()
    degree = dict.fromkeys(ids, 0)
    bundles = [_Bundle(s) for _ in range(len(bundle_ranks))]
    by_vertex: Dict[int, List[int]] = {}
    for b, rank in enumerate(bundle_ranks.tolist()):
        by_vertex.setdefault(ids[rank], []).append(b)

    def offer(a: int, b: int) -> None:
        if a in degree:
            degree[a] += 1
            for i in by_vertex[a]:
                bundles[i].offer(b, generators[i])
        if b in degree:
            degree[b] += 1
            for i in by_vertex[b]:
                bundles[i].offer(a, generators[i])

    def finish():
        for bundle, generator in zip(bundles, generators):
            bundle.flush(generator)
        degrees = np.asarray(list(degree.values()), dtype=np.int64)
        return degrees, [b.values for b in bundles], [b.counts for b in bundles]

    return RoundStage(plan=FoldPlan(CallbackFold(offer)), finish=finish)


def stage_closure_hits(values, counts, others, meter) -> RoundStage:
    """Pass 6 the per-edge way: a watch table over the expanded slots.

    Each row's slot multiset is expanded with ``np.repeat``; every slot
    ``w`` other than the edge's own far endpoint watches the canonical
    edge ``(other, w)``, and each tape occurrence of a watched edge adds a
    hit to every watching slot's row.  Charges what the array stage
    charges: 2 words per watched edge plus 1 per watching slot, and the
    watched edges' prefilter.
    """
    watch: Dict[Edge, List[int]] = {}
    for row, (row_values, row_counts, other) in enumerate(zip(values, counts, others.tolist())):
        for w in np.repeat(row_values, row_counts).tolist():
            if w != other:  # the edge's own far endpoint: a miss
                watch.setdefault(canonical_edge(other, w), []).append(row)
    meter.allocate(2 * len(watch) + sum(map(len, watch.values())), "assignment-watch")
    charge_prefilter(meter, len(watch))
    hits = np.zeros(len(values), dtype=np.int64)

    def visit(u: int, v: int) -> None:
        for row in watch.get((u, v), ()):
            hits[row] += 1

    return RoundStage(plan=FoldPlan(CallbackFold(visit)), finish=lambda: hits)


#: ``repro.core.kernels`` plan name -> its per-edge reference.
REFERENCE_PLANS = {
    "PositionCollectPlan": ReferencePositionCollectPlan,
    "DegreeCountPlan": ReferenceDegreeCountPlan,
    "NeighborPositionPlan": ReferenceNeighborPositionPlan,
    "WatchKeyPlan": ReferenceWatchKeyPlan,
    "IncidentEdgePlan": ReferenceIncidentEdgePlan,
}


@contextmanager
def reference_engine() -> Iterator[None]:
    """Run every stage built inside the block on the per-edge folds."""
    with pytest.MonkeyPatch.context() as patch:
        for name, plan in REFERENCE_PLANS.items():
            patch.setattr(kernels, name, plan)
        # Algorithm 3's passes run per edge, in every module that looks
        # their stages up.
        for module in (assignment, parallel):
            patch.setattr(module, "stage_neighbor_samples", stage_neighbor_samples)
            patch.setattr(module, "stage_closure_hits", stage_closure_hits)
        yield
