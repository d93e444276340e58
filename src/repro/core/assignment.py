"""Section 5.1: Algorithm 3 - ``IsAssigned`` / ``Assignment`` in the stream.

A triangle should be assigned to its contained edge with the fewest
triangles (smallest ``t_e``) - but ``t_e`` is unknown in the stream, so
Algorithm 3 *estimates* it: for each edge ``f`` of the triangle, draw ``s``
uniform members of ``N(f)`` and count how many close a triangle with ``f``,
giving ``Y_f = (d_f / s) * (closed count)`` with ``E[Y_f] = t_f``.  Two
guard rails keep everything inside the space budget:

* edges with ``d_f`` above the *degree cutoff* ``m*kappa^2/(eps^2*T)`` get
  ``Y_f = infinity`` (line 9; estimating their ``t_f`` would need too many
  samples);
* if even the minimum estimate exceeds the *assignment cutoff*
  ``kappa/(2*eps)`` the triangle is left unassigned (line 18; such "heavy"
  triangles carry at most ``2*eps*T`` triangles in total by Lemma 5.12).

The procedure runs *batched*: Algorithm 2 discovers all of its candidate
triangles in pass 4, then one assignment stage
(:func:`repro.core.parallel._assign_program`, the only code that runs
Algorithm 3; :func:`repro.core.parallel.streaming_assignment` drives it
alone at ``k = 1``) resolves every ``Assignment(tau)`` simultaneously in
two further passes (passes 5 and 6 of the overall six-pass estimator):

* pass 5 (:func:`stage_neighbor_samples`) counts the degree of every
  vertex appearing in a candidate triangle *and*, for each endpoint of a
  candidate edge, reservoir-samples ``s`` i.i.d. members of that
  endpoint's neighborhood (both endpoints are sampled because the
  lower-degree one - whose neighborhood is ``N(f)`` - is only identified
  once degrees are known, at the end of the pass);
* pass 6 counts how often the closing edge of every sampled wedge occurs
  on the tape, through the same edge-watch plan as pass 4
  (:class:`~repro.core.kernels.WatchKeyPlan`).

Two implementation choices worth flagging against the paper's pseudocode:

* **memoization granularity**: the paper memoizes ``Assignment`` per
  triangle; we additionally share each edge's ``Y_f`` estimate across all
  candidate triangles containing it, and share the ``s`` neighborhood
  samples across all candidate edges owned by the same vertex.  Every
  property of Definition 5.2 is proved per-edge (heavy edges receive
  nothing, light edges of good triangles win) by a Chernoff bound on that
  edge's own samples plus a union bound - no independence *across* edges
  is used - so both sharings preserve the analysis while cutting space and
  time by the multiplicity factors.
* **i.i.d. neighborhood samples**: each of the ``s`` sample slots is an
  independent single-item reservoir.  Updating ``s`` slots per incident
  stream edge naively costs ``O(s)``; a *bundle* (one per instance and
  vertex) keeps the slot multiset in counts form and resolves the
  offers it is made in batches (:func:`_resolve`), for
  ``O(min(d, s) log d)`` total work per bundle instead of ``O(s * d)``.
  The batches follow one per-vertex **flush schedule**: every bundle on a
  vertex sees the same offers, so they all resolve at the vertex's offer
  counts ``p0 = 0``, ``p(i+1) = p(i) + max(32, min(p(i), max(s, 1024)))``
  (:func:`~repro.core.kernels.flush_points`) and once more at the end of
  the pass, in bundle order.  The pass-5 plan holds each vertex's offers
  once, whatever the number of bundles on it, and runs no Python per
  offer; each instance's generator is consumed in the stream order of
  the points its bundles reach.

An :data:`AssignHook` replaces Algorithm 3 without a pass.
:func:`exact_assignment` is the test/benchmark hook that applies the
ideal min-``t_e`` rule using ground-truth counts from the graph substrate.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..graph.adjacency import Graph
from ..graph.triangles import min_te_assignment
from ..streams.space import SpaceMeter
from . import kernels


#: A zero-pass replacement for Algorithm 3, in its shape: one instance's
#: sorted unique ``(n, 3)`` candidate triangle rows -> their ``(n, 2)``
#: assigned edge rows and ``(n,)`` "assigned" mask.
AssignHook = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _resolve(generator, s: int, values, counts, offers: np.ndarray, seen: int, spread):
    """One bundle's ``(values, counts)`` after resolving its held ``offers``.

    The bundle's ``s`` slots are i.i.d. uniform samples of the ``seen``
    offers before these (distinct-or-not ``values`` with slot ``counts``
    summing to ``s``).  With ``c`` more offers each slot independently
    re-samples from them with probability ``c / (seen + c)``: in counts
    form, one ``Binomial(count_i, seen / (seen + c))`` thinning of the
    entries plus one ``Multinomial`` spread of the re-sampled slots over
    the ``c`` offers - exactly the slot-level distribution, at
    ``O(entries + c)`` cost instead of ``O(s)``.  A first resolution keeps
    zero-count entries; later ones drop them.  ``spread`` is
    ``np.full(c, 1 / c)``.
    """
    c = len(offers)
    if seen == 0:
        return offers, generator.multinomial(s, spread)
    kept = generator.binomial(counts, seen / (seen + c))
    adopted = int(s - kept.sum())
    values = np.concatenate((values, offers))
    counts = np.concatenate((kept, generator.multinomial(adopted, spread)))
    occupied = counts > 0
    return values[occupied], counts[occupied]


def stage_neighbor_samples(
    tracked: np.ndarray,
    bundle_ranks: np.ndarray,
    generators: List,
    s: int,
    meter: SpaceMeter,
) -> "RoundStage":
    """Build the pass-5 stage: every bundle's ``s`` neighbor samples.

    Bundle ``b`` holds ``s`` independent single-item reservoirs over the
    neighbors of vertex ``tracked[bundle_ranks[b]]``, drawing its variates
    from ``generators[b]``; bundle ids are in construction order.  One
    :class:`~repro.core.kernels.IncidentEdgePlan` counts every tracked
    vertex's offers and, at each of its flush points, hands the offers
    held since the last one to every bundle on the vertex (:func:`_resolve`).
    The flush points depend on the vertex alone, since all its bundles
    see the same offers, so each generator is consumed in the stream
    order of the points it reaches.  ``finish()`` resolves every bundle's
    remaining offers, in bundle order, and returns ``(degrees, values,
    counts)``: each tracked vertex's degree, and each bundle's sampled
    values with their slot counts.
    """
    from .stages import RoundStage, charge_prefilter

    ranks = bundle_ranks.tolist()
    values: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * len(ranks)
    counts: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * len(ranks)
    on_vertex: List[List[int]] = [[] for _ in range(len(tracked))]
    for b, rank in enumerate(ranks):
        on_vertex[rank].append(b)
    spreads: Dict[int, np.ndarray] = {}

    def resolve(b: int, offers: np.ndarray, seen: int) -> None:
        c = len(offers)
        spread = spreads.get(c)
        if spread is None:
            spread = spreads[c] = np.full(c, 1.0 / c)
        values[b], counts[b] = _resolve(
            generators[b], s, values[b], counts[b], offers, seen, spread
        )

    def flush(rank: int, offers: np.ndarray, seen: int) -> None:
        for b in on_vertex[rank]:
            resolve(b, offers, seen)

    charge_prefilter(meter, len(tracked))
    plan = kernels.IncidentEdgePlan(tracked, s, flush)

    def finish() -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
        seen, starts, offers = plan.tails()
        seen, starts = seen.tolist(), starts.tolist()
        for b, rank in enumerate(ranks):
            if starts[rank + 1] > starts[rank]:
                resolve(b, offers[starts[rank] : starts[rank + 1]], seen[rank])
        return plan.result(), values, counts

    return RoundStage(plan=plan, finish=finish)


def stage_closure_hits(
    values: List[np.ndarray],
    counts: List[np.ndarray],
    others: np.ndarray,
    meter: SpaceMeter,
) -> "RoundStage":
    """Build the pass-6 closure-counting stage.

    Row ``i`` pairs one light candidate edge's owner samples - distinct
    ``values[i]`` with slot ``counts[i]`` - with the edge's far endpoint
    ``others[i]``; ``finish()`` counts, per row, how many of the sampled
    wedges close on the tape.  Always charges exactly one pass, even with
    no rows (the pass budget accounting of the six-pass layout does not
    depend on the candidate set).

    The watched keys are built entry-wise over the ragged concatenation
    of all rows - ``O(sum_f min(d_f, s))`` work - and one
    :class:`~repro.core.kernels.WatchKeyPlan` scan counts each key's
    occurrences.  A row's hits weight each key's count by its slot
    multiplicity: occurrence-weighted, not presence-based, so repeated
    edges on unvalidated tapes count the way the per-edge reference
    counts them over the expanded slots.
    """
    from .stages import RoundStage, charge_prefilter

    lengths = np.fromiter(map(len, values), np.int64, count=len(values))
    empty = [np.empty(0, dtype=np.int64)]
    entry_values = np.concatenate(values + empty)
    entry_counts = np.concatenate(counts + empty)
    entry_rows = np.repeat(np.arange(len(values), dtype=np.int64), lengths)
    entry_others = np.repeat(np.asarray(others, dtype=np.int64), lengths)
    # Drop entries the expanded slots never watch: samples equal to the
    # edge's own far endpoint, and zero-multiplicity values (a bundle's
    # first flush multinomial may leave zero-count entries; they carry no
    # watchers, so keeping them would only inflate the key set and its
    # space accounting).
    valid = (entry_values != entry_others) & (entry_counts > 0)
    entry_values = entry_values[valid]
    entry_others = entry_others[valid]
    entry_rows = entry_rows[valid]
    entry_counts = entry_counts[valid]
    keys, inverse = kernels.unique_edge_rows(
        np.column_stack(
            (np.minimum(entry_values, entry_others), np.maximum(entry_values, entry_others))
        )
    )
    # 2 words per distinct watched edge plus 1 per watcher entry (slot
    # multiplicities included).
    meter.allocate(2 * len(keys) + int(entry_counts.sum()), "assignment-watch")
    charge_prefilter(meter, len(keys))
    plan = kernels.WatchKeyPlan(keys)

    def finish() -> np.ndarray:
        hits = np.bincount(
            entry_rows, weights=entry_counts * plan.result()[inverse], minlength=len(values)
        )
        return hits.astype(np.int64)

    return RoundStage(plan=plan, finish=finish)


class SampleSource:
    """Blocked uniform variates over one :class:`numpy.random.Generator`.

    A run's stages draw their uniforms here - pass 1's stream positions,
    the weighted edge draws and pass 3's neighbor positions - as zero-copy
    slices of 16k-variate blocks, sparing per-call ``Generator`` overhead.
    Assignment bundles draw their ``binomial``/``multinomial`` variates
    from :attr:`generator` at flush time.  Consumption order is
    deterministic given the stage and flush sequence, which is the same
    at any chunk size and thread count.
    """

    __slots__ = ("_gen", "_block", "_pos")

    BLOCK = 1 << 14

    def __init__(self, gen) -> None:
        self._gen = gen
        self._block = None
        self._pos = 0

    def uniforms(self, n: int):
        """Return the next ``n`` uniform [0, 1) variates as an array view."""
        block = self._block
        if block is None or self._pos + n > len(block):
            self._block = block = self._gen.random(max(self.BLOCK, n))
            self._pos = 0
        out = block[self._pos : self._pos + n]
        self._pos += n
        return out

    @property
    def generator(self):
        """The backing generator, for non-uniform draws (binomial etc.)."""
        return self._gen


def derive_sample_generator(rng: random.Random):
    """Derive the vectorized sample source for one run's bundles.

    Draws exactly one 64-bit value from ``rng`` and seeds a
    :class:`SampleSource` from it, so the stdlib RNG stream advances by
    the same amount however the source is consumed afterwards.
    """
    return SampleSource(np.random.default_rng(rng.getrandbits(64)))


def unassigned(triangles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The assignment hook that leaves every triangle unassigned."""
    return np.zeros((len(triangles), 2), dtype=np.int64), np.zeros(len(triangles), dtype=bool)


def _row_keys(rows) -> np.ndarray:
    """One structured key per ``(n, 3)`` row, ordered like the row tuples."""
    rows = np.ascontiguousarray(rows, dtype=np.int64).reshape(-1, 3)
    return rows.view([("a", np.int64), ("b", np.int64), ("c", np.int64)]).reshape(-1)


def exact_assignment(graph: Graph) -> AssignHook:
    """The ideal min-``t_e`` rule as an assignment hook.

    Looks each candidate row up in the exact rule of the graph substrate
    (:func:`~repro.graph.triangles.min_te_assignment`), so it never leaves
    a triangle unassigned and consumes no pass; a row that is no triangle
    of ``graph`` raises ``KeyError``.  Tests and the ablations pass it as
    ``assign=`` to isolate Algorithm 2's sampling error from Algorithm 3's
    estimation error.
    """
    rule = min_te_assignment(graph)
    order = sorted(rule)
    keys = _row_keys(order)
    edges = np.array([rule[t] for t in order], dtype=np.int64).reshape(-1, 2)

    def hook(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        query = _row_keys(rows)
        at = np.searchsorted(keys, query)
        if not len(keys) or (keys.take(at, mode="clip") != query).any():
            raise KeyError("a candidate is not a triangle of the graph")
        return edges[at], np.ones(len(rows), dtype=bool)

    return hook
