"""Exact triangle counting and the ground-truth assignment rule.

Three exact counters are provided:

* :func:`count_triangles` - degree-oriented wedge checking in the
  Chiba-Nishizeki style, vectorized with NumPy.  Runs in
  ``O(sum_e min(d_u, d_v)) = O(m * kappa)`` (Lemma 3.1), which is the very
  bound the paper's space analysis rests on.
* :func:`count_triangles_node_iterator` - classic wedge-checking per vertex,
  kept as an independent implementation for cross-checking.
* :func:`enumerate_triangles` - out-wedge closure along a degeneracy
  ordering; yields each triangle exactly once.

The module also computes the per-edge triangle counts ``t_e`` and the
paper's *ideal assignment rule* (Section 4 / Section 5.1): assign every
triangle to its contained edge with the fewest triangles, breaking ties
consistently (:func:`min_te_assignment`).  Algorithm 3
(:func:`~repro.core.parallel.streaming_assignment`) approximates this
rule in the stream; :func:`~repro.core.assignment.exact_assignment` hands
the exact one computed here to the estimator as its assignment hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator

import numpy as np

from ..types import Edge, Triangle, canonical_edge, triangle_edges
from .adjacency import Graph
from .degeneracy import degeneracy_ordering


#: Flush wedge batches to the membership test once they reach this many
#: candidate pairs; bounds peak memory of the vectorized counter at a few
#: hundred MB-independent of graph size.
_WEDGE_BATCH = 1 << 22


def count_triangles(graph: Graph) -> int:
    """Exact triangle count via degree-oriented wedge checking (vectorized).

    Orients every edge from its lower-``(degree, id)`` endpoint to the
    higher one - the same orientation behind the Chiba-Nishizeki
    ``O(sum_e min(d_u, d_v)) = O(m * kappa)`` bound of Lemma 3.1 - so each
    triangle becomes exactly one out-wedge at its lowest-ranked vertex.
    The wedges are enumerated per out-degree class with NumPy (one
    ``triu_indices`` expansion per class) and closed by a packed-key
    membership test against the sorted edge array.
    """
    if graph.num_edges == 0:
        return 0
    csr = graph.csr()
    n = csr.num_vertices
    deg = csr.degrees
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)

    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    dst = csr.indices
    # CSR rows are sorted, so every undirected edge appears once with
    # src < dst; pack those canonical pairs as lo*n + hi (fits int64).
    undirected = src < dst
    edge_keys = src[undirected] * n + dst[undirected]
    edge_keys.sort()

    forward = rank[dst] > rank[src]
    out_src, out_dst = src[forward], dst[forward]
    out_counts = np.bincount(out_src, minlength=n)
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_counts, out=out_indptr[1:])

    total = 0
    for d in np.unique(out_counts):
        d = int(d)
        if d < 2:
            continue
        centers = np.flatnonzero(out_counts == d)
        pairs_per_center = d * (d - 1) // 2
        step = max(1, _WEDGE_BATCH // pairs_per_center)
        ii, jj = np.triu_indices(d, k=1)
        for at in range(0, len(centers), step):
            block = centers[at : at + step]
            gather = out_indptr[block][:, None] + np.arange(d)[None, :]
            mat = out_dst[gather]
            # Row blocks inherit the CSR sort, so mat[:, ii] < mat[:, jj]
            # elementwise - the wedge keys are already canonical.
            keys = (mat[:, ii] * n + mat[:, jj]).ravel()
            idx = np.searchsorted(edge_keys, keys)
            np.minimum(idx, len(edge_keys) - 1, out=idx)
            total += int(np.count_nonzero(edge_keys[idx] == keys))
    return total


def count_triangles_node_iterator(graph: Graph) -> int:
    """Exact triangle count via per-vertex wedge checking.

    Independent of :func:`count_triangles`; used as a cross-check in tests.
    Each triangle ``{a, b, c}`` is counted once, at its lowest-id vertex,
    by checking adjacency of every neighbor pair with larger ids.
    """
    total = 0
    for v in graph.vertices():
        nbrs = [w for w in graph.neighbors(v) if w > v]
        for i, a in enumerate(nbrs):
            na = graph.neighbors(a)
            for b in nbrs[i + 1 :]:
                if b in na:
                    total += 1
    return total


def _iter_triangle_row_blocks(graph: Graph) -> Iterator[np.ndarray]:
    """Yield the graph's triangles as dense-index ``(B, 3)`` blocks.

    Orients every edge along a degeneracy ordering (each vertex then has at
    most ``kappa`` out-neighbors, the ``O(m * kappa)`` bound of
    compact-forward enumeration) and closes the out-wedges with a
    packed-key membership test against the sorted CSR edge array, batched
    per out-degree class exactly like :func:`count_triangles`.  Each yielded
    block is bounded by :data:`_WEDGE_BATCH` wedges, so consumers stream
    with bounded memory rather than holding all ``T`` triangles at once.
    Dense indices follow the cached :meth:`Graph.csr` view; rows are
    sorted, so mapping through ``csr.vertex_ids`` (monotone) yields
    canonical tuples.
    """
    csr = graph.csr()
    n = csr.num_vertices
    if graph.num_edges == 0:
        return
    rank = np.empty(n, dtype=np.int64)
    ordering = np.asarray(degeneracy_ordering(graph), dtype=np.int64)
    rank[np.searchsorted(csr.vertex_ids, ordering)] = np.arange(n)

    src = np.repeat(np.arange(n, dtype=np.int64), csr.degrees)
    dst = csr.indices
    # CSR rows are sorted, so every undirected edge appears once with
    # src < dst; pack those canonical pairs as lo*n + hi (sorted already).
    undirected = src < dst
    edge_keys = src[undirected] * n + dst[undirected]

    forward = rank[dst] > rank[src]
    out_src, out_dst = src[forward], dst[forward]
    out_counts = np.bincount(out_src, minlength=n)
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_counts, out=out_indptr[1:])

    for d in np.unique(out_counts):
        d = int(d)
        if d < 2:
            continue
        centers = np.flatnonzero(out_counts == d)
        pairs_per_center = d * (d - 1) // 2
        step = max(1, _WEDGE_BATCH // pairs_per_center)
        ii, jj = np.triu_indices(d, k=1)
        for at in range(0, len(centers), step):
            block = centers[at : at + step]
            gather = out_indptr[block][:, None] + np.arange(d)[None, :]
            mat = out_dst[gather]
            # Row blocks inherit the CSR sort, so lo < hi elementwise - the
            # wedge keys are already canonical.
            lo, hi = mat[:, ii].ravel(), mat[:, jj].ravel()
            keys = lo * n + hi
            idx = np.searchsorted(edge_keys, keys)
            np.minimum(idx, len(edge_keys) - 1, out=idx)
            hit = edge_keys[idx] == keys
            if hit.any():
                wedge_centers = np.repeat(block, pairs_per_center)
                triple = np.column_stack((wedge_centers[hit], lo[hit], hi[hit]))
                yield np.sort(triple, axis=1)


def enumerate_triangles(graph: Graph) -> Iterator[Triangle]:
    """Yield each triangle exactly once, in canonical ``a < b < c`` form.

    The triangles come from a vectorized out-wedge closure over the cached
    CSR view (:func:`_iter_triangle_row_blocks`, streamed in bounded
    blocks) in ``O(m * kappa)``.  The yield order is not part of the
    contract: each triangle appears exactly once, canonically sorted.
    """
    ids = None
    for rows in _iter_triangle_row_blocks(graph):
        if ids is None:
            ids = graph.csr().vertex_ids
        for a, b, c in ids[rows].tolist():
            yield (a, b, c)


def triangles_through_edge(graph: Graph, edge: Edge) -> int:
    """Return ``t_e``: the number of triangles containing ``edge``."""
    u, v = canonical_edge(*edge)
    nu, nv = graph.neighbors(u), graph.neighbors(v)
    small, large = (nu, nv) if len(nu) <= len(nv) else (nv, nu)
    return sum(1 for w in small if w in large)


def per_edge_triangle_counts(graph: Graph) -> Dict[Edge, int]:
    """Return ``{e: t_e}`` for every edge (zero entries included).

    The counts are one vectorized fold over the CSR triangle array: each
    triangle's three edges are mapped to their rank in the sorted packed
    edge-key array (``searchsorted``) and accumulated with ``bincount`` -
    no per-triangle Python iteration.
    """
    if graph.num_edges == 0:
        return {}
    csr = graph.csr()
    n = csr.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), csr.degrees)
    dst = csr.indices
    undirected = src < dst
    edge_lo, edge_hi = src[undirected], dst[undirected]
    edge_keys = edge_lo * n + edge_hi  # sorted by CSR construction
    totals = np.zeros(len(edge_keys), dtype=np.int64)
    for rows in _iter_triangle_row_blocks(graph):
        for i, j in ((0, 1), (0, 2), (1, 2)):
            keys = rows[:, i] * n + rows[:, j]
            totals += np.bincount(
                np.searchsorted(edge_keys, keys), minlength=len(edge_keys)
            )
    ids = csr.vertex_ids
    return {
        (u, v): c
        for u, v, c in zip(ids[edge_lo].tolist(), ids[edge_hi].tolist(), totals.tolist())
    }


def per_vertex_triangle_counts(graph: Graph) -> Dict[int, int]:
    """Return ``{v: number of triangles containing v}`` for every vertex."""
    counts: Dict[int, int] = {v: 0 for v in graph.vertices()}
    for a, b, c in enumerate_triangles(graph):
        counts[a] += 1
        counts[b] += 1
        counts[c] += 1
    return counts


def min_te_assignment(graph: Graph) -> Dict[Triangle, Edge]:
    """The paper's ideal assignment rule, computed exactly.

    Each triangle is assigned to its contained edge with the smallest
    ``t_e``; ties are broken by canonical edge order so the rule is
    deterministic ("breaking ties arbitrarily (but consistently)",
    Section 4).  Unlike the streaming approximation, nothing is left
    unassigned.
    """
    te = per_edge_triangle_counts(graph)
    assignment: Dict[Triangle, Edge] = {}
    for t in enumerate_triangles(graph):
        assignment[t] = min(triangle_edges(t), key=lambda e: (te[e], e))
    return assignment


@dataclass(frozen=True)
class TriangleStatistics:
    """Exact triangle-related quantities of a graph, bundled for reporting.

    Attributes mirror the paper's notation: ``triangle_count`` is ``T``,
    ``per_edge`` is ``{e: t_e}``, ``max_te`` is ``max_e t_e`` (the quantity
    ``J`` in the Pagh-Tsourakakis row of Table 1), and
    ``assigned_per_edge`` / ``max_assigned`` are ``tau_e`` / ``tau_max``
    under the exact min-``t_e`` assignment rule.
    """

    triangle_count: int
    per_edge: Dict[Edge, int] = field(repr=False)
    max_te: int
    assigned_per_edge: Dict[Edge, int] = field(repr=False)
    max_assigned: int

    @property
    def total_assigned(self) -> int:
        """Total assigned triangles (equals ``triangle_count`` for the exact rule)."""
        return sum(self.assigned_per_edge.values())


def triangle_statistics(graph: Graph) -> TriangleStatistics:
    """Compute :class:`TriangleStatistics` for ``graph`` in one sweep."""
    te = per_edge_triangle_counts(graph)
    assigned: Dict[Edge, int] = {e: 0 for e in te}
    count = 0
    for t in enumerate_triangles(graph):
        count += 1
        target = min(triangle_edges(t), key=lambda e: (te[e], e))
        assigned[target] += 1
    return TriangleStatistics(
        triangle_count=count,
        per_edge=te,
        max_te=max(te.values(), default=0),
        assigned_per_edge=assigned,
        max_assigned=max(assigned.values(), default=0),
    )
