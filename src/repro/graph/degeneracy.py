"""Degeneracy, core decomposition, and degeneracy orderings.

The degeneracy ``kappa(G)`` (Definition 1.1 of the paper) is the largest
minimum degree over all subgraphs of ``G``.  The classic linear-time
algorithm of Matula and Beck computes it by repeatedly removing a
minimum-degree vertex; the largest degree observed at removal time equals the
degeneracy, the removal order is a *degeneracy ordering*, and the observed
degrees give the *core numbers* used throughout network science.

This module implements the bucket-queue version of Matula-Beck, which runs in
O(n + m) time, and exposes the three artifacts the rest of the library needs:

* :func:`degeneracy` - the scalar ``kappa``;
* :func:`degeneracy_ordering` - a removal order with all later-neighbors
  counts at most ``kappa`` (used by the lower-bound construction analysis and
  by compact-forward triangle counting);
* :func:`core_decomposition` - per-vertex core numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .adjacency import Graph


@dataclass(frozen=True)
class CoreDecomposition:
    """Full output of the Matula-Beck peeling procedure.

    Attributes
    ----------
    degeneracy:
        The graph degeneracy ``kappa`` (0 for edgeless graphs).
    ordering:
        Vertices in removal order.  For every vertex, the number of its
        neighbors appearing *later* in this order is at most ``degeneracy``.
    core_numbers:
        Mapping vertex -> core number (the largest ``k`` such that the vertex
        belongs to a subgraph of minimum degree ``k``).
    """

    degeneracy: int
    ordering: List[int]
    core_numbers: Dict[int, int]

    def k_core_vertices(self, k: int) -> List[int]:
        """Return the vertices of the ``k``-core (core number >= ``k``)."""
        return [v for v, c in self.core_numbers.items() if c >= k]


def core_decomposition(graph: Graph) -> CoreDecomposition:
    """Run the peeling procedure and return the full decomposition.

    With NumPy available, peeling runs *layered* over the CSR view
    (:meth:`~repro.graph.adjacency.Graph.csr`): every round removes the
    entire set of vertices whose residual degree is at most the current
    ``kappa`` at once, decrementing neighbor degrees with one vectorized
    ``bincount`` over the frontier's CSR slices.  This removes the
    per-edge Python work of the classic bucket queue while producing the
    same core numbers and a valid degeneracy ordering (every vertex in a
    frontier has residual degree <= kappa counting frontier-mates and
    later vertices, so its later-neighbor count is <= kappa regardless of
    intra-frontier order).  ``tests/test_graph_degeneracy.py`` pins the
    core numbers against the bucket-queue reference
    (:func:`_core_decomposition_bucketqueue`).
    """
    n = graph.num_vertices
    if n == 0:
        return CoreDecomposition(degeneracy=0, ordering=[], core_numbers={})
    csr = graph.csr()
    indptr, indices = csr.indptr, csr.indices
    degrees = csr.degrees.astype(np.int64, copy=True)
    present = np.ones(n, dtype=bool)
    core = np.zeros(n, dtype=np.int64)
    ordering_parts = []
    kappa = 0
    remaining = n
    frontier = np.flatnonzero(degrees <= 0)
    while remaining:
        if len(frontier) == 0:
            kappa = int(degrees[present].min())
            frontier = np.flatnonzero(present & (degrees <= kappa))
        core[frontier] = kappa
        ordering_parts.append(frontier)
        present[frontier] = False
        remaining -= len(frontier)
        touched = _gather_neighbors(indptr, indices, frontier)
        touched = touched[present[touched]]
        if len(touched):
            degrees -= np.bincount(touched, minlength=n)
            # Only just-touched vertices can have newly dropped to <= kappa.
            eligible = np.unique(touched)
            frontier = eligible[degrees[eligible] <= kappa]
        else:
            frontier = touched  # empty
    ordering_dense = np.concatenate(ordering_parts)
    vertex_ids = csr.vertex_ids
    ordering = vertex_ids[ordering_dense].tolist()
    core_numbers = dict(zip(vertex_ids.tolist(), core.tolist()))
    return CoreDecomposition(
        degeneracy=int(core.max()), ordering=ordering, core_numbers=core_numbers
    )


def _gather_neighbors(indptr, indices, verts):
    """Concatenated CSR neighbor slices of ``verts`` (vectorized gather)."""
    counts = indptr[verts + 1] - indptr[verts]
    total = int(counts.sum())
    if total == 0:
        return indices[:0]
    prefix = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]))
    offsets = np.repeat(indptr[verts] - prefix, counts)
    return indices[np.arange(total, dtype=np.int64) + offsets]


def _core_decomposition_bucketqueue(graph: Graph) -> CoreDecomposition:
    """Reference Matula-Beck peeling with a Python bucket queue (O(n + m))."""
    degrees = graph.degrees()
    n = len(degrees)
    if n == 0:
        return CoreDecomposition(degeneracy=0, ordering=[], core_numbers={})

    max_deg = max(degrees.values(), default=0)
    # buckets[d] holds vertices whose current (residual) degree is d.
    buckets: List[List[int]] = [[] for _ in range(max_deg + 1)]
    for v, d in degrees.items():
        buckets[d].append(v)

    removed: set[int] = set()
    ordering: List[int] = []
    core_numbers: Dict[int, int] = {}
    kappa = 0
    current = 0  # lowest bucket that may be non-empty

    for _ in range(n):
        # Vertices are appended to a new bucket when their degree drops but
        # never deleted from the old one, so buckets can contain stale
        # entries.  Pop until a fresh entry is found, advancing `current`
        # whenever the bucket at hand runs dry.  `current` is rewound in the
        # neighbor-update loop below, so this scan is amortized O(n + m).
        v = None
        while v is None:
            while current <= max_deg and not buckets[current]:
                current += 1
            candidate = buckets[current].pop()
            if candidate not in removed and degrees[candidate] == current:
                v = candidate

        kappa = max(kappa, current)
        core_numbers[v] = kappa
        ordering.append(v)
        removed.add(v)
        for w in graph.neighbors(v):
            if w in removed:
                continue
            degrees[w] -= 1
            buckets[degrees[w]].append(w)
            if degrees[w] < current:
                current = degrees[w]

    return CoreDecomposition(degeneracy=kappa, ordering=ordering, core_numbers=core_numbers)


def degeneracy(graph: Graph) -> int:
    """Return the degeneracy ``kappa`` of ``graph`` (Definition 1.1)."""
    return core_decomposition(graph).degeneracy


def degeneracy_ordering(graph: Graph) -> List[int]:
    """Return the strict minimum-degree-first degeneracy ordering.

    In the returned order, every vertex has at most ``kappa`` neighbors that
    appear after it.  This is the ordering used in the paper's Theorem 6.3
    argument (``kappa <= d^<_max``) and by compact-forward triangle counting.

    Unlike :func:`core_decomposition`'s layered peel (which removes whole
    frontiers at once), this is the *strict* Matula-Beck removal order -
    one minimum-residual-degree vertex per step - computed with the
    Batagelj-Zaversnik bucket arrays over the cached CSR view
    (:meth:`~repro.graph.adjacency.Graph.csr`): ``vert`` holds the
    vertices sorted by residual degree, ``pos`` its inverse, and
    ``bin_start[d]`` the front of each degree bucket, so each removal
    updates all touched neighbors with a few vectorized moves per distinct
    neighbor degree instead of one interpreter iteration per edge.  The
    pure-Python :func:`_strict_ordering_reference` implements the same
    abstract peel (same bucket moves, same tie-breaks);
    ``tests/test_graph_degeneracy.py`` pins the two orderings equal.
    """
    n = graph.num_vertices
    if n == 0:
        return []
    csr = graph.csr()
    indptr, indices = csr.indptr, csr.indices
    deg = csr.degrees.astype(np.int64, copy=True)
    max_deg = int(deg.max())
    vert = np.argsort(deg, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[vert] = np.arange(n, dtype=np.int64)
    counts = np.bincount(deg, minlength=max_deg + 1)
    bin_start = np.zeros(max_deg + 1, dtype=np.int64)
    np.cumsum(counts[:-1], out=bin_start[1:])
    for i in range(n):
        v = vert[i]
        d = deg[v]
        # Retire position i: the degree-d bucket now starts past the popped
        # vertex, so equal-degree neighbors decremented below can land at
        # the live front (position i+1) and be popped next - the strict
        # minimum-*residual*-degree semantics of Matula-Beck, not the
        # frozen-degree k-core variant.
        bin_start[d] = i + 1
        neighbors = indices[indptr[v] : indptr[v + 1]]
        # Liveness is positional: popped vertices stay in the prefix.
        cand = neighbors[pos[neighbors] > i]
        if not len(cand):
            continue
        cand_deg = deg[cand]
        for du in np.unique(cand_deg):
            ws = cand[cand_deg == du]
            k = len(ws)
            start = bin_start[du]
            cur = pos[ws]
            # Batched front-of-bucket move: the k movers swap with the
            # first k slots of bucket du (members already inside that
            # window stay put; out-of-window movers pair with the freed
            # slots in ascending position order - the deterministic
            # tie-break the pure-Python reference mirrors).
            in_window = cur < start + k
            taken = np.zeros(k, dtype=bool)
            taken[cur[in_window] - start] = True
            free_slots = start + np.flatnonzero(~taken)
            mover_positions = np.sort(cur[~in_window])
            if len(mover_positions):
                mover_verts = vert[mover_positions]
                occupants = vert[free_slots]
                vert[free_slots] = mover_verts
                vert[mover_positions] = occupants
                pos[mover_verts] = free_slots
                pos[occupants] = mover_positions
            bin_start[du] += k
            deg[ws] -= 1
    return csr.vertex_ids[vert].tolist()


def _strict_ordering_reference(graph: Graph) -> List[int]:
    """Pure-Python mirror of :func:`degeneracy_ordering`'s bucket-array peel.

    Implements the identical abstract algorithm (dense ids in ascending
    vertex order, sorted adjacency, same batched bucket moves and
    tie-breaks) with scalar loops, so the two paths return *equal*
    orderings - this is the parity oracle for the vectorized peel.
    """
    vertex_ids = sorted(graph.degrees())
    n = len(vertex_ids)
    if n == 0:
        return []
    dense = {v: i for i, v in enumerate(vertex_ids)}
    adjacency = [
        sorted(dense[w] for w in graph.neighbors(v)) for v in vertex_ids
    ]
    deg = [len(nbrs) for nbrs in adjacency]
    vert = sorted(range(n), key=lambda v: deg[v])  # stable, like argsort
    pos = [0] * n
    for i, v in enumerate(vert):
        pos[v] = i
    max_deg = max(deg)
    counts = [0] * (max_deg + 1)
    for d in deg:
        counts[d] += 1
    bin_start = [0] * (max_deg + 1)
    for d in range(1, max_deg + 1):
        bin_start[d] = bin_start[d - 1] + counts[d - 1]
    for i in range(n):
        v = vert[i]
        d = deg[v]
        bin_start[d] = i + 1  # retire the popped position (see NumPy path)
        by_degree: Dict[int, List[int]] = {}
        for w in adjacency[v]:
            if pos[w] > i:  # positional liveness, all live neighbors move
                by_degree.setdefault(deg[w], []).append(w)
        for du in sorted(by_degree):
            ws = by_degree[du]
            k = len(ws)
            start = bin_start[du]
            window = set(range(start, start + k))
            taken = {pos[w] for w in ws if pos[w] in window}
            free_slots = sorted(window - taken)
            mover_positions = sorted(pos[w] for w in ws if pos[w] not in window)
            for slot, at in zip(free_slots, mover_positions):
                mover, occupant = vert[at], vert[slot]
                vert[slot], vert[at] = mover, occupant
                pos[mover], pos[occupant] = slot, at
            bin_start[du] += k
            for w in ws:
                deg[w] -= 1
    return [vertex_ids[v] for v in vert]


def later_neighbor_counts(graph: Graph, ordering: List[int]) -> Dict[int, int]:
    """Return, for each vertex, its number of neighbors later in ``ordering``.

    The maximum of these values upper-bounds the degeneracy for *any* total
    ordering (the characterization used in the proof of Theorem 6.3), and for
    a degeneracy ordering it equals the degeneracy exactly on at least one
    vertex.
    """
    position = {v: i for i, v in enumerate(ordering)}
    counts: Dict[int, int] = {}
    for v in ordering:
        counts[v] = sum(1 for w in graph.neighbors(v) if position[w] > position[v])
    return counts
