"""The edge-stream protocol.

An :class:`EdgeStream` represents the input tape of the paper's model: a
fixed, arbitrary-order sequence of distinct undirected edges that can be
replayed from the beginning any number of times, but never accessed randomly.
Implementations must return the *same sequence* on every replay - multi-pass
algorithms depend on pass-to-pass consistency (e.g. pass 2 of Algorithm 2
recomputes degrees of edges sampled in pass 1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from ..types import Edge

if TYPE_CHECKING:  # pragma: no cover - import-time only
    import numpy

#: Default number of edges per chunk for :meth:`EdgeStream.iter_chunks`.
#: 64k edges = 1 MiB of int64 pairs - large enough to amortize NumPy call
#: overhead, small enough to stay cache- and allocator-friendly.
DEFAULT_CHUNK_EDGES = 65536


class EdgeStream(ABC):
    """Abstract replayable edge stream.

    Subclasses implement :meth:`__iter__` (a fresh sequential pass) and
    :meth:`__len__` (the stream length ``m``, which is also learnable in one
    pass; exposing it directly avoids a bookkeeping pass in every algorithm
    and matches the standard convention in the streaming literature).

    Streams may additionally support *chunked* passes (:meth:`iter_chunks`),
    which deliver the same sequence as ``(k, 2)`` int64 NumPy arrays (int32
    from a narrow ``.etape`` tape, whose ids all lie in ``[0, 2^31)``) so that
    pass kernels can process blocks of edges with vectorized operations
    instead of one Python-level iteration per edge.  The base class batches
    :meth:`__iter__`; implementations that can do better (contiguous array
    backing, bulk file parsing) override it.
    """

    @abstractmethod
    def __iter__(self) -> Iterator[Edge]:
        """Start a fresh pass over the stream, yielding canonical edges."""

    @abstractmethod
    def __len__(self) -> int:
        """Return the number of edges ``m`` in the stream."""

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK_EDGES) -> Iterator["numpy.ndarray"]:
        """Start a fresh pass delivered as ``(k, 2)`` int64 (or, from a narrow
        tape, int32) arrays.

        Concatenating the yielded chunks reproduces exactly one
        :meth:`__iter__` pass; every chunk has ``1 <= k <= chunk_size`` rows
        (the final chunk may be short) and an empty stream yields nothing.
        This generic fallback batches the Python iterator, so it adds no
        speed by itself - it exists so every stream, including iterator-only
        ones, can feed the chunked pass kernels.
        """
        import numpy as np

        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        buffer: list[Edge] = []
        for edge in self:
            buffer.append(edge)
            if len(buffer) == chunk_size:
                yield np.array(buffer, dtype=np.int64).reshape(-1, 2)
                buffer.clear()
        if buffer:
            yield np.array(buffer, dtype=np.int64).reshape(-1, 2)

    def stats(self) -> "StreamStats":
        """Compute single-pass stream statistics (n, m, max vertex id).

        Uses O(1) space beyond the two counters by tracking only extrema;
        the number of distinct vertices is *not* computable in O(1) space,
        so ``num_vertices_upper`` reports ``max_vertex_id + 1`` instead,
        which is the standard a-priori ``n`` of the model.
        """
        max_vertex = -1
        m = 0
        for u, v in self:
            m += 1
            if v > max_vertex:
                max_vertex = v
            if u > max_vertex:
                max_vertex = u
        return StreamStats(num_edges=m, max_vertex_id=max_vertex)


@dataclass(frozen=True)
class StreamStats:
    """One-pass summary of a stream: ``m`` and the largest vertex id."""

    num_edges: int
    max_vertex_id: int

    @property
    def num_vertices_upper(self) -> int:
        """An upper bound on ``n``: vertex ids live in ``[0, max_vertex_id]``."""
        return self.max_vertex_id + 1
