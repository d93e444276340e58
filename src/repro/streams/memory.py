"""In-memory edge streams.

:class:`InMemoryEdgeStream` wraps a list of edges as a replayable stream.
It is the workhorse for experiments: generators produce a
:class:`~repro.graph.adjacency.Graph`, the harness fixes an order (shuffled
with a seed, sorted, or adversarial - see :mod:`repro.streams.transforms`),
and estimators then consume the stream without ever touching the graph.

For the chunked engine the stream lazily mirrors its edges into one
contiguous ``(m, 2)`` int64 NumPy array, so :meth:`iter_chunks` is pure
zero-copy slicing - the fastest possible chunk producer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from ..errors import StreamError
from ..types import Edge, normalize_edges
from .base import DEFAULT_CHUNK_EDGES, EdgeStream, StreamStats

if TYPE_CHECKING:  # pragma: no cover - import-time only
    import numpy


class InMemoryEdgeStream(EdgeStream):
    """A replayable stream over an in-memory edge sequence.

    Parameters
    ----------
    edges:
        The stream content, in stream order.  Canonicalized and checked for
        duplicates (the paper's model has unrepeated edges).
    validate:
        Set to ``False`` to skip canonicalization when the caller guarantees
        canonical, duplicate-free input (used on hot paths by the harness
        after an already-validated transform).
    """

    def __init__(self, edges: Iterable[tuple[int, int]], validate: bool = True) -> None:
        if validate:
            self._edges: Sequence[Edge] = normalize_edges(edges)
        else:
            self._edges = list(edges)  # type: ignore[arg-type]
        self._array: Optional["numpy.ndarray"] = None
        self._stats: Optional[StreamStats] = None

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def _backing_array(self) -> "numpy.ndarray":
        """The stream as one contiguous ``(m, 2)`` int64 array (built once)."""
        if self._array is None:
            import numpy as np

            self._array = np.array(self._edges, dtype=np.int64).reshape(-1, 2)
        return self._array

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK_EDGES) -> Iterator["numpy.ndarray"]:
        """Yield zero-copy ``chunk_size``-row views of the backing array."""
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        array = self._backing_array()
        for start in range(0, len(array), chunk_size):
            yield array[start : start + chunk_size]

    def stats(self) -> StreamStats:
        """One-pass stream statistics, computed once and cached.

        The stream is immutable, so the statistics cannot change between
        calls; caching saves the extra full pass that drivers would
        otherwise pay per :meth:`~repro.core.driver.TriangleCountEstimator.estimate`
        invocation.
        """
        if self._stats is None:
            self._stats = super().stats()
        return self._stats

    def edge_at(self, index: int) -> Edge:
        """Random access for *tests only* - algorithms must not call this.

        Raises :class:`~repro.errors.StreamError` on out-of-range access so
        misuse fails loudly.
        """
        if not 0 <= index < len(self._edges):
            raise StreamError(f"index {index} out of range for stream of length {len(self._edges)}")
        return self._edges[index]

    @classmethod
    def from_graph(cls, graph, order: Sequence[Edge] | None = None) -> "InMemoryEdgeStream":
        """Build a stream from a :class:`~repro.graph.adjacency.Graph`.

        ``order`` optionally fixes the stream order; it must be a permutation
        of the graph's edges (checked).  Without it, deterministic sorted
        order is used - pass the output of a transform from
        :mod:`repro.streams.transforms` for shuffled/adversarial orders.
        """
        if order is None:
            return cls(graph.edge_list(), validate=False)
        if sorted(order) != graph.edge_list():
            raise StreamError("order is not a permutation of the graph's edges")
        return cls(list(order), validate=False)
