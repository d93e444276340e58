"""File-backed edge streams.

:class:`FileEdgeStream` replays a whitespace-separated edge-list file without
ever materializing it in memory, so the stream abstraction holds even for
graphs far larger than RAM.  The on-disk format is the de-facto standard
"u v" per line, with ``#`` comments and blank lines ignored (the format used
by SNAP and most public graph repositories).

Chunked passes parse the file in ``chunk_size``-line batches through
``numpy.loadtxt`` (data lines pre-filtered so comment/blank lines are
classified once, not re-tokenized by the batch parser) and canonicalize
each batch with vectorized min/max, so the per-line Python interpreter
cost of :meth:`__iter__` is paid only by per-edge readers and by the
line-numbered diagnostics of a malformed file.

Estimates do not sweep this stream repeatedly:
:func:`~repro.streams.tape.open_edge_stream` parses a text input once into
an ``.etape`` tape and every sweep maps that.  On the 330k-edge perfbench
serve-text input (estimator seed 2001, 18 sweeps, 2-core x86_64), three
estimates over this stream took 2.8-3.6 s, against 0.41-0.47 s over its
tape plus 0.13-0.17 s to convert.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterator

from ..errors import StreamError, StreamReadError
from ..types import Edge, canonical_edge
from .base import DEFAULT_CHUNK_EDGES, EdgeStream, StreamStats

if TYPE_CHECKING:  # pragma: no cover - import-time only
    import numpy

def _maybe_inject_read_fault(path: str) -> None:
    # Imported lazily: repro.streams loads during repro.core's own import.
    from ..core import faults

    if faults.fires(faults.FILE_READ):
        raise StreamReadError(f"{path}: injected fault: {faults.FILE_READ}")


class FileEdgeStream(EdgeStream):
    """A replayable stream backed by an edge-list file.

    Parameters
    ----------
    path:
        Path to the edge-list file.
    validate:
        When ``True`` (default), edges are canonicalized on the fly and
        malformed lines raise :class:`~repro.errors.StreamError`.  Duplicate
        detection would require O(m) memory, defeating the purpose of a
        file stream, so it is *not* performed here; use
        :class:`~repro.graph.builder.GraphBuilder` to sanitize files first.

    The stream length is computed lazily on first use of ``len()`` (one extra
    file sweep) and cached.
    """

    def __init__(self, path: str | os.PathLike[str], validate: bool = True) -> None:
        self._path = os.fspath(path)
        self._validate = validate
        self._length: int | None = None
        self._stats: StreamStats | None = None
        if not os.path.exists(self._path):
            raise StreamError(f"edge-list file not found: {self._path}")

    @property
    def path(self) -> str:
        """The edge-list file this stream reads (snapshot fingerprinting)."""
        return self._path

    def _parse(self, line: str, lineno: int) -> Edge | None:
        text = line.strip()
        if not text or text.startswith("#"):
            return None
        parts = text.split()
        if len(parts) < 2:
            raise StreamError(f"{self._path}:{lineno}: expected 'u v', got {text!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise StreamError(f"{self._path}:{lineno}: non-integer vertex in {text!r}") from exc
        if self._validate:
            return canonical_edge(u, v)
        return (u, v)

    def __iter__(self) -> Iterator[Edge]:
        with open(self._path, "r", encoding="utf-8") as handle:
            try:
                for lineno, line in enumerate(handle, start=1):
                    edge = self._parse(line, lineno)
                    if edge is not None:
                        yield edge
            except UnicodeDecodeError as exc:
                raise self._not_text(exc) from exc

    def _not_text(self, exc: UnicodeDecodeError) -> StreamError:
        """The typed error for a file that is neither a tape nor UTF-8 text."""
        return StreamError(
            f"{self._path}: not an edge tape or UTF-8 edge-list text ({exc.reason})"
        )

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK_EDGES) -> Iterator["numpy.ndarray"]:
        """Parse the file in ``chunk_size``-row batches of int64 pairs.

        Yields the same edge sequence as :meth:`__iter__` (including
        canonicalization when ``validate`` is set), but parses whole batches
        through ``numpy.loadtxt`` - comments and blank lines are skipped
        without counting toward the batch size.  The ``file.read``
        fault-injection site fires once per yielded chunk.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for block in self._parse_chunks(chunk_size):
            _maybe_inject_read_fault(self._path)
            yield block

    def _parse_chunks(self, chunk_size: int) -> Iterator["numpy.ndarray"]:
        """The batch parser (one ``loadtxt`` call per chunk), without the
        fault-injection site - the tape conversion reads through it.

        Data lines are gathered with a cheap Python-level skip of comment
        and blank lines, so each such line is classified exactly once per
        batch; the previous ``max_rows``-driven parse made ``loadtxt``
        tokenize them a second time while counting data rows (and warn
        about it).  The batch itself still parses through one vectorized
        ``loadtxt`` call per chunk - now over pre-filtered lines, where
        every line is known to contribute exactly one row, so the
        end-of-batch test is exact.  Inline ``# ...`` suffixes on data
        lines are still stripped by ``loadtxt`` itself.

        A batch-parse failure is re-diagnosed with the per-line parser
        (one extra sweep of an already-failing file) so the raised
        :class:`~repro.errors.StreamError` carries the standard
        line-numbered message wherever the chunks were consumed - a plain
        chunked pass, a tape conversion, or a threaded sweep.
        """
        import numpy as np

        try:
            handle = open(self._path, "r", encoding="utf-8")
        except OSError as exc:
            # Typed as a *read* error: the file existed when the stream was
            # built, so losing it mid-run is a transient-tape failure the
            # recovery layer may retry, unlike a malformed file.
            raise StreamReadError(f"{self._path}: cannot open for chunked read: {exc}") from exc
        with handle:
            while True:
                lines: list[str] = []
                try:
                    for line in handle:
                        head = line.lstrip()
                        if not head or head[0] == "#":
                            continue  # skipped here, once; never re-tokenized
                        lines.append(line)
                        if len(lines) == chunk_size:
                            break
                except OSError as exc:
                    raise StreamReadError(
                        f"{self._path}: I/O error during chunked read: {exc}"
                    ) from exc
                except UnicodeDecodeError as exc:
                    raise self._not_text(exc) from exc
                if not lines:
                    return
                try:
                    block = np.loadtxt(
                        lines,
                        dtype=np.int64,
                        comments="#",
                        usecols=(0, 1),
                        ndmin=2,
                    )
                except ValueError as exc:
                    raise self._line_numbered_error(exc) from exc
                block = block.reshape(-1, 2)
                if self._validate:
                    block = self._canonicalize(np, block)
                yield block
                if len(lines) < chunk_size:
                    return

    def _line_numbered_error(self, exc: Exception) -> StreamError:
        """Locate the first malformed line for the standard diagnostic.

        ``numpy.loadtxt`` reports batch errors without a usable line
        number (and the handle has already advanced), so the file is
        re-scanned with the per-line parser, whose failure carries
        ``path:lineno``.  If the per-line parser somehow accepts every
        line (a batch-only artifact), the original batch error is wrapped
        instead.
        """
        try:
            for _ in self:
                pass
        except StreamError as located:
            return located
        return StreamError(f"{self._path}: malformed edge-list line ({exc})")

    def _canonicalize(self, np, block: "numpy.ndarray") -> "numpy.ndarray":
        """Vectorized ``canonical_edge`` over one parsed batch."""
        u, v = block[:, 0], block[:, 1]
        bad = (u == v) | (u < 0) | (v < 0)
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            canonical_edge(int(u[row]), int(v[row]))  # raises with the standard message
            raise StreamError(f"{self._path}: unreachable")  # pragma: no cover
        return np.column_stack((np.minimum(u, v), np.maximum(u, v)))

    def stats(self) -> StreamStats:
        """One-pass stream statistics via the batch parser, computed once.

        The file is immutable for the stream's purposes (replayability
        already demands it), so the statistics are cached like
        :class:`~repro.streams.memory.InMemoryEdgeStream`'s; the scan
        itself runs over :meth:`iter_chunks` - one vectorized ``max`` per
        parsed batch instead of one interpreter iteration per edge - and
        also settles the cached length for free.
        """
        if self._stats is None:
            try:
                m = 0
                max_vertex = -1
                for block in self.iter_chunks():
                    m += len(block)
                    max_vertex = max(max_vertex, int(block.max()))
                self._stats = StreamStats(num_edges=m, max_vertex_id=max_vertex)
            except StreamReadError:
                # Transient tape failure, not a malformed file: the
                # per-line rescan would mask it as a silent retry -
                # propagate so the recovery layer decides.
                raise
            except StreamError:
                # Re-scan per line so malformed files fail with the
                # standard line-numbered diagnostic, not a batch error.
                self._stats = super().stats()
            self._length = self._stats.num_edges
        return self._stats

    def __len__(self) -> int:
        """The stream length ``m``, computed lazily and cached.

        Reuses the cached :meth:`stats` length when available; otherwise
        one chunked sweep sums the parsed batch lengths.
        """
        if self._length is None:
            if self._stats is not None:
                self._length = self._stats.num_edges
            else:
                try:
                    self._length = sum(len(block) for block in self.iter_chunks())
                except StreamReadError:
                    raise  # transient, not malformed - see stats()
                except StreamError:
                    # Per-line rescan for the line-numbered diagnostic.
                    self._length = sum(1 for _ in self)
        return self._length
