"""File-backed edge streams.

:class:`FileEdgeStream` replays a whitespace-separated edge-list file without
ever materializing it in memory, so the stream abstraction holds even for
graphs far larger than RAM.  The on-disk format is the de-facto standard
"u v" per line, with ``#`` comments and blank lines ignored (the format used
by SNAP and most public graph repositories).

Chunked passes read the file in 128 KiB byte blocks cut after their last
newline.  A block whose every line is ``digits SP digits`` (checked
exactly: the block's shape once its digits are deleted, two values per
line, no saturated ``INT64_MAX``) parses in one ``np.fromstring`` call;
any other block - comments, CRLF, tabs, signs, extra columns, bad tokens -
falls back to ``numpy.loadtxt`` over its comment- and blank-filtered data
lines.  Both yield the rows the former line-by-line batch parser did, in
the same ``chunk_size``-row chunks, canonicalized in place with vectorized
min/max, and fail with its errors at the same point.  On perfbench's
solo-tape text (13.6 MB, 1M edges, 2-core x86_64) ``write_tape`` takes
0.11-0.15 s, against 0.33-0.54 s with the line loop.  The per-line Python
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

import codecs
import os
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from ..errors import StreamError, StreamReadError
from ..types import Edge, canonical_edge
from .base import DEFAULT_CHUNK_EDGES, EdgeStream, StreamStats

if TYPE_CHECKING:  # pragma: no cover - import-time only
    import numpy

#: Bytes the chunked parser reads at a time (a multiple of
#: :data:`_TEXT_CHUNK`, so no decode region straddles two reads).  Larger
#: reads parse no faster and leave more freed heap behind: with 1 MiB reads
#: perfbench solo-tape's peak RSS read ~1.5 MB above the line loop's, with
#: 128 KiB reads level with it.
_BLOCK_BYTES = 1 << 17

#: The bytes ``io.TextIOWrapper`` decodes at a time.  Reading an
#: undecodable file line by line fails at the first line that does not end
#: in the text decoded before the first region that does not decode (a bare
#: ``\r`` as that text's last character waits for what follows); the
#: chunked parser stops at the same line.
_TEXT_CHUNK = 8192

_INT64_MAX = (1 << 63) - 1


def _fast_rows(np, block: bytes) -> Optional["numpy.ndarray"]:
    """The block's rows if every line is ``digits SP digits``, else ``None``.

    ``block`` ends with a line end.  Deleting the digits must leave exactly
    one ``" \\n"`` per line - no ``#``, tab, ``\\r``, sign, blank line, extra
    column or second space - and ``np.fromstring`` must then return two
    values per line (so neither side of a space is empty), none of them
    ``INT64_MAX``: ``fromstring`` saturates an overflowing id to it, where
    ``loadtxt`` rejects the line.
    """
    shape = block.translate(None, b"0123456789")
    lines = len(shape) // 2
    if shape != b" \n" * lines:
        return None
    try:
        values = np.fromstring(block, dtype=np.int64, sep=" ")
    except ValueError:
        return None
    if len(values) != 2 * lines or (lines and int(values.max()) == _INT64_MAX):
        return None
    return values.reshape(-1, 2)


def _undecodable(decoder, data: bytes, eof: bool) -> Optional[Tuple[int, UnicodeDecodeError]]:
    """Where ``io.TextIOWrapper``'s decoding of the next read ``data`` stops.

    ``data`` starts at a :data:`_TEXT_CHUNK` boundary of the file and
    ``decoder`` holds the UTF-8 state the previous reads left.  Returns
    ``(end, error)`` for the first region that does not decode (the end of
    the file, for a sequence the file cuts off): ``end`` is the offset in
    ``data`` where the decoded text stops - before the region, and before
    the bytes of an unfinished sequence it would have finished.  ``None``
    if ``data`` decodes.
    """
    regions = range(0, len(data), _TEXT_CHUNK)
    if data.isascii() and not decoder.getstate()[0]:
        regions = range(0)
    try:
        for region in regions:
            unfinished = len(decoder.getstate()[0])
            decoder.decode(data[region : region + _TEXT_CHUNK])
        region = len(data)
        unfinished = len(decoder.getstate()[0])
        if eof:
            decoder.decode(b"", True)
    except UnicodeDecodeError as exc:
        return region - unfinished, exc
    return None


def _loadtxt(np, lines: List[str]) -> "numpy.ndarray":
    """The fallback parser: one ``numpy.loadtxt`` batch of data lines."""
    return np.loadtxt(lines, dtype=np.int64, comments="#", usecols=(0, 1), ndmin=2).reshape(-1, 2)


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
        canonicalization when ``validate`` is set), but parses whole byte
        blocks (see :meth:`_parse_chunks`) - comments and blank lines are
        skipped without counting toward the batch size.  The ``file.read``
        fault-injection site fires once per yielded chunk.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for block in self._parse_chunks(chunk_size):
            _maybe_inject_read_fault(self._path)
            yield block

    def _parse_chunks(self, chunk_size: int) -> Iterator["numpy.ndarray"]:
        """The batch parser, without the fault-injection site - the tape
        conversion reads through it.

        Yields exactly what one ``numpy.loadtxt`` call per ``chunk_size``
        data lines would: the file's data rows cut into ``chunk_size``-row
        chunks (the last one shorter), each canonicalized when ``validate``
        is set.  The rows come from :meth:`_pieces` as parsed fast-path
        arrays or as unparsed data lines; a chunk's data lines are parsed
        only once the chunk is complete, so malformed lines, self loops and
        undecodable bytes fail in the order the line-by-line batch parser
        met them.

        A parse failure is re-diagnosed with the per-line parser (one extra
        sweep of an already-failing file) so the raised
        :class:`~repro.errors.StreamError` carries the standard
        line-numbered message wherever the chunks were consumed - a plain
        chunked pass, a tape conversion, or a threaded sweep.
        """
        import numpy as np

        try:
            handle = open(self._path, "rb")
        except OSError as exc:
            # Typed as a *read* error: the file existed when the stream was
            # built, so losing it mid-run is a transient-tape failure the
            # recovery layer may retry, unlike a malformed file.
            raise StreamReadError(f"{self._path}: cannot open for chunked read: {exc}") from exc
        with handle:
            parts: list = []
            have = 0
            for piece in self._pieces(np, handle):
                at = 0
                while at < len(piece):
                    take = min(chunk_size - have, len(piece) - at)
                    parts.append(piece[at : at + take])
                    at += take
                    have += take
                    if have == chunk_size:
                        yield self._chunk(np, parts)
                        parts, have = [], 0
            if parts:
                yield self._chunk(np, parts)

    def _pieces(self, np, handle) -> Iterator:
        """The file's data rows in stream order, one newline-cut block at a time.

        Each :data:`_BLOCK_BYTES` read is cut after its last ``\\n``; the
        rest carries over to the next read.  A block yields its rows as one
        ``(n, 2)`` int64 array when :func:`_fast_rows` takes it, else its
        data lines (comment and blank lines dropped) as a list of strings.
        A leading comment header stays off that fallback's cost: the block
        is split after the line holding its last ``#`` and the rest is
        re-checked.  Every read is checked to decode as UTF-8 in the
        regions :data:`_TEXT_CHUNK` describes; at the first region that
        does not, the lines ending before it are yielded and the
        :meth:`_not_text` error is raised.
        """
        decoder = codecs.getincrementaldecoder("utf-8")()
        carry = b""
        while True:
            try:
                data = handle.read(_BLOCK_BYTES)
            except OSError as exc:
                raise StreamReadError(
                    f"{self._path}: I/O error during chunked read: {exc}"
                ) from exc
            eof = len(data) < _BLOCK_BYTES
            buffer = carry + data
            failure = _undecodable(decoder, data, eof)
            if failure is not None:
                decoded, exc = failure
                stop = len(carry) + decoded
                # A \r ending the decoded text waits for the next character
                # to tell it from a \r\n: its line is not read.
                last_lf = buffer.rfind(b"\n", 0, stop)
                last_cr = buffer.rfind(b"\r", 0, max(stop - 1, 0))
                end = max(last_lf, last_cr) + 1
                yield from self._block_pieces(np, buffer[:end])
                raise self._not_text(exc)
            if eof:
                if buffer and not buffer.endswith(b"\n"):
                    buffer += b"\n"
                yield from self._block_pieces(np, buffer)
                return
            end = buffer.rfind(b"\n") + 1
            yield from self._block_pieces(np, buffer[:end])
            carry = buffer[end:]

    def _block_pieces(self, np, block: bytes) -> Iterator:
        """One block's pieces: the block ends with a line end, or is empty."""
        header = block.rfind(b"#")
        if header >= 0:
            header = block.find(b"\n", header) + 1 or len(block)
            lines = self._data_lines(block[:header])
            if lines:
                yield lines
            block = block[header:]
        rows = _fast_rows(np, block)
        if rows is None:
            rows = self._data_lines(block)
        if len(rows):
            yield rows

    @staticmethod
    def _data_lines(block: bytes) -> List[str]:
        """The block's data lines, split and filtered as text-mode reading does:
        ``\\r\\n`` and a bare ``\\r`` end a line too, and a line that is blank
        or whose first non-space character is ``#`` is dropped."""
        text = block.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        lines.pop()  # the empty rest after the block's last line end
        return [line for line in lines if (head := line.lstrip()) and head[0] != "#"]

    def _chunk(self, np, parts: list) -> "numpy.ndarray":
        """One chunk from its parts, data lines parsed as ``loadtxt`` batches."""
        rows, before = [], 0
        for part in parts:
            rows.append(self._parse_lines(np, part, before) if isinstance(part, list) else part)
            before += len(part)
        block = rows[0] if len(rows) == 1 else np.concatenate(rows)
        if self._validate:
            self._canonicalize(np, block)
        return block

    def _parse_lines(self, np, lines: List[str], before: int) -> "numpy.ndarray":
        """``lines`` through ``numpy.loadtxt``; ``before`` chunk rows precede them."""
        try:
            return _loadtxt(np, lines)
        except ValueError as exc:
            error = exc
        if before:
            # Name the failing line by its row in the whole chunk, as one
            # loadtxt call over the chunk's lines does (the rows before it
            # parsed, so stand-ins parse the same).
            try:
                _loadtxt(np, ["0 0"] * before + lines)
            except ValueError as exc:
                error = exc
        raise self._line_numbered_error(error) from error

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

    def _canonicalize(self, np, block: "numpy.ndarray") -> None:
        """Vectorized ``canonical_edge`` over one parsed batch, in place."""
        u, v = block[:, 0], block[:, 1]
        bad = (u == v) | (u < 0) | (v < 0)
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            canonical_edge(int(u[row]), int(v[row]))  # raises with the standard message
            raise StreamError(f"{self._path}: unreachable")  # pragma: no cover
        high = np.maximum(u, v)
        np.minimum(u, v, out=u)
        np.copyto(v, high)

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
