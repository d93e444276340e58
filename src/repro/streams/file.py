"""File-backed edge streams.

:class:`FileEdgeStream` replays a whitespace-separated edge-list file without
ever materializing it in memory, so the stream abstraction holds even for
graphs far larger than RAM.  The on-disk format is the de-facto standard
"u v" per line, with ``#`` comments and blank lines ignored (the format used
by SNAP and most public graph repositories).

One grammar holds for every reader - per-edge iteration, chunked passes,
the tape conversion and :func:`~repro.io.edgelist.read_edgelist`: that of
``numpy.loadtxt(int64, comments="#", usecols=(0, 1))`` over the file's
universal-newline lines, blank and ``#`` lines skipped.  So ``+3``,
``007``, tabs, a third column and a trailing ``# note`` are accepted, and
``1_000``, non-ASCII digits and ids past int64 are not.

The parser reads the file in 128 KiB byte blocks cut after their last
newline.  A block whose every line is ``digits SP digits`` (checked
exactly: the block's shape once its digits are deleted, two values per
line, no saturated ``INT64_MAX``) parses in one ``np.fromstring`` call;
any other block - comments, CRLF, tabs, signs, extra columns, bad tokens -
falls back to ``numpy.loadtxt`` over its comment- and blank-filtered data
lines.  Both yield the rows the former line-by-line batch parser did, in
the same ``chunk_size``-row chunks, canonicalized in place with vectorized
min/max, and fail at the same point.  The block reader counts lines as it
goes (a fast-path block's rows are its lines), so a malformed line's error
names ``path:lineno`` - the first line ``loadtxt`` rejects on its own -
without a second scan.  On perfbench's solo-tape text (13.6 MB, 1M edges,
2-core x86_64) ``write_tape`` takes 0.11-0.15 s, against 0.33-0.54 s with
the line loop.

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
import re
from typing import TYPE_CHECKING, Generator, Iterator, List, Optional, Tuple

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


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _complaint(line: str) -> str:
    """Why :func:`_loadtxt` rejects the data line ``line`` on its own."""
    text = line.strip()
    fields = text.partition("#")[0].split()
    if len(fields) < 2:
        return f"expected 'u v', got {text!r}"
    if all(_DECIMAL.fullmatch(field) for field in fields[:2]):
        return f"vertex id out of int64 range in {text!r}"
    return f"non-integer vertex in {text!r}"


class _Lines:
    """Unparsed data lines: ``lines`` starts at data line ``at`` of a block
    whose split lines are ``block`` and whose first line is the file's line
    ``first``."""

    __slots__ = ("lines", "block", "first", "at")

    def __init__(self, lines: List[str], block: List[str], first: int, at: int = 0) -> None:
        self.lines = lines
        self.block = block
        self.first = first
        self.at = at

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, cut: slice) -> "_Lines":
        return _Lines(self.lines[cut], self.block, self.first, self.at + cut.start)

    def numbers(self) -> List[int]:
        """The file's line number of each of ``lines``: the block filtered
        again, a cost only a malformed part pays."""
        numbers = [
            number
            for number, line in enumerate(self.block, self.first)
            if (head := line.lstrip()) and head[0] != "#"
        ]
        return numbers[self.at : self.at + len(self.lines)]


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
        When ``True`` (default), edges are canonicalized on the fly (a self
        loop or negative id raises).  Duplicate detection would require
        O(m) memory, defeating the purpose of a file stream, so it is *not*
        performed here; use :class:`~repro.graph.builder.GraphBuilder` to
        sanitize files first.

    Every pass - :meth:`__iter__`, :meth:`iter_chunks`, :meth:`stats` and
    ``len()`` - runs the one block parser, so a malformed line raises the
    same :class:`~repro.errors.StreamError`, naming ``path:lineno``, on
    each.  The statistics and the length come from one sweep, cached.
    """

    def __init__(self, path: str | os.PathLike[str], validate: bool = True) -> None:
        self._path = os.fspath(path)
        self._validate = validate
        self._stats: StreamStats | None = None
        if not os.path.exists(self._path):
            raise StreamError(f"edge-list file not found: {self._path}")

    @property
    def path(self) -> str:
        """The edge-list file this stream reads (snapshot fingerprinting)."""
        return self._path

    def __iter__(self) -> Iterator[Edge]:
        # The batch parser without the fault site: per-edge passes count no
        # ``file.read`` events, as before.
        for block in self._parse_chunks(DEFAULT_CHUNK_EDGES):
            for u, v in block.tolist():  # tolist: Python ints, like the tape
                yield (u, v)

    def _not_text(self, exc: UnicodeDecodeError) -> StreamError:
        """The typed error for a file that is neither a tape nor UTF-8 text."""
        return StreamError(
            f"{self._path}: not an edge tape or UTF-8 edge-list text ({exc.reason})"
        )

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK_EDGES) -> Iterator["numpy.ndarray"]:
        """Parse the file in ``chunk_size``-row batches of int64 pairs.

        The edges :meth:`__iter__` yields (canonicalized when ``validate``
        is set), as :meth:`_parse_chunks` batches them - comments and blank
        lines do not count toward the batch size.  The ``file.read``
        fault-injection site fires once per yielded chunk.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for block in self._parse_chunks(chunk_size):
            _maybe_inject_read_fault(self._path)
            yield block

    def _parse_chunks(self, chunk_size: int) -> Iterator["numpy.ndarray"]:
        """The batch parser, without the fault-injection site - the tape
        conversion and :meth:`__iter__` read through it.

        Yields exactly what one ``numpy.loadtxt`` call per ``chunk_size``
        data lines would: the file's data rows cut into ``chunk_size``-row
        chunks (the last one shorter), each canonicalized when ``validate``
        is set.  The rows come from :meth:`_pieces` as parsed fast-path
        arrays or as unparsed, numbered data lines; a chunk's data lines
        are parsed only once the chunk is complete, so malformed lines,
        self loops and undecodable bytes fail in the order the
        line-by-line batch parser met them, and a malformed line's
        :class:`~repro.errors.StreamError` names its ``path:lineno``.
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

        Each :data:`_BLOCK_BYTES` read is cut after its last line end - a
        ``\\n``, or a ``\\r`` with a whole character behind it - so the
        rest that carries over to the next read stays under one block.  A block
        yields its rows as one ``(n, 2)`` int64 array when
        :func:`_fast_rows` takes it, else its data lines (comment and
        blank lines dropped) as :class:`_Lines`.
        A leading comment header stays off that fallback's cost: the block
        is split after the line holding its last ``#`` and the rest is
        re-checked.  Every read is checked to decode as UTF-8 in the
        regions :data:`_TEXT_CHUNK` describes; at the first region that
        does not, the lines ending before it are yielded and the
        :meth:`_not_text` error is raised.
        """
        decoder = codecs.getincrementaldecoder("utf-8")()
        carry = b""
        lines = 0  # the lines of the blocks before this one
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
                yield from self._block_pieces(np, buffer[:end], lines)
                raise self._not_text(exc)
            if eof:
                if buffer and not buffer.endswith(b"\n"):
                    buffer += b"\n"
                yield from self._block_pieces(np, buffer, lines)
                return
            # Cut after the last line end: a \n, or a \r with a whole
            # character behind it - one ending the read may be the first
            # half of a \r\n, and one before an incomplete UTF-8 tail (at
            # most 3 bytes) waits like the undecodable branch's.
            end = max(buffer.rfind(b"\n"), buffer.rfind(b"\r", 0, len(buffer) - 4)) + 1
            lines += yield from self._block_pieces(np, buffer[:end], lines)
            carry = buffer[end:]

    def _block_pieces(self, np, block: bytes, before: int) -> Generator:
        """One block's pieces; returns its line count.  The block ends with a
        line end, or is empty; ``before`` lines of the file precede it.

        A fast-path block's line count is its row count (its only line end
        is ``\\n``); a header's or fallback block's is that of
        :meth:`_data_lines`' split.
        """
        lines = 0
        header = block.rfind(b"#")
        if header >= 0:
            header = block.find(b"\n", header) + 1 or len(block)
            text, lines = self._data_lines(block[:header], before)
            if text:
                yield text
            block = block[header:]
        rows = _fast_rows(np, block)
        if rows is not None:
            count = len(rows)
        else:
            rows, count = self._data_lines(block, before + lines)
        if len(rows):
            yield rows
        return lines + count

    @staticmethod
    def _data_lines(block: bytes, before: int) -> Tuple[_Lines, int]:
        """The block's data lines, numbered after ``before`` lines, and its
        line count.  Split and filtered as text-mode reading does: ``\\r\\n``
        and a bare ``\\r`` end a line too, and a line that is blank or whose
        first non-space character is ``#`` is dropped."""
        text = block.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        lines.pop()  # the empty rest after the block's last line end
        data = [line for line in lines if (head := line.lstrip()) and head[0] != "#"]
        return _Lines(data, lines, before + 1), len(lines)

    def _chunk(self, np, parts: list) -> "numpy.ndarray":
        """One chunk from its parts, data lines parsed as ``loadtxt`` batches."""
        rows = [self._parse_lines(np, part) if isinstance(part, _Lines) else part for part in parts]
        block = rows[0] if len(rows) == 1 else np.concatenate(rows)
        if self._validate:
            self._canonicalize(np, block)
        return block

    def _parse_lines(self, np, part: _Lines) -> "numpy.ndarray":
        """``part`` through ``numpy.loadtxt``.  On failure, the error names
        the first of its lines that ``loadtxt`` rejects on its own."""
        try:
            return _loadtxt(np, part.lines)
        except ValueError as exc:
            error = exc
        for number, line in zip(part.numbers(), part.lines):
            try:
                _loadtxt(np, [line])
            except ValueError:
                raise StreamError(f"{self._path}:{number}: {_complaint(line)}") from error
        raise StreamError(f"{self._path}: malformed edge-list line ({error})") from error

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
        parsed batch instead of one interpreter iteration per edge.
        """
        if self._stats is None:
            m = 0
            max_vertex = -1
            for block in self.iter_chunks():
                m += len(block)
                max_vertex = max(max_vertex, int(block.max()))
            self._stats = StreamStats(num_edges=m, max_vertex_id=max_vertex)
        return self._stats

    def __len__(self) -> int:
        """The stream length ``m``: the :meth:`stats` sweep's, cached with it."""
        return self.stats().num_edges
