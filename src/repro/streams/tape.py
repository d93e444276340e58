"""The packed binary ``.etape`` tape format and its mmap-backed stream.

Multi-pass estimates re-read the whole tape once per physical sweep, so a
text edge list would be re-parsed on every sweep.  The ``.etape`` format
stores the *parsed* tape once: a 64-byte header followed by the edges as
a contiguous C-order little-endian ``int32[m, 2]`` array when every id
lies in ``[0, 2^31)`` (8 bytes per edge), else as ``int64[m, 2]``
(16 bytes per edge).  Re-sweeps then become memory-bandwidth-bound
instead of parse-bound:

* :meth:`MmapEdgeStream.iter_chunks` yields zero-copy read-only slices
  of the memory-mapped payload (no parsing, no allocation per sweep), in
  the tape's own row width;
* ``stats()`` / ``len()`` come straight from the header in O(1) - no
  statistics sweep at all;
* threaded sweeps hand those same slices to every worker thread.

Every estimate sweeps a tape: :func:`open_edge_stream` maps an ``.etape``
file in place and converts a text edge list (:func:`convert_text`) into a
private tape when it opens it.

Header layout (64 bytes, all integers little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       8     magic  b"\\x89ETAPE\\r\\n"
    8       4     format version (1 or 2; the writer writes 2)
    12      4     flags (bit 0: every row is canonical 0 <= u < v;
                  bit 1, version 2 only: narrow rows, two int32 ids)
    16      8     edge count m
    24      8     max vertex id (-1 for an empty tape)
    32      8     vertex bound n  (= max vertex id + 1)
    40      8     CRC-32 of the payload bytes (zero-extended)
    48      16    reserved (zero)

A version-1 tape always holds int64 rows and reads exactly as before.
The writer picks narrow rows while every id seen lies in ``[0, 2^31)``;
the first id outside widens the rows already written in place (the CRC
is of the bytes the tape ends up holding), so a wide tape is never
silently narrowed.  ``repro convert``, ``stats`` and ``tape-info`` print
the width.

Structural violations raise :class:`~repro.errors.TapeFormatError`.  The
checksum is computed by the writer (which touches every byte anyway) and
verified on demand by :func:`verify_tape` - *not* at open, which would
forfeit the O(1) ``stats``.  :func:`tape_fingerprint` hashes the header
plus a strided sample of payload rows into a content fingerprint that is
stable across byte-identical rewrites and cheap even for huge tapes.
:func:`~repro.core.snapshot.stream_fingerprint` wraps it for tapes, and
that digest is what snapshots bind to and what the serving daemon keys
its tape registry and result cache on.

A tape converted from text reports the *text's*
:func:`~repro.core.snapshot.stream_fingerprint`
(:attr:`MmapEdgeStream.source_digest`): a snapshot written by a run on
the text resumes on its converted tape, and the daemon keys a text input
by the text's digest.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import struct
import tempfile
import weakref
import zlib
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from ..errors import StreamError, StreamReadError, TapeFormatError
from ..types import Edge
from .base import DEFAULT_CHUNK_EDGES, EdgeStream, StreamStats
from .file import FileEdgeStream, _maybe_inject_read_fault

#: Leading magic bytes: the PNG trick - a high bit to trip text-mode
#: transfers, a human-greppable name, and a CR/LF pair that a newline
#: translation would mangle.
MAGIC = b"\x89ETAPE\r\n"

#: The format version the writer writes; version 1 tapes still read.
VERSION = 2

#: Fixed header size; the payload starts at this offset.
HEADER_BYTES = 64

#: Header flag bit 0: every payload row satisfies ``0 <= u < v``.
FLAG_CANONICAL = 1

#: Header flag bit 1 (version 2): rows are two int32 ids, all in
#: ``[0, NARROW_LIMIT)``; without it rows are two int64 ids.
FLAG_NARROW = 2

#: Ids in ``[0, NARROW_LIMIT)`` fit a narrow row.
NARROW_LIMIT = 1 << 31

#: Row id dtypes: narrow (8 bytes per edge) and wide (16 bytes per edge).
NARROW, WIDE = np.dtype("<i4"), np.dtype("<i8")

#: ``<`` = little-endian: 8s magic, I version, I flags, q edges,
#: q max vertex, q vertex bound, Q checksum, 16x reserved = 64 bytes.
_HEADER_STRUCT = struct.Struct("<8sIIqqqQ16x")

#: Strided-fingerprint sampling: up to this many blocks of this many rows.
_SAMPLE_BLOCKS = 64
_SAMPLE_ROWS = 1024

@dataclass(frozen=True)
class TapeHeader:
    """The decoded fixed header of one ``.etape`` file."""

    version: int
    flags: int
    num_edges: int
    max_vertex_id: int
    num_vertices_upper: int
    checksum: int
    #: The raw 64 header bytes, kept for fingerprinting.
    raw: bytes

    @property
    def canonical(self) -> bool:
        """Whether every payload row satisfies ``0 <= u < v``."""
        return bool(self.flags & FLAG_CANONICAL)

    @property
    def id_dtype(self) -> np.dtype:
        """The dtype of one payload id: :data:`NARROW` or :data:`WIDE`."""
        return NARROW if self.flags & FLAG_NARROW else WIDE

    @property
    def row_bytes(self) -> int:
        """Bytes per edge row: 8 (narrow) or 16 (wide)."""
        return 2 * self.id_dtype.itemsize

    @property
    def width(self) -> str:
        """The row width, as ``repro convert``, ``stats`` and ``tape-info``
        print it; a wide tape says why it is wide."""
        width = f"{8 * self.id_dtype.itemsize}-bit ids, {self.row_bytes} bytes per edge"
        if self.flags & FLAG_NARROW:
            return width
        if self.version == 1:
            return f"{width} (version 1)"
        return f"{width} (an id lies outside [0, 2^31))"

    @property
    def payload_bytes(self) -> int:
        """Exact payload size implied by the edge count and row width."""
        return self.num_edges * self.row_bytes


def is_tape(path: Union[str, "os.PathLike[str]"]) -> bool:
    """Whether ``path`` starts with the ``.etape`` magic bytes.

    Unreadable or too-short files answer ``False`` (the caller's text
    path then raises its own, more specific error).
    """
    try:
        with open(os.fspath(path), "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def read_header(path: Union[str, "os.PathLike[str]"]) -> TapeHeader:
    """Decode and structurally validate the header of one ``.etape`` file.

    Checks, in order: the file opens, the header is complete, the magic
    matches, the version is supported, every count is sane, and the file
    size equals header plus the payload the edge count implies (so a
    truncated - or padded - tape is rejected here, not as a garbage
    sweep later).  Violations raise
    :class:`~repro.errors.TapeFormatError`.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read(HEADER_BYTES)
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
    except OSError as exc:
        raise StreamError(f"tape file not found or unreadable: {path}: {exc}") from exc
    if len(raw) < HEADER_BYTES:
        raise TapeFormatError(
            f"{path}: truncated tape header ({len(raw)} of {HEADER_BYTES} bytes)"
        )
    magic, version, flags, m, max_vertex, n_upper, checksum = _HEADER_STRUCT.unpack(raw)
    if magic != MAGIC:
        raise TapeFormatError(f"{path}: bad magic {magic!r}; not an .etape tape")
    if version not in (1, VERSION):
        raise TapeFormatError(
            f"{path}: unsupported tape version {version} (this build reads 1 and {VERSION})"
        )
    narrow = flags & FLAG_NARROW
    if (
        m < 0
        or max_vertex < -1
        or n_upper != max_vertex + 1
        or (narrow and (version == 1 or max_vertex >= NARROW_LIMIT))
    ):
        raise TapeFormatError(
            f"{path}: corrupt header (version={version}, flags={flags:#x}, m={m}, "
            f"max_vertex={max_vertex}, n={n_upper})"
        )
    header = TapeHeader(
        version=version,
        flags=flags,
        num_edges=m,
        max_vertex_id=max_vertex,
        num_vertices_upper=n_upper,
        checksum=checksum,
        raw=raw,
    )
    expected = HEADER_BYTES + header.payload_bytes
    if size != expected:
        raise TapeFormatError(
            f"{path}: payload size mismatch - header promises {m} edges "
            f"({expected} bytes total), file has {size} bytes"
        )
    return header


def _sample_starts(m: int) -> Iterator[int]:
    """Deterministic strided sample offsets covering first and last rows."""
    if m <= _SAMPLE_BLOCKS * _SAMPLE_ROWS:
        return iter(range(0, m, _SAMPLE_ROWS))  # small tape: hash it all
    last = m - _SAMPLE_ROWS
    return iter(sorted({(i * last) // (_SAMPLE_BLOCKS - 1) for i in range(_SAMPLE_BLOCKS)}))


def tape_fingerprint(path: Union[str, "os.PathLike[str]"]) -> str:
    """Content fingerprint: SHA-256 of the header plus strided row samples.

    The header already pins ``m``, the vertex bound, the flags, and the
    writer's full-payload CRC-32; the strided samples (up to
    :data:`_SAMPLE_BLOCKS` blocks of :data:`_SAMPLE_ROWS` rows, always
    including the first and last rows) additionally bind the fingerprint
    to payload bytes directly, so it is stable across byte-identical
    rewrites, changes whenever content changes, and costs O(1) reads on
    tapes of any size.  :func:`~repro.core.snapshot.stream_fingerprint`
    wraps it (domain-tagged) for tape inputs, and the serving daemon
    keys its tape registry and result cache on that digest; a text input
    is keyed by the text's own fingerprint instead, even though the
    daemon serves it from a converted tape.
    """
    path = os.fspath(path)
    header = read_header(path)
    digest = hashlib.sha256()
    digest.update(header.raw)
    if header.num_edges:
        try:
            with open(path, "rb") as handle:
                for start in _sample_starts(header.num_edges):
                    rows = min(_SAMPLE_ROWS, header.num_edges - start)
                    handle.seek(HEADER_BYTES + start * header.row_bytes)
                    digest.update(handle.read(rows * header.row_bytes))
        except OSError as exc:
            raise StreamReadError(f"{path}: cannot read tape for fingerprint: {exc}") from exc
    return digest.hexdigest()


def verify_tape(path: Union[str, "os.PathLike[str]"]) -> TapeHeader:
    """Full-payload checksum verification (one sequential read).

    Opening a tape validates structure only; this re-reads the payload
    and checks the writer's CRC-32, raising
    :class:`~repro.errors.TapeFormatError` on mismatch.  Used by
    ``repro convert --validate`` and available to callers that want the
    stronger guarantee before long runs.
    """
    path = os.fspath(path)
    header = read_header(path)
    try:
        with open(path, "rb") as handle:
            handle.seek(HEADER_BYTES)
            crc = _crc_to_end(handle)
    except OSError as exc:
        raise StreamReadError(f"{path}: cannot read tape for verification: {exc}") from exc
    if crc != header.checksum:
        raise TapeFormatError(
            f"{path}: payload checksum mismatch "
            f"(header {header.checksum:#010x}, payload {crc:#010x})"
        )
    return header


def write_tape(
    source: Union[str, "os.PathLike[str]", EdgeStream],
    path: Union[str, "os.PathLike[str]"],
    chunk_size: int = DEFAULT_CHUNK_EDGES,
) -> TapeHeader:
    """Stream ``source`` into an ``.etape`` file at ``path``, bounded memory.

    ``source`` is an :class:`~repro.streams.base.EdgeStream` or a file
    path (auto-detected: a text edge list is parsed through
    :class:`~repro.streams.file.FileEdgeStream`, an existing tape is
    copied through the same streaming path).  Rows are written exactly in
    stream order - conversion never reorders or canonicalizes, so the
    tape replays the identical sequence and estimates stay bit-identical.
    The canonical and narrow header flags, the extrema, and the payload
    CRC-32 are accumulated per chunk while streaming; the header is
    patched in at the end.  Returns the written :class:`TapeHeader`.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if isinstance(source, (str, os.PathLike)):
        source = MmapEdgeStream(source) if is_tape(source) else FileEdgeStream(source)
    return _write_blocks(source.iter_chunks(chunk_size), os.fspath(path))


def _write_blocks(blocks: Iterator[np.ndarray], path: str) -> TapeHeader:
    """The body of :func:`write_tape`: one pass over ``blocks`` into ``path``.

    Rows are written narrow until a block holds an id outside
    ``[0, NARROW_LIMIT)``; from then on they are wide, and the rows
    already written are widened first (:func:`_widen`).
    """
    m = 0
    max_vertex = -1
    crc = 0
    canonical = True
    narrow = True
    with open(path, "w+b") as out:
        out.write(b"\x00" * HEADER_BYTES)
        for block in blocks:
            if not len(block):
                continue
            high = int(block.max())
            if narrow and (high >= NARROW_LIMIT or int(block.min()) < 0):
                crc = _widen(out, m)
                narrow = False
            m += len(block)
            max_vertex = max(max_vertex, high)
            if canonical:
                u, v = block[:, 0], block[:, 1]
                canonical = bool((u >= 0).all() and (u < v).all())
            rows = np.ascontiguousarray(block, dtype=NARROW if narrow else WIDE)
            payload = rows.data  # the contiguous rows' own buffer
            crc = zlib.crc32(payload, crc)
            out.write(payload)
        # An empty tape is trivially canonical and narrow.
        flags = (FLAG_CANONICAL if canonical else 0) | (FLAG_NARROW if narrow else 0)
        raw = _HEADER_STRUCT.pack(MAGIC, VERSION, flags, m, max_vertex, max_vertex + 1, crc)
        out.seek(0)
        out.write(raw)
    return TapeHeader(
        version=VERSION,
        flags=flags,
        num_edges=m,
        max_vertex_id=max_vertex,
        num_vertices_upper=max_vertex + 1,
        checksum=crc,
        raw=raw,
    )


def _widen(out, m: int) -> int:
    """Rewrite the ``m`` narrow rows written to ``out`` as wide rows, in
    place, and return the CRC-32 of the widened payload.

    Pieces of :data:`DEFAULT_CHUNK_EDGES` rows are widened last first, so
    a piece's wide bytes only cover narrow bytes already read; ``out`` is
    left at the payload's end.
    """
    step = DEFAULT_CHUNK_EDGES
    for start in reversed(range(0, m, step)):
        rows = min(step, m - start)
        out.seek(HEADER_BYTES + start * 2 * NARROW.itemsize)
        piece = np.frombuffer(out.read(rows * 2 * NARROW.itemsize), dtype=NARROW)
        out.seek(HEADER_BYTES + start * 2 * WIDE.itemsize)
        out.write(piece.astype(WIDE).data)
    out.seek(HEADER_BYTES)
    return _crc_to_end(out)


def _crc_to_end(handle) -> int:
    """CRC-32 of ``handle``'s bytes from its position to the end."""
    crc = 0
    while True:
        piece = handle.read(1 << 20)
        if not piece:
            return crc
        crc = zlib.crc32(piece, crc)


def convert_text(text: FileEdgeStream, directory: str) -> "MmapEdgeStream":
    """Parse ``text`` once into ``<text fingerprint>.etape`` under ``directory``.

    The tape holds exactly the rows the text parser yields, in stream
    order, so estimates over it are bit-identical; the returned stream
    reports the text's :func:`~repro.core.snapshot.stream_fingerprint` as
    its own (:attr:`MmapEdgeStream.source_digest`) and names the text in
    its read errors (:attr:`MmapEdgeStream.display_name`).  The parse does not
    count ``file.read`` fault events: injection schedules land in the
    estimate's sweeps of the tape, at the same chunk indices as on an
    ``.etape`` input.  The tape is written under a temporary name and
    renamed into place, so a failed conversion (a malformed line raises
    the parser's line-numbered :class:`~repro.errors.StreamError`) leaves
    no file behind.
    """
    from ..core.snapshot import stream_fingerprint  # core imports streams

    digest = stream_fingerprint(text)
    tape = os.path.join(directory, f"{digest.hex()}.etape")
    partial = tape + ".tmp"
    try:
        _write_blocks(text._parse_chunks(DEFAULT_CHUNK_EDGES), partial)
        os.replace(partial, tape)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise
    stream = MmapEdgeStream(tape)
    stream.source_digest = digest
    stream.display_name = text.path
    return stream


def open_edge_stream(
    path: Union[str, "os.PathLike[str]"], validate: bool = True
) -> "MmapEdgeStream":
    """Open a tape file as an :class:`MmapEdgeStream`, sniffing the magic bytes.

    An ``.etape`` file is mapped in place; anything else is parsed as a
    text edge list (:class:`FileEdgeStream`, with ``validate`` forwarded)
    and converted into a private tape (8 bytes per edge when every id
    lies in ``[0, 2^31)``, else 16; see the module docstring) in a fresh
    ``tempfile.mkdtemp`` directory, removed when the returned stream is
    collected or the interpreter exits.  Nothing is cached across calls:
    the text fingerprint only samples bytes, so a cache keyed on it could
    hand back a stale tape after an in-place edit that keeps the size.
    This is the single auto-detection point every file-loading entry
    point (CLI, harness, bench suite) goes through, so both formats are
    accepted transparently everywhere.
    """
    if is_tape(path):
        return MmapEdgeStream(path)
    text = FileEdgeStream(path, validate=validate)
    directory = tempfile.mkdtemp(prefix="repro-tape-")
    try:
        stream = convert_text(text, directory)
    except BaseException:
        shutil.rmtree(directory, ignore_errors=True)
        raise
    weakref.finalize(stream, shutil.rmtree, directory, ignore_errors=True)
    return stream


class MmapEdgeStream(EdgeStream):
    """A replayable zero-copy stream over one memory-mapped ``.etape`` file.

    The header is decoded (and structurally validated) at construction,
    so ``stats()`` and ``len()`` are O(1) and raise nothing later; the
    payload is mapped lazily on the first chunked pass and every chunk is
    a read-only slice of that one mapping - a sweep performs no parsing,
    no copies, and no allocation beyond the view objects.

    ``source_digest`` is ``None`` for a tape opened in place; a tape
    :func:`convert_text` wrote holds the text's stream fingerprint there.
    ``display_name`` is the file that read errors name: the tape's path,
    or the text's path for a converted tape.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"]) -> None:
        self._path = os.path.abspath(os.fspath(path))
        self._header = read_header(self._path)
        self._rows_map: Optional[np.ndarray] = None
        self._fingerprint: Optional[str] = None
        #: The stream fingerprint of the text this tape was converted from.
        self.source_digest: Optional[bytes] = None
        #: The file read errors name (the text's path for a converted tape).
        self.display_name: str = self._path

    @property
    def path(self) -> str:
        """Absolute path of the mapped tape file."""
        return self._path

    @property
    def header(self) -> TapeHeader:
        """The decoded tape header."""
        return self._header

    def _check_intact(self) -> None:
        """Cheap per-pass structural re-check (one ``stat`` call).

        The mapping pins the header's promises at open; a tape truncated
        or replaced underneath a later pass would otherwise surface as a
        garbage scan (or a bus error on a shrunk mapping); the typed
        error fails the estimate instead once retries run out.
        """
        try:
            size = os.stat(self._path).st_size
        except OSError as exc:
            raise StreamReadError(f"{self.display_name}: tape vanished mid-run: {exc}") from exc
        expected = HEADER_BYTES + self._header.payload_bytes
        if size != expected:
            raise TapeFormatError(
                f"{self.display_name}: tape changed size mid-run "
                f"({size} bytes, header promises {expected})"
            )

    def _rows(self) -> np.ndarray:
        """The ``(m, 2)`` read-only mapped payload, mapped once per stream,
        in the header's id dtype (int32 rows are never widened here).

        A plain-ndarray view whose base is the ``np.memmap``: slicing and
        viewing an ``np.memmap`` runs its Python ``__array_finalize__``
        per chunk and per kernel reshape; the view keeps the map alive
        without that cost.
        """
        if self._rows_map is None:
            if self._header.num_edges == 0:
                self._rows_map = np.empty((0, 2), dtype=self._header.id_dtype)
            else:
                try:
                    self._rows_map = np.memmap(
                        self._path,
                        dtype=self._header.id_dtype,
                        mode="r",
                        offset=HEADER_BYTES,
                        shape=(self._header.num_edges, 2),
                    ).view(np.ndarray)
                except (OSError, ValueError) as exc:
                    raise StreamReadError(
                        f"{self._path}: cannot map tape payload: {exc}"
                    ) from exc
        return self._rows_map

    def __iter__(self) -> Iterator[Edge]:
        self._check_intact()
        for block in self.iter_chunks():
            for u, v in block.tolist():  # tolist: Python ints, like the text path
                yield (u, v)

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK_EDGES) -> Iterator[np.ndarray]:
        """Zero-copy chunked pass: read-only slices of the mapped payload.

        The ``file.read`` fault-injection site fires once per yielded
        chunk, exactly like the text parser's batches, so injection
        schedules land at the same points on either format.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self._check_intact()
        rows = self._rows()
        for start in range(0, len(rows), chunk_size):
            _maybe_inject_read_fault(self.display_name)
            yield rows[start : start + chunk_size]

    def stats(self) -> StreamStats:
        """O(1): both statistics come straight from the header."""
        return StreamStats(
            num_edges=self._header.num_edges, max_vertex_id=self._header.max_vertex_id
        )

    def __len__(self) -> int:
        return self._header.num_edges

    def fingerprint(self) -> str:
        """The tape's content fingerprint (see :func:`tape_fingerprint`)."""
        if self._fingerprint is None:
            self._fingerprint = tape_fingerprint(self._path)
        return self._fingerprint
