"""The line-loop text parser that the byte-block parser replaced, as an oracle.

:func:`line_loop_parse_chunks` is the former ``FileEdgeStream._parse_chunks``:
it reads the file as text, skips comment and blank lines in a Python loop,
and parses each ``chunk_size``-line batch with one ``numpy.loadtxt`` call.
The parser-equivalence tests compare the byte-block parser with it on rows,
chunk lengths and every error's type and message.  It reuses only the
stream's per-line diagnostics (``__iter__``, ``_not_text``), which the
byte-block parser did not change.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import StreamError, StreamReadError
from repro.streams import FileEdgeStream
from repro.types import canonical_edge


def _line_numbered_error(stream: FileEdgeStream, exc: Exception) -> StreamError:
    try:
        for _ in stream:
            pass
    except StreamError as located:
        return located
    return StreamError(f"{stream.path}: malformed edge-list line ({exc})")


def _canonicalize(stream: FileEdgeStream, block: np.ndarray) -> np.ndarray:
    u, v = block[:, 0], block[:, 1]
    bad = (u == v) | (u < 0) | (v < 0)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        canonical_edge(int(u[row]), int(v[row]))  # raises with the standard message
        raise StreamError(f"{stream.path}: unreachable")
    return np.column_stack((np.minimum(u, v), np.maximum(u, v)))


def line_loop_parse_chunks(stream: FileEdgeStream, chunk_size: int) -> Iterator[np.ndarray]:
    """The batches the line-loop parser yielded for ``stream``, in order."""
    try:
        handle = open(stream.path, "r", encoding="utf-8")
    except OSError as exc:
        raise StreamReadError(f"{stream.path}: cannot open for chunked read: {exc}") from exc
    with handle:
        while True:
            lines = []
            try:
                for line in handle:
                    head = line.lstrip()
                    if not head or head[0] == "#":
                        continue
                    lines.append(line)
                    if len(lines) == chunk_size:
                        break
            except OSError as exc:
                raise StreamReadError(
                    f"{stream.path}: I/O error during chunked read: {exc}"
                ) from exc
            except UnicodeDecodeError as exc:
                raise stream._not_text(exc) from exc
            if not lines:
                return
            try:
                block = np.loadtxt(lines, dtype=np.int64, comments="#", usecols=(0, 1), ndmin=2)
            except ValueError as exc:
                raise _line_numbered_error(stream, exc) from exc
            block = block.reshape(-1, 2)
            if stream._validate:
                block = _canonicalize(stream, block)
            yield block
            if len(lines) < chunk_size:
                return
