"""The line-loop text parser that the byte-block parser replaced, as an oracle.

:func:`line_loop_parse_chunks` is the former ``FileEdgeStream._parse_chunks``:
it reads the file as text, skips comment and blank lines in a Python loop,
and parses each ``chunk_size``-line batch with one ``numpy.loadtxt`` call.
The parser-equivalence tests compare the byte-block parser with it on rows,
chunk lengths and every error's type and message.  It reuses only the
stream's ``_not_text`` error.  A batch that ``loadtxt`` rejects is
diagnosed by the oracle's own rule: the first line its text loop reads
that ``loadtxt`` rejects on its own, numbered, in the stream's words.
"""

from __future__ import annotations

import re
from typing import Iterator

import numpy as np

from repro.errors import StreamError, StreamReadError
from repro.streams import FileEdgeStream
from repro.types import canonical_edge


def _rejected_line(stream: FileEdgeStream, exc: Exception) -> StreamError:
    """The error naming the file's first line ``loadtxt`` rejects alone."""
    with open(stream.path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                np.loadtxt([line], dtype=np.int64, comments="#", usecols=(0, 1), ndmin=2)
            except ValueError:
                fields = text.partition("#")[0].split()
                if len(fields) < 2:
                    why = f"expected 'u v', got {text!r}"
                elif all(re.fullmatch(r"[+-]?[0-9]+", field) for field in fields[:2]):
                    why = f"vertex id out of int64 range in {text!r}"
                else:
                    why = f"non-integer vertex in {text!r}"
                return StreamError(f"{stream.path}:{lineno}: {why}")
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
                raise _rejected_line(stream, exc) from exc
            block = block.reshape(-1, 2)
            if stream._validate:
                block = _canonicalize(stream, block)
            yield block
            if len(lines) < chunk_size:
                return
