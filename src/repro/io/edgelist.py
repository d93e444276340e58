"""Reading and writing whitespace-separated edge-list files.

The format is the SNAP-style "u v" per line with ``#`` comments.  Reading
parses text with :class:`~repro.streams.file.FileEdgeStream`'s block
parser - the one edge-list grammar every reader shares - and collects the
edges in a :class:`~repro.graph.builder.GraphBuilder`, so callers choose how
to treat the dirt real files contain (duplicates, self-loops); writing emits
canonical sorted order so files are deterministic and diff-friendly.
"""

from __future__ import annotations

import os
from typing import Iterable

from ..graph.adjacency import Graph
from ..graph.builder import GraphBuilder


def read_edgelist(
    path: str | os.PathLike[str],
    on_duplicate: str = "ignore",
    on_self_loop: str = "ignore",
) -> Graph:
    """Parse an edge-list file into a :class:`Graph`.

    Defaults are permissive (drop duplicates and self-loops) because that is
    what real edge-list files need; pass ``"error"`` policies for strict
    ingestion.  Malformed lines always raise
    :class:`~repro.errors.StreamError` naming the offending ``path:lineno``.

    The format is auto-detected by magic bytes: a binary ``.etape`` tape
    (:mod:`repro.streams.tape`) is ingested through its mapped payload,
    anything else parses as text.
    """
    from ..streams.file import FileEdgeStream
    from ..streams.tape import MmapEdgeStream, is_tape

    path = os.fspath(path)
    stream = MmapEdgeStream(path) if is_tape(path) else FileEdgeStream(path, validate=False)
    builder = GraphBuilder(on_duplicate=on_duplicate, on_self_loop=on_self_loop)
    for u, v in stream:
        builder.add_edge(u, v)
    return builder.build()


def write_edgelist(
    graph: Graph, path: str | os.PathLike[str], header: Iterable[str] = ()
) -> None:
    """Write ``graph`` as a canonical sorted edge list.

    ``header`` lines are emitted as ``#`` comments at the top.
    """
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        for line in header:
            handle.write(f"# {line}\n")
        for u, v in graph.edge_list():
            handle.write(f"{u} {v}\n")
