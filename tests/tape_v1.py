"""Version-1 ``.etape`` tapes, written the way the version-1 writer wrote them.

The writer now writes version 2 (narrow int32 rows when every id lies in
``[0, 2^31)``); readers must keep reading version-1 tapes exactly as
before.  :func:`write_v1_tape` builds one from any rows, byte for byte
what the version-1 writer produced: a version-1 header (flag bit 0 only)
over the rows as little-endian int64 pairs.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.streams.tape import _HEADER_STRUCT, FLAG_CANONICAL, MAGIC


def write_v1_tape(rows, path) -> None:
    """Write ``rows`` (an ``(m, 2)`` array or edge list) as a version-1 tape."""
    rows = np.ascontiguousarray(np.asarray(rows, dtype=np.int64).reshape(-1, 2), dtype="<i8")
    payload = rows.tobytes()
    u, v = rows[:, 0], rows[:, 1]
    flags = FLAG_CANONICAL if bool((u >= 0).all() and (u < v).all()) else 0
    max_vertex = int(rows.max()) if len(rows) else -1
    header = _HEADER_STRUCT.pack(
        MAGIC, 1, flags, len(rows), max_vertex, max_vertex + 1, zlib.crc32(payload)
    )
    with open(path, "wb") as out:
        out.write(header + payload)
