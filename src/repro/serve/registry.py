"""Tape registry: one stream + sweep scheduler per distinct tape content.

Tapes are keyed by the snapshot module's
:func:`~repro.core.snapshot.stream_fingerprint` - a content hash, not a
path - so two requests naming different paths to identical bytes land on
the same entry and share sweeps.  Each entry owns its own open stream
and a started :class:`~repro.serve.scheduler.SweepScheduler`; streams
are never shared across entries, so each scheduler thread is the sole
reader of its tape (the sequential-pass discipline the stream layer
enforces).

Text inputs are converted once, on first touch, into a daemon-private
``.etape`` by :func:`~repro.streams.tape.convert_text` (still keyed by
the *text's* fingerprint), so every served sweep is a zero-copy mmap scan
rather than a re-parse.  The text is fingerprinted before it is
converted, so content already registered costs no conversion.
``.etape`` inputs are served in place.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.snapshot import stream_fingerprint
from ..errors import ServeError
from ..streams.base import EdgeStream
from ..streams.file import FileEdgeStream
from ..streams.tape import MmapEdgeStream, convert_text, is_tape
from .scheduler import SweepScheduler


@dataclass
class TapeEntry:
    """One registered tape: its content hash, stream, and scheduler."""

    fingerprint_hex: str
    path: str  # first path this content was seen under (diagnostics only)
    stream: EdgeStream
    scheduler: SweepScheduler
    source: str = "tape"  # "text" when the daemon converted the input
    convert_s: float = 0.0
    jobs_submitted: int = 0


class TapeRegistry:
    """Opens tapes on demand and hands out their shared schedulers."""

    def __init__(self, batch_window: float = 0.0) -> None:
        self._batch_window = batch_window
        self._lock = threading.Lock()  # guards _entries
        # Single-flight opening: held while unregistered content is
        # converted and registered, never by lookups of known content.
        self._open_lock = threading.Lock()
        self._entries: Dict[str, TapeEntry] = {}
        self._tape_dir: Optional[str] = None
        self._closed = False

    @property
    def tape_dir(self) -> Optional[str]:
        """The private directory of converted text inputs, once created."""
        return self._tape_dir

    def entry_for(self, path: str) -> TapeEntry:
        """The entry serving ``path``'s content, opening it if new.

        Blocking (opens and fingerprints the file, and converts new text
        content to a tape) - the daemon calls it off the event loop.
        Raises the stream layer's typed errors
        (:class:`~repro.errors.StreamError` and friends, including a
        malformed line met while converting) or ``OSError`` for
        missing/unreadable inputs.
        """
        stream = MmapEdgeStream(path) if is_tape(path) else FileEdgeStream(path)
        fingerprint_hex = stream_fingerprint(stream).hex()
        with self._lock:
            entry = self._entries.get(fingerprint_hex)
        if entry is not None:
            return entry
        with self._open_lock:
            with self._lock:
                entry = self._entries.get(fingerprint_hex)
            if entry is not None:
                return entry
            if self._closed:
                raise ServeError("the daemon is shutting down")
            source, convert_s = "tape", 0.0
            if isinstance(stream, FileEdgeStream):
                if self._tape_dir is None:
                    self._tape_dir = tempfile.mkdtemp(prefix="repro-serve-")
                start = time.perf_counter()
                stream = convert_text(stream, self._tape_dir)
                source, convert_s = "text", time.perf_counter() - start
            entry = TapeEntry(
                fingerprint_hex=fingerprint_hex,
                path=path,
                stream=stream,
                scheduler=SweepScheduler(stream, batch_window=self._batch_window).start(),
                source=source,
                convert_s=convert_s,
            )
            with self._lock:
                self._entries[fingerprint_hex] = entry
            return entry

    def entries(self) -> List[TapeEntry]:
        with self._lock:
            return list(self._entries.values())

    def shutdown(self) -> None:
        """Drain and stop every tape's scheduler, then drop converted tapes.

        The private directory is removed only once every sweep thread has
        exited: a thread still draining past the join timeout keeps
        reading its tape, so its directory is left in place.
        """
        with self._open_lock:
            self._closed = True
        exited = [entry.scheduler.shutdown() for entry in self.entries()]
        if self._tape_dir is not None and all(exited):
            shutil.rmtree(self._tape_dir, ignore_errors=True)
