"""Durable round-boundary snapshots: the ``.esnap`` container and writer.

PR 6's fault layer survives in-process failures; this module survives
*process death*.  The guessing loop (see :mod:`repro.core.driver`) is a
sequence of committed rounds, and everything the loop carries across a
round boundary is small and explicit: the root generator's state, the
committed :class:`~repro.core.driver.GuessRound` trajectory, the
pass/sweep accounting, and the degradations the recovery ladder recorded.
A snapshot serializes exactly that state, so a run killed between rounds
``k`` and ``k+1`` resumes from round ``k+1`` with bit-identical results -
the same invariant the retry machinery pins for in-process recovery.

The container mirrors the ``.etape`` discipline (:mod:`repro.streams.tape`):

* PNG-style magic bytes (:data:`MAGIC`) so text-mode transfers and format
  confusion are caught immediately;
* a fixed little-endian header (:data:`HEADER_BYTES` bytes) carrying the
  format version, the committed round index, the payload length, a
  CRC-32 of the payload, a SHA-256 *config hash* over the
  trajectory-relevant configuration, and a SHA-256 *stream fingerprint*
  over the input's content;
* a UTF-8 JSON payload with the full estimator state.

Validation is layered to match the failure modes: structural damage
(truncation, bad magic, bad CRC, future version) raises
:class:`~repro.errors.SnapshotFormatError` and the loader falls back to
the previous file in the rotation; a structurally valid snapshot whose
config hash or stream fingerprint disagrees with the resuming run raises
the *hard* :class:`~repro.errors.SnapshotMismatchError` - silently
continuing a different run's trajectory is the one thing durability must
never do.

Writes are atomic and crash-ordered: payload to a temp file in the
checkpoint directory, ``fsync``, ``os.replace`` onto the rotation name,
then a directory ``fsync`` - a ``kill -9`` at any instruction leaves
either the old snapshot or the new one, never a torn file.  The writer
keeps the last ``K`` snapshots (:data:`DEFAULT_KEEP`, via
``REPRO_SNAPSHOT_KEEP``) and persists every ``snapshot_every`` committed
rounds (``REPRO_SNAPSHOT_EVERY``, default every round).  Write failures
flow through the standard fault machinery: the ``snapshot.write``
injection site, the retry policy, and on exhaustion the
``snapshot->skip`` ladder step - the run finishes without further
checkpoints rather than failing, because durability is an add-on, never
a correctness dependency.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import (
    SnapshotFormatError,
    SnapshotWriteError,
)
from . import faults as faults_module
from .knobs import resolve_int

#: Leading magic bytes - same construction as the tape's: high bit, a
#: greppable name, and a CR/LF pair that newline translation would mangle.
MAGIC = b"\x89ESNAP\r\n"

#: Current (and only) snapshot format version.
VERSION = 1

#: Fixed header size; the JSON payload starts at this offset.
HEADER_BYTES = 112

#: ``<`` = little-endian: 8s magic, I version, I flags, q round index,
#: q payload length, Q payload CRC-32 (zero-extended), 32s config hash,
#: 32s stream fingerprint, 8x reserved = 112 bytes.
_HEADER_STRUCT = struct.Struct("<8sIIqqQ32s32s8x")

#: Rotation filename pattern: ``snap-r000017.esnap`` = state *entering*
#: round 17 (rounds 0..16 committed).
_NAME_PREFIX = "snap-r"
_NAME_SUFFIX = ".esnap"

#: Default keep-last-K rotation depth.
DEFAULT_KEEP = 3

#: Strided fingerprint sampling for text edge-list files (same policy as
#: the tape fingerprint: bounded reads on inputs of any size).
_SAMPLE_BLOCKS = 64
_SAMPLE_BYTES = 1 << 16


# ---------------------------------------------------------------------------
# knob resolution (config field -> environment -> default)


def resolve_checkpoint_dir(value: Optional[str] = None) -> Optional[str]:
    """The effective checkpoint directory, or ``None`` when disabled.

    ``value`` (the ``EstimatorConfig.checkpoint_dir`` field / CLI
    ``--checkpoint-dir``) wins; otherwise ``REPRO_CHECKPOINT_DIR``; an
    empty string either way means "disabled".
    """
    if value is None:
        value = os.environ.get("REPRO_CHECKPOINT_DIR", "")
    value = str(value).strip()
    return value or None


def resolve_snapshot_every(value: Optional[int] = None) -> int:
    """Committed rounds between persisted snapshots (default 1)."""
    return resolve_int(value, "REPRO_SNAPSHOT_EVERY", 1)


def resolve_snapshot_keep(value: Optional[int] = None) -> int:
    """Rotation depth: how many snapshots to retain (default 3)."""
    return resolve_int(value, "REPRO_SNAPSHOT_KEEP", DEFAULT_KEEP)


# ---------------------------------------------------------------------------
# hashing: what identifies "the same run"


def config_hash(state: Dict[str, object], kappa: int) -> bytes:
    """SHA-256 over the trajectory-relevant configuration.

    ``state`` is the config document the driver stores in the payload
    (see ``driver._config_state``); only the fields that determine the
    estimate trajectory participate - seed, accuracy, repetitions, the
    parameter-plan mode and constants, the hint, the budget and round
    caps, plus the promise ``kappa``.
    Engine and robustness knobs are deliberately excluded: results are
    bit-identical at any engine setting, so a run checkpointed under one
    setting may legitimately resume under another.
    """
    relevant = {
        key: state.get(key)
        for key in (
            "epsilon",
            "repetitions",
            "mode",
            "constants",
            "seed",
            "t_hint",
            "space_budget_words",
            "max_rounds",
        )
    }
    # Repetitions always share their passes now; hashing the retired
    # switch's old default keeps snapshots written before it went valid.
    relevant["share_passes"] = True
    relevant["kappa"] = kappa
    canonical = json.dumps(relevant, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).digest()


def _file_fingerprint(path: str, tag: bytes) -> bytes:
    """Size plus strided byte samples of ``path``, SHA-256 digested."""
    digest = hashlib.sha256()
    digest.update(tag)
    try:
        size = os.path.getsize(path)
        digest.update(struct.pack("<q", size))
        with open(path, "rb") as handle:
            if size <= _SAMPLE_BLOCKS * _SAMPLE_BYTES:
                while True:
                    piece = handle.read(1 << 20)
                    if not piece:
                        break
                    digest.update(piece)
            else:
                last = size - _SAMPLE_BYTES
                starts = sorted(
                    {(i * last) // (_SAMPLE_BLOCKS - 1) for i in range(_SAMPLE_BLOCKS)}
                )
                for start in starts:
                    handle.seek(start)
                    digest.update(handle.read(_SAMPLE_BYTES))
    except OSError as exc:
        raise SnapshotWriteError(f"{path}: cannot fingerprint stream: {exc}") from exc
    return digest.digest()


def stream_fingerprint(stream) -> bytes:
    """Content fingerprint of an edge stream, as a 32-byte SHA-256 digest.

    The fingerprint binds a snapshot to its input: a resume against a
    stream with a different digest is refused.  Tapes reuse their own
    :func:`~repro.streams.tape.tape_fingerprint`; text files hash their
    size plus strided byte samples (bounded reads at any size), and a
    tape converted from text reports the text's digest; anything
    else - in-memory streams included - hashes the edge sequence itself,
    as little-endian int64 pairs read through :meth:`iter_chunks`.  Each
    source kind is domain-tagged so a tape and a text file never
    collide by accident.
    """
    from ..streams.file import FileEdgeStream
    from ..streams.tape import MmapEdgeStream, tape_fingerprint

    if isinstance(stream, MmapEdgeStream):
        if stream.source_digest is not None:
            return stream.source_digest
        digest = hashlib.sha256(b"esnap/tape:")
        digest.update(bytes.fromhex(tape_fingerprint(stream.path)))
        return digest.digest()
    if isinstance(stream, FileEdgeStream):
        return _file_fingerprint(stream.path, b"esnap/text:")
    digest = hashlib.sha256(b"esnap/stream:")
    for block in stream.iter_chunks():
        digest.update(np.ascontiguousarray(block, dtype="<i8").tobytes())
    return digest.digest()


# ---------------------------------------------------------------------------
# the container


@dataclass(frozen=True)
class Snapshot:
    """One decoded ``.esnap`` file: header fields plus the state payload."""

    version: int
    round_index: int
    config_hash: bytes
    fingerprint: bytes
    payload: Dict[str, object]
    path: Optional[str] = None

    @property
    def config_hash_hex(self) -> str:
        return self.config_hash.hex()

    @property
    def fingerprint_hex(self) -> str:
        return self.fingerprint.hex()


def encode_snapshot(
    payload: Dict[str, object],
    round_index: int,
    config_digest: bytes,
    fingerprint: bytes,
) -> bytes:
    """Serialize one snapshot document to ``.esnap`` container bytes."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = _HEADER_STRUCT.pack(
        MAGIC,
        VERSION,
        0,
        round_index,
        len(body),
        zlib.crc32(body),
        config_digest,
        fingerprint,
    )
    return header + body


def decode_snapshot(data: bytes, source: str = "<bytes>") -> Snapshot:
    """Parse and structurally validate ``.esnap`` container bytes.

    Checks, in order: the header is complete, the magic matches, the
    version is supported, the payload length agrees with the data, the
    CRC-32 matches, and the body decodes to a JSON object whose own
    ``round_index`` agrees with the header.  Violations raise
    :class:`~repro.errors.SnapshotFormatError`.
    """
    if len(data) < HEADER_BYTES:
        raise SnapshotFormatError(
            f"{source}: truncated snapshot header ({len(data)} of {HEADER_BYTES} bytes)"
        )
    magic, version, _flags, round_index, length, crc, cfg_digest, fingerprint = (
        _HEADER_STRUCT.unpack(data[:HEADER_BYTES])
    )
    if magic != MAGIC:
        raise SnapshotFormatError(f"{source}: bad magic {magic!r}; not an .esnap snapshot")
    if version != VERSION:
        raise SnapshotFormatError(
            f"{source}: unsupported snapshot version {version} (this build reads {VERSION})"
        )
    body = data[HEADER_BYTES:]
    if length < 0 or len(body) != length:
        raise SnapshotFormatError(
            f"{source}: payload size mismatch - header promises {length} bytes, "
            f"file has {len(body)}"
        )
    if zlib.crc32(body) != crc:
        raise SnapshotFormatError(
            f"{source}: payload checksum mismatch "
            f"(header {crc:#010x}, payload {zlib.crc32(body):#010x})"
        )
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotFormatError(f"{source}: payload is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SnapshotFormatError(f"{source}: payload is not a state document")
    if payload.get("round_index") != round_index:
        raise SnapshotFormatError(
            f"{source}: round index disagreement - header says {round_index}, "
            f"payload says {payload.get('round_index')}"
        )
    return Snapshot(
        version=version,
        round_index=round_index,
        config_hash=cfg_digest,
        fingerprint=fingerprint,
        payload=payload,
        path=None if source == "<bytes>" else source,
    )


def read_snapshot(path: Union[str, "os.PathLike[str]"]) -> Snapshot:
    """Read and validate one ``.esnap`` file."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SnapshotFormatError(f"{path}: cannot read snapshot: {exc}") from exc
    snap = decode_snapshot(data, source=path)
    return Snapshot(
        version=snap.version,
        round_index=snap.round_index,
        config_hash=snap.config_hash,
        fingerprint=snap.fingerprint,
        payload=snap.payload,
        path=path,
    )


def _rotation_files(directory: str) -> List[Tuple[int, str]]:
    """``(round_index, path)`` pairs of the rotation, oldest first."""
    entries: List[Tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return entries
    for name in names:
        if not (name.startswith(_NAME_PREFIX) and name.endswith(_NAME_SUFFIX)):
            continue
        middle = name[len(_NAME_PREFIX) : -len(_NAME_SUFFIX)]
        try:
            entries.append((int(middle), os.path.join(directory, name)))
        except ValueError:
            continue
    entries.sort()
    return entries


def load_latest(directory: Union[str, "os.PathLike[str]"]) -> Snapshot:
    """The newest structurally valid snapshot in a checkpoint directory.

    Walks the rotation newest-first, skipping members that fail
    structural validation (a torn write can only damage the newest file,
    but disk corruption is indiscriminate) - the rotation *is* the
    fallback.  Raises :class:`~repro.errors.SnapshotFormatError` when the
    directory holds no snapshot at all or every member is damaged.
    """
    directory = os.fspath(directory)
    entries = _rotation_files(directory)
    if not entries:
        raise SnapshotFormatError(f"{directory}: no .esnap snapshots found")
    last_error: Optional[SnapshotFormatError] = None
    for _, path in reversed(entries):
        try:
            return read_snapshot(path)
        except SnapshotFormatError as exc:
            last_error = exc
    assert last_error is not None
    raise last_error


def load_source(source: Union[str, "os.PathLike[str]", Snapshot]) -> Snapshot:
    """Resolve a resume source: a snapshot file, a checkpoint directory
    (its newest valid member), or an already-decoded :class:`Snapshot`."""
    if isinstance(source, Snapshot):
        return source
    source = os.fspath(source)
    if os.path.isdir(source):
        return load_latest(source)
    return read_snapshot(source)


# ---------------------------------------------------------------------------
# atomic persistence


def atomic_write_bytes(path: Union[str, "os.PathLike[str]"], data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: tmp + fsync + rename.

    The temp file lives in the destination directory (``os.replace``
    must not cross filesystems), is flushed and fsynced before the
    rename, and the directory entry is fsynced after it - a crash at any
    point leaves either the complete old file or the complete new one.
    Shared by the snapshot writer and the bench suite's history file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(data)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def atomic_write_text(path: Union[str, "os.PathLike[str]"], text: str) -> None:
    """UTF-8 convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


class SnapshotWriter:
    """Round-boundary snapshot persistence with rotation and fault recovery.

    The driver calls :meth:`boundary` after every committed round with the
    freshly built state document; the writer retains the newest document in
    memory, persists per the configured cadence, rotates old files out, and
    on interrupt :meth:`write_final` flushes the retained document so the
    on-disk state is never more than one cadence window stale.

    Persistence failures follow the PR 6 recovery contract: the
    ``snapshot.write`` injection site fires first (deterministic testing),
    transient failures retry under the active
    :class:`~repro.core.faults.RetryPolicy`, and exhausted retries degrade
    ``snapshot->skip`` - the writer disarms itself and the estimate
    continues undisturbed.
    """

    def __init__(
        self,
        directory: Union[str, "os.PathLike[str]"],
        config_digest: bytes,
        fingerprint: bytes,
        every: Optional[int] = None,
        keep: Optional[int] = None,
    ) -> None:
        self._directory = os.fspath(directory)
        self._config_digest = config_digest
        self._fingerprint = fingerprint
        self._every = resolve_snapshot_every(every)
        self._keep = resolve_snapshot_keep(keep)
        self._last_written: Optional[int] = None
        self._retained: Optional[Tuple[int, Dict[str, object]]] = None
        self._disabled = False
        os.makedirs(self._directory, exist_ok=True)

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def disabled(self) -> bool:
        """Whether the ``snapshot->skip`` ladder step disarmed this writer."""
        return self._disabled

    def path_for(self, round_index: int) -> str:
        return os.path.join(
            self._directory, f"{_NAME_PREFIX}{round_index:06d}{_NAME_SUFFIX}"
        )

    def boundary(self, round_index: int, payload: Dict[str, object]) -> None:
        """Record the state entering ``round_index``; persist per cadence."""
        self._retained = (round_index, payload)
        if self._disabled:
            return
        if self._last_written is not None and (
            round_index - self._last_written < self._every
        ):
            return
        self._persist(round_index, payload)

    def write_final(self) -> None:
        """Flush the retained document (interrupt/shutdown path)."""
        if self._disabled or self._retained is None:
            return
        round_index, payload = self._retained
        if self._last_written is not None and round_index <= self._last_written:
            return
        self._persist(round_index, payload)

    def _persist(self, round_index: int, payload: Dict[str, object]) -> None:
        policy = faults_module.active_policy()
        attempts = 0
        while True:
            try:
                self._write(round_index, payload)
            except Exception as exc:
                attempts += 1
                if faults_module.retry_transient(exc, attempts, policy):
                    continue
                faults_module.degrade(
                    faults_module.ACTION_NO_SNAPSHOT,
                    faults_module.site_of(exc),
                    attempts,
                    exc,
                )
                self._disabled = True
                return
            self._last_written = round_index
            self._rotate()
            return

    def _write(self, round_index: int, payload: Dict[str, object]) -> None:
        path = self.path_for(round_index)
        if faults_module.fires(faults_module.SNAPSHOT_WRITE):
            raise SnapshotWriteError(f"{path}: injected fault: snapshot.write")
        data = encode_snapshot(payload, round_index, self._config_digest, self._fingerprint)
        try:
            atomic_write_bytes(path, data)
        except OSError as exc:
            raise SnapshotWriteError(f"{path}: cannot persist snapshot: {exc}") from exc

    def _rotate(self) -> None:
        entries = _rotation_files(self._directory)
        for _, path in entries[: max(0, len(entries) - self._keep)]:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - rotation is best-effort
                pass
