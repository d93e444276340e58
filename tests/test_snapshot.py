"""Durable round-boundary snapshots: format, rotation, crash-resumable runs.

Four layers under test:

* **Container** - the ``.esnap`` binary format round-trips, and every kind
  of structural damage (truncation, bad magic, bad CRC, future version,
  header/payload disagreement) raises the typed
  :class:`~repro.errors.SnapshotFormatError`.
* **Writer** - atomic persistence, the ``snapshot_every`` cadence, the
  keep-last-K rotation, and ``load_latest`` falling back past damaged
  rotation members.
* **Resume invariant** - an estimate checkpointed at round boundaries and
  resumed from *any* snapshot is bit-identical to the uninterrupted run:
  estimate, guessing trajectory, logical-pass totals, and the root
  generator's final state; resuming against the wrong input or the wrong
  configuration is refused with the hard
  :class:`~repro.errors.SnapshotMismatchError`.
* **Process death** - a CLI run killed by SIGTERM exits 130 after flushing
  a final snapshot, a run killed by ``kill -9`` leaves a valid rotation
  behind, and both resume to the clean run's exact numbers.

The snapshot *write* path is also wired into the PR 6 fault machinery:
the ``snapshot.write`` injection site retries transient failures and on
exhaustion degrades ``snapshot->skip`` - the estimate always completes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

import pytest

import repro.core.driver as driver_module
from repro import EstimatorConfig, TriangleCountEstimator, resume_from
from repro.core import faults, snapshot
from repro.errors import (
    ParameterError,
    SnapshotFormatError,
    SnapshotMismatchError,
)
from repro.generators import barabasi_albert_graph
from repro.io import write_edgelist
from repro.streams import InMemoryEdgeStream
from repro.streams.base import EdgeStream
from repro.streams.file import FileEdgeStream

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# shared fixtures and the bit-identity harness (same discipline as
# tests/test_fault_tolerance.py)


@pytest.fixture(scope="module")
def tape(tmp_path_factory):
    graph = barabasi_albert_graph(250, 4, random.Random(1))
    path = tmp_path_factory.mktemp("snap") / "tape.edges"
    write_edgelist(graph, path)
    return str(path)


@pytest.fixture(scope="module")
def other_tape(tmp_path_factory):
    """A different input: same family, different seed, different content."""
    graph = barabasi_albert_graph(250, 4, random.Random(2))
    path = tmp_path_factory.mktemp("snap_other") / "tape.edges"
    write_edgelist(graph, path)
    return str(path)


def _capture_root(call):
    """Run ``call`` with the driver's root-generator construction recorded,
    returning ``(result, final_root_state)``."""
    captured = []
    real_make_rng = driver_module.make_rng

    def recording_make_rng(seed):
        rng = real_make_rng(seed)
        captured.append(rng)
        return rng

    driver_module.make_rng = recording_make_rng
    try:
        result = call()
    finally:
        driver_module.make_rng = real_make_rng
    assert captured, "driver never built the root generator"
    return result, captured[-1].getstate()


def _run(stream, cfg, kappa=4):
    return _capture_root(
        lambda: TriangleCountEstimator(cfg).estimate(stream, kappa=kappa)
    )


def _resume(source, stream, **kwargs):
    return _capture_root(lambda: resume_from(source, stream, **kwargs))


def _trajectory(result):
    return [(r.t_guess, r.median_estimate, r.accepted) for r in result.rounds]


def _assert_bit_identical(clean, resumed):
    clean_result, clean_root = clean
    resumed_result, resumed_root = resumed
    assert resumed_result.estimate == clean_result.estimate
    assert _trajectory(resumed_result) == _trajectory(clean_result)
    assert resumed_result.passes_total == clean_result.passes_total
    assert resumed_root == clean_root


def _snapshots_in(directory):
    return sorted(p for p in os.listdir(directory) if p.endswith(".esnap"))


# ---------------------------------------------------------------------------
# the container format


def _valid_bytes(round_index=5, payload=None):
    payload = payload if payload is not None else {"round_index": round_index, "x": 1}
    return snapshot.encode_snapshot(
        payload, round_index, b"c" * 32, b"f" * 32
    )


class TestContainerFormat:
    def test_round_trip(self):
        payload = {"round_index": 7, "rounds": [], "kappa": 4}
        data = snapshot.encode_snapshot(payload, 7, b"a" * 32, b"b" * 32)
        snap = snapshot.decode_snapshot(data)
        assert snap.version == snapshot.VERSION
        assert snap.round_index == 7
        assert snap.config_hash == b"a" * 32
        assert snap.fingerprint == b"b" * 32
        assert snap.payload == payload
        assert snap.path is None

    def test_header_is_fixed_width(self):
        assert len(_valid_bytes()) >= snapshot.HEADER_BYTES
        assert snapshot._HEADER_STRUCT.size == snapshot.HEADER_BYTES

    def test_truncated_header_rejected(self):
        with pytest.raises(SnapshotFormatError, match="truncated"):
            snapshot.decode_snapshot(_valid_bytes()[: snapshot.HEADER_BYTES - 1])

    def test_truncated_payload_rejected(self):
        with pytest.raises(SnapshotFormatError, match="size mismatch"):
            snapshot.decode_snapshot(_valid_bytes()[:-3])

    def test_bad_magic_rejected(self):
        data = bytearray(_valid_bytes())
        data[0] ^= 0xFF
        with pytest.raises(SnapshotFormatError, match="magic"):
            snapshot.decode_snapshot(bytes(data))

    def test_flipped_payload_byte_fails_crc(self):
        data = bytearray(_valid_bytes())
        data[snapshot.HEADER_BYTES + 2] ^= 0x01
        with pytest.raises(SnapshotFormatError, match="checksum"):
            snapshot.decode_snapshot(bytes(data))

    def test_future_version_rejected(self):
        import struct

        data = bytearray(_valid_bytes())
        struct.pack_into("<I", data, 8, snapshot.VERSION + 1)
        with pytest.raises(SnapshotFormatError, match="version"):
            snapshot.decode_snapshot(bytes(data))

    def test_header_payload_round_disagreement_rejected(self):
        data = snapshot.encode_snapshot(
            {"round_index": 3}, 4, b"c" * 32, b"f" * 32
        )
        with pytest.raises(SnapshotFormatError, match="disagreement"):
            snapshot.decode_snapshot(data)

    def test_non_object_payload_rejected(self):
        data = snapshot.encode_snapshot([1, 2, 3], 0, b"c" * 32, b"f" * 32)
        with pytest.raises(SnapshotFormatError, match="state document"):
            snapshot.decode_snapshot(data)

    def test_read_snapshot_missing_file(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="cannot read"):
            snapshot.read_snapshot(tmp_path / "nope.esnap")


class TestKnobs:
    def test_checkpoint_dir_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        assert snapshot.resolve_checkpoint_dir(None) is None
        assert snapshot.resolve_checkpoint_dir("") is None
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", "/tmp/ck")
        assert snapshot.resolve_checkpoint_dir(None) == "/tmp/ck"
        assert snapshot.resolve_checkpoint_dir("/explicit") == "/explicit"
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", "")
        assert snapshot.resolve_checkpoint_dir(None) is None

    def test_cadence_and_keep_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", "4")
        monkeypatch.setenv("REPRO_SNAPSHOT_KEEP", "9")
        assert snapshot.resolve_snapshot_every(None) == 4
        assert snapshot.resolve_snapshot_keep(None) == 9
        assert snapshot.resolve_snapshot_every(2) == 2  # explicit beats env

    def test_malformed_env_knob_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", "often")
        with pytest.raises(ParameterError):
            snapshot.resolve_snapshot_every(None)

    @pytest.mark.parametrize(
        "field", ["snapshot_every", "snapshot_keep"]
    )
    def test_config_validates_eagerly(self, field):
        with pytest.raises(ParameterError):
            EstimatorConfig(**{field: 0})


# ---------------------------------------------------------------------------
# the writer: atomicity, cadence, rotation, and the rotation as fallback


class TestWriterRotation:
    def _writer(self, directory, **kwargs):
        return snapshot.SnapshotWriter(
            directory, b"c" * 32, b"f" * 32, **kwargs
        )

    def test_keep_last_k(self, tmp_path):
        writer = self._writer(tmp_path, every=1, keep=3)
        for i in range(6):
            writer.boundary(i, {"round_index": i})
        assert _snapshots_in(tmp_path) == [
            "snap-r000003.esnap",
            "snap-r000004.esnap",
            "snap-r000005.esnap",
        ]

    def test_cadence_skips_but_first_and_final_persist(self, tmp_path):
        writer = self._writer(tmp_path, every=3, keep=10)
        for i in range(5):
            writer.boundary(i, {"round_index": i})
        # boundary 0 always persists; 1, 2 are within the cadence window;
        # 3 persists; 4 is retained in memory only...
        assert _snapshots_in(tmp_path) == ["snap-r000000.esnap", "snap-r000003.esnap"]
        # ...until the interrupt path flushes the retained document.
        writer.write_final()
        assert "snap-r000004.esnap" in _snapshots_in(tmp_path)

    def test_write_final_never_rewrites_old_state(self, tmp_path):
        writer = self._writer(tmp_path, every=1, keep=10)
        writer.boundary(2, {"round_index": 2})
        before = os.stat(writer.path_for(2)).st_mtime_ns
        writer.write_final()  # retained == last written: nothing to flush
        assert os.stat(writer.path_for(2)).st_mtime_ns == before

    def test_load_latest_returns_newest(self, tmp_path):
        writer = self._writer(tmp_path, every=1, keep=10)
        for i in range(4):
            writer.boundary(i, {"round_index": i})
        assert snapshot.load_latest(tmp_path).round_index == 3

    def test_load_latest_falls_back_past_torn_newest(self, tmp_path):
        writer = self._writer(tmp_path, every=1, keep=10)
        for i in range(3):
            writer.boundary(i, {"round_index": i})
        newest = writer.path_for(2)
        with open(newest, "r+b") as handle:
            handle.truncate(snapshot.HEADER_BYTES + 4)  # torn write
        snap = snapshot.load_latest(tmp_path)
        assert snap.round_index == 1

    def test_load_latest_empty_directory(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="no .esnap"):
            snapshot.load_latest(tmp_path)

    def test_load_latest_all_damaged(self, tmp_path):
        writer = self._writer(tmp_path, every=1, keep=10)
        writer.boundary(0, {"round_index": 0})
        with open(writer.path_for(0), "r+b") as handle:
            handle.truncate(10)
        with pytest.raises(SnapshotFormatError):
            snapshot.load_latest(tmp_path)

    def test_atomic_write_replaces_whole_file(self, tmp_path):
        target = tmp_path / "doc.json"
        snapshot.atomic_write_text(target, "first version, rather long")
        snapshot.atomic_write_text(target, "second")
        assert target.read_text() == "second"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]  # no tmp litter


# ---------------------------------------------------------------------------
# what identifies "the same run": config hash and stream fingerprint


class TestRunIdentity:
    def test_config_hash_ignores_engine_knobs(self):
        a = driver_module._config_state(EstimatorConfig(seed=3, repetitions=3))
        b = driver_module._config_state(
            EstimatorConfig(
                seed=3, repetitions=3, engine_mode="sharded", workers=4, fuse=True
            )
        )
        assert snapshot.config_hash(a, 4) == snapshot.config_hash(b, 4)

    def test_config_hash_binds_trajectory_fields_and_kappa(self):
        base = driver_module._config_state(EstimatorConfig(seed=3))
        other = driver_module._config_state(EstimatorConfig(seed=4))
        assert snapshot.config_hash(base, 4) != snapshot.config_hash(other, 4)
        assert snapshot.config_hash(base, 4) != snapshot.config_hash(base, 5)

    def test_file_fingerprint_binds_content(self, tape, other_tape):
        same = snapshot.stream_fingerprint(FileEdgeStream(tape))
        again = snapshot.stream_fingerprint(FileEdgeStream(tape))
        different = snapshot.stream_fingerprint(FileEdgeStream(other_tape))
        assert same == again
        assert same != different

    def test_memory_stream_fingerprint_matches_itself_only(self):
        g1 = barabasi_albert_graph(60, 3, random.Random(1))
        g2 = barabasi_albert_graph(60, 3, random.Random(9))
        s1 = snapshot.stream_fingerprint(InMemoryEdgeStream.from_graph(g1))
        s2 = snapshot.stream_fingerprint(InMemoryEdgeStream.from_graph(g2))
        assert s1 == snapshot.stream_fingerprint(InMemoryEdgeStream.from_graph(g1))
        assert s1 != s2

    def test_iterator_only_stream_fingerprints_like_memory_stream(self):
        """Every generic stream hashes its ``iter_chunks`` blocks: an
        iterator-only stream and an in-memory one over the same sequence
        (repeats and ids past 2^32 included) share one fingerprint, the
        value the per-edge ``<qq`` packing gave before."""
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 2), (5, 1 << 40), (3, (1 << 33) + 7)]

        class IteratorOnly(EdgeStream):
            def __iter__(self):
                return iter(edges)

            def __len__(self):
                return len(edges)

        memory = snapshot.stream_fingerprint(InMemoryEdgeStream(edges, validate=False))
        assert snapshot.stream_fingerprint(IteratorOnly()) == memory
        assert memory.hex() == (
            "f8613184928c175adca2a9c6c1cbf1ad5164fe54d962b2c0a1c425b8955ac85e"
        )


# ---------------------------------------------------------------------------
# the resume invariant, in process


class TestResumeBitIdentity:
    BASE = dict(
        seed=3,
        repetitions=3,
        engine_mode="chunked",
        workers=1,
        fuse=True,
        speculate=True,
        speculate_depth=3,
    )

    def _checkpointed(self, tape, ckdir):
        """One clean run and one checkpointed run, both root-captured."""
        stream = FileEdgeStream(tape)
        stream.stats()
        clean = _run(stream, EstimatorConfig(**self.BASE))
        snapped = _run(
            stream,
            EstimatorConfig(
                **self.BASE, checkpoint_dir=str(ckdir), snapshot_keep=64
            ),
        )
        _assert_bit_identical(clean, snapped)
        return stream, clean

    def test_resume_from_every_boundary(self, tape, tmp_path):
        """Kill-at-round-k for every k the rotation holds: resuming from
        each snapshot reproduces the uninterrupted run bit-for-bit,
        including the root generator's final state."""
        ckdir = tmp_path / "ck"
        stream, clean = self._checkpointed(tape, ckdir)
        names = _snapshots_in(ckdir)
        assert names, "checkpointed run wrote no snapshots"
        for name in names:
            resumed = _resume(str(ckdir / name), stream)
            _assert_bit_identical(clean, resumed)

    def test_resume_from_directory_uses_newest(self, tape, tmp_path):
        ckdir = tmp_path / "ck"
        stream, clean = self._checkpointed(tape, ckdir)
        resumed = _resume(str(ckdir), stream)
        _assert_bit_identical(clean, resumed)

    def test_resume_across_engines(self, tape, tmp_path):
        """Engine knobs are outside the config hash: a run checkpointed
        under one engine resumes under another with identical numbers."""
        ckdir = tmp_path / "ck"
        stream, clean = self._checkpointed(tape, ckdir)
        resumed = _resume(
            str(ckdir),
            stream,
            overrides={"engine_mode": "auto", "workers": 1, "fuse": False, "speculate": False},
        )
        _assert_bit_identical(clean, resumed)

    def test_canonical_sharded_workload_resumes(self, tape, tmp_path, monkeypatch):
        """The PR's acceptance scenario: the canonical file-backed
        workers=2 fused depth-3 workload, checkpointed, resumed from a
        mid-run snapshot - bit-identical to the uninterrupted run."""
        pytest.importorskip("numpy")
        from repro.core import executor

        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)
        base = dict(self.BASE, engine_mode="sharded", workers=2, chunk_size=64)
        stream = FileEdgeStream(tape)
        stream.stats()
        clean = _run(stream, EstimatorConfig(**base))
        ckdir = tmp_path / "ck"
        snapped = _run(
            stream,
            EstimatorConfig(**base, checkpoint_dir=str(ckdir), snapshot_keep=64),
        )
        _assert_bit_identical(clean, snapped)
        names = _snapshots_in(ckdir)
        mid = names[len(names) // 2]
        resumed = _resume(str(ckdir / mid), stream)
        _assert_bit_identical(clean, resumed)

    def test_resume_continues_checkpointing_into_source_dir(self, tape, tmp_path):
        ckdir = tmp_path / "ck"
        stream, _clean = self._checkpointed(tape, ckdir)
        names = _snapshots_in(ckdir)
        first = names[0]
        # Drop everything after the first snapshot, resume from it, and the
        # continuation must rebuild the later boundaries on disk.
        for name in names[1:]:
            os.unlink(ckdir / name)
        resume_from(str(ckdir / first), stream)
        assert len(_snapshots_in(ckdir)) > 1

    def test_rotation_fallback_end_to_end(self, tape, tmp_path):
        """A torn newest snapshot (the only file a crash mid-write can
        damage) is skipped and the run resumes from the previous one."""
        ckdir = tmp_path / "ck"
        stream, clean = self._checkpointed(tape, ckdir)
        names = _snapshots_in(ckdir)
        assert len(names) >= 2, "need a rotation to test the fallback"
        newest = ckdir / names[-1]
        with open(newest, "r+b") as handle:
            handle.truncate(os.path.getsize(newest) - 7)
        resumed = _resume(str(ckdir), stream)
        _assert_bit_identical(clean, resumed)

    def test_wrong_stream_refused(self, tape, other_tape, tmp_path):
        ckdir = tmp_path / "ck"
        self._checkpointed(tape, ckdir)
        wrong = FileEdgeStream(other_tape)
        wrong.stats()
        with pytest.raises(SnapshotMismatchError, match="fingerprint"):
            resume_from(str(ckdir), wrong)

    def test_wrong_config_refused(self, tape, tmp_path):
        ckdir = tmp_path / "ck"
        stream, _clean = self._checkpointed(tape, ckdir)
        different_seed = EstimatorConfig(**dict(self.BASE, seed=4))
        with pytest.raises(SnapshotMismatchError, match="config hash"):
            resume_from(str(ckdir), stream, config=different_seed)

    def test_trajectory_override_refused(self, tape, tmp_path):
        """Overrides may retune the engine, never the trajectory: changing
        a hashed field through an override trips the mismatch check."""
        ckdir = tmp_path / "ck"
        stream, _clean = self._checkpointed(tape, ckdir)
        with pytest.raises(SnapshotMismatchError, match="config hash"):
            resume_from(str(ckdir), stream, overrides={"repetitions": 5})

    def test_unknown_override_refused(self, tape, tmp_path):
        ckdir = tmp_path / "ck"
        stream, _clean = self._checkpointed(tape, ckdir)
        with pytest.raises(ParameterError, match="unknown resume override"):
            resume_from(str(ckdir), stream, overrides={"bogus_knob": 1})

    def test_tampered_payload_is_format_error(self, tape, tmp_path):
        """A payload that passes the CRC but carries garbage state (a
        writer bug, not disk damage) still fails typed, not with a
        KeyError deep in the driver."""
        ckdir = tmp_path / "ck"
        stream, _clean = self._checkpointed(tape, ckdir)
        name = _snapshots_in(ckdir)[0]
        snap = snapshot.read_snapshot(ckdir / name)
        broken = dict(snap.payload)
        del broken["rng"]
        data = snapshot.encode_snapshot(
            broken, snap.round_index, snap.config_hash, snap.fingerprint
        )
        target = tmp_path / "tampered.esnap"
        target.write_bytes(data)
        with pytest.raises(SnapshotFormatError):
            resume_from(str(target), stream)

    def test_retired_config_field_still_resumes(self, tape, tmp_path):
        """Snapshots written before ``task_timeout`` was retired carry it in
        their config document; the unknown key is dropped on resume and
        the run continues bit-identically."""
        ckdir = tmp_path / "ck"
        stream, clean = self._checkpointed(tape, ckdir)
        name = _snapshots_in(ckdir)[0]
        snap = snapshot.read_snapshot(ckdir / name)
        legacy = dict(snap.payload)
        legacy["config"] = dict(legacy["config"], task_timeout=5.0)
        data = snapshot.encode_snapshot(
            legacy, snap.round_index, snap.config_hash, snap.fingerprint
        )
        target = tmp_path / "legacy.esnap"
        target.write_bytes(data)
        resumed = _resume(str(target), stream)
        _assert_bit_identical(clean, resumed)

    def test_removed_python_engine_snapshot_still_resumes(self, tape, tmp_path):
        """A snapshot written under ``engine_mode="python"`` (since removed)
        resumes on the one engine, bit-identically - the mode is outside
        the config hash and never changed a result.  A *new* config asking
        for it is still rejected."""
        ckdir = tmp_path / "ck"
        stream, clean = self._checkpointed(tape, ckdir)
        name = _snapshots_in(ckdir)[0]
        snap = snapshot.read_snapshot(ckdir / name)
        legacy = dict(snap.payload)
        legacy["config"] = dict(legacy["config"], engine_mode="python")
        data = snapshot.encode_snapshot(
            legacy, snap.round_index, snap.config_hash, snap.fingerprint
        )
        target = tmp_path / "python-engine.esnap"
        target.write_bytes(data)
        resumed = _resume(str(target), stream)
        _assert_bit_identical(clean, resumed)
        with pytest.raises(ParameterError, match="removed"):
            EstimatorConfig(engine_mode="python")


# ---------------------------------------------------------------------------
# snapshot writes under the fault machinery


class TestSnapshotFaults:
    BASE = dict(seed=3, repetitions=3, engine_mode="chunked", workers=1)

    def test_transient_write_fault_retries_and_recovers(self, tape, tmp_path):
        stream = FileEdgeStream(tape)
        stream.stats()
        clean = _run(stream, EstimatorConfig(**self.BASE))
        ckdir = tmp_path / "ck"
        faulted = _run(
            stream,
            EstimatorConfig(
                **self.BASE,
                checkpoint_dir=str(ckdir),
                snapshot_keep=64,
                faults="snapshot.write@0",
            ),
        )
        _assert_bit_identical(clean, faulted)
        assert faulted[0].degradations == ()
        assert _snapshots_in(ckdir), "retried write never landed"

    def test_exhausted_write_fault_degrades_to_no_snapshot(self, tape, tmp_path):
        """Retries disabled: the first failed write exhausts the budget,
        the ladder records ``snapshot->skip``, the writer disarms, and the
        estimate still completes bit-identically - durability is an
        add-on, never a correctness dependency."""
        stream = FileEdgeStream(tape)
        stream.stats()
        clean = _run(stream, EstimatorConfig(**self.BASE))
        ckdir = tmp_path / "ck"
        spec = "snapshot.write@" + ",".join(str(i) for i in range(64))
        faulted = _run(
            stream,
            EstimatorConfig(
                **self.BASE,
                checkpoint_dir=str(ckdir),
                faults=spec,
                max_retries=0,
            ),
        )
        _assert_bit_identical(clean, faulted)
        reports = faulted[0].degradations
        assert [r.action for r in reports] == [faults.ACTION_NO_SNAPSHOT]
        assert reports[0].site == faults.SNAPSHOT_WRITE
        assert _snapshots_in(ckdir) == []


# ---------------------------------------------------------------------------
# process death: SIGTERM flushes a final snapshot, kill -9 leaves a valid
# rotation, and both resume to the clean run's numbers via the CLI


def _cli(args, env=None, **kwargs):
    full_env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    if env:
        full_env.update(env)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=full_env,
        cwd=REPO,
        **kwargs,
    )


def _wait_for_snapshots(directory, count, proc, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(_snapshots_in(directory)) >= count:
            return True
        if proc.poll() is not None:
            return False
        time.sleep(0.01)
    return False


def _result_lines(stdout):
    """The deterministic result lines (estimate/rounds/passes)."""
    return [
        line
        for line in stdout.splitlines()
        if line.startswith(("estimate:", "rounds:", "passes:"))
    ]


@pytest.fixture(scope="module")
def big_tape(tmp_path_factory):
    """Big enough that a serial run in small chunks takes seconds - a wide
    window to deliver a signal after the first snapshots land."""
    graph = barabasi_albert_graph(2000, 5, random.Random(1))
    path = tmp_path_factory.mktemp("snap_kill") / "big.edges"
    write_edgelist(graph, path)
    return str(path)


@pytest.fixture(scope="module")
def clean_cli_lines(big_tape):
    """The uninterrupted run's result lines (fast chunked engine - results
    are engine-independent, which the resume comparisons rely on)."""
    proc = _cli(
        ["estimate", big_tape, "--kappa", "6", "--seed", "3",
         "--repetitions", "3", "--engine", "chunked"]
    )
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return _result_lines(out)


#: Guessing-loop schedules the signal tests kill mid-run, each with a chunk
#: size small enough that the serial run lasts seconds: the default
#: speculative windows (one snapshot per window) and one round per sweep.
KILL_SCHEDULES = {
    "default": ["--chunk-size", "8"],
    "no-speculate": ["--chunk-size", "16", "--no-speculate"],
}


class TestProcessDeath:
    def _killed_run(self, big_tape, ckdir, sig, schedule):
        """Start a slow checkpointing estimate, deliver ``sig`` once the
        rotation is non-empty, and return the finished process."""
        proc = _cli(
            ["estimate", big_tape, "--kappa", "6", "--seed", "3",
             "--repetitions", "3", "--workers", "1", *KILL_SCHEDULES[schedule],
             "--checkpoint-dir", str(ckdir), "--snapshot-keep", "64"],
            # A SIGKILLed run cannot remove its private tape of the text
            # input: keep that tape under the test's own directory.
            env={"TMPDIR": str(ckdir.parent)},
        )
        if not _wait_for_snapshots(ckdir, 1, proc):
            out, err = proc.communicate(timeout=30)
            pytest.fail(
                f"run finished (rc={proc.returncode}) before a snapshot "
                f"landed; stderr: {err}"
            )
        proc.send_signal(sig)
        out, err = proc.communicate(timeout=60)
        return proc.returncode, out, err

    def _signal_then_resume(self, big_tape, tmp_path, clean_cli_lines, sig, schedule):
        ckdir = tmp_path / "ck"
        ckdir.mkdir()
        rc, _out, err = self._killed_run(big_tape, ckdir, sig, schedule)
        if sig == signal.SIGTERM:
            assert rc == 130
            assert "interrupted: final snapshot flushed" in err
        else:
            assert rc == -signal.SIGKILL
        assert _snapshots_in(ckdir)
        snapshot.load_latest(ckdir)  # the rotation is structurally valid
        resume = _cli(["resume", str(ckdir), big_tape, "--engine", "chunked"])
        out, err = resume.communicate(timeout=120)
        assert resume.returncode == 0, err
        if sig == signal.SIGTERM:
            assert "resuming:  round" in out
        assert _result_lines(out) == clean_cli_lines

    def test_sigterm_flushes_final_snapshot_and_exits_130(
        self, big_tape, tmp_path, clean_cli_lines
    ):
        self._signal_then_resume(
            big_tape, tmp_path, clean_cli_lines, signal.SIGTERM, "default"
        )

    def test_kill_dash_nine_then_resume(
        self, big_tape, tmp_path, clean_cli_lines
    ):
        """The acceptance scenario's harsh half: SIGKILL mid-run (no
        handler, no flush - the atomic rename discipline alone must keep
        the rotation valid), then resume bit-identically."""
        self._signal_then_resume(
            big_tape, tmp_path, clean_cli_lines, signal.SIGKILL, "default"
        )

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["term", "kill"])
    def test_signals_under_the_sequential_schedule(
        self, big_tape, tmp_path, clean_cli_lines, sig
    ):
        """The same two signals with one round per sweep (``--no-speculate``)."""
        self._signal_then_resume(
            big_tape, tmp_path, clean_cli_lines, sig, "no-speculate"
        )

    def test_resumed_cli_run_matches_checkpointed_cli_run(
        self, big_tape, tmp_path, clean_cli_lines
    ):
        """Checkpointing itself must not perturb the CLI numbers."""
        ckdir = tmp_path / "ck"
        proc = _cli(
            ["estimate", big_tape, "--kappa", "6", "--seed", "3",
             "--repetitions", "3", "--engine", "chunked",
             "--checkpoint-dir", str(ckdir)]
        )
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert _result_lines(out) == clean_cli_lines
