"""Tests for the binary ``.etape`` tape format (repro.streams.tape).

Covers the format contract end to end: exact round trips (including the
shapes text validation would reject - self-loops, repeated edges), typed
rejection of every structural violation, fingerprint stability, and the
magic-byte auto-detection every file-loading entry point relies on.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.errors import StreamError, TapeFormatError
from repro.generators import barabasi_albert_graph, wheel_graph
from repro.io import write_edgelist
from repro.streams import (
    FileEdgeStream,
    InMemoryEdgeStream,
    MmapEdgeStream,
    is_tape,
    open_edge_stream,
    tape_fingerprint,
    write_tape,
)
from repro.streams.tape import (
    HEADER_BYTES,
    MAGIC,
    read_header,
    verify_tape,
)


def _tape_from(tmp_path, edges, name="t.etape", **write_kwargs):
    path = tmp_path / name
    write_tape(InMemoryEdgeStream(edges, validate=False), path, **write_kwargs)
    return path


class TestRoundTrip:
    def test_empty_stream(self, tmp_path):
        path = _tape_from(tmp_path, [])
        stream = MmapEdgeStream(path)
        assert list(stream) == []
        assert len(stream) == 0
        assert stream.stats().num_edges == 0
        assert stream.stats().max_vertex_id == -1
        header = read_header(path)
        assert header.num_edges == 0
        assert header.max_vertex_id == -1
        assert header.canonical  # trivially, there is nothing non-canonical
        verify_tape(path)

    def test_canonical_edges_roundtrip_exactly(self, tmp_path):
        edges = [(0, 1), (1, 2), (0, 2), (2, 9)]
        path = _tape_from(tmp_path, edges)
        assert list(MmapEdgeStream(path)) == edges
        assert read_header(path).canonical

    def test_self_loops_preserved_verbatim(self, tmp_path):
        # Conversion never validates or reorders: dirt goes through as-is.
        edges = [(3, 3), (0, 1), (5, 5)]
        path = _tape_from(tmp_path, edges)
        assert list(MmapEdgeStream(path)) == edges
        assert not read_header(path).canonical

    def test_multigraph_repeats_preserved(self, tmp_path):
        edges = [(0, 1), (0, 1), (1, 2), (0, 1)]
        path = _tape_from(tmp_path, edges)
        assert list(MmapEdgeStream(path)) == edges
        assert len(MmapEdgeStream(path)) == 4

    def test_stream_longer_than_chunk_size(self, tmp_path):
        edges = [(i, i + 1) for i in range(1000)]
        path = _tape_from(tmp_path, edges, chunk_size=64)
        stream = MmapEdgeStream(path)
        assert list(stream) == edges
        # Chunked replay concatenates back to the same sequence.
        total = [tuple(row) for chunk in stream.iter_chunks(37) for row in chunk.tolist()]
        assert total == edges

    def test_text_file_source_matches_text_stream(self, tmp_path, wheel10):
        txt = tmp_path / "wheel.txt"
        write_edgelist(wheel10, txt, header=["wheel"])
        tape = tmp_path / "wheel.etape"
        header = write_tape(txt, tape)
        assert header.num_edges == wheel10.num_edges
        assert list(MmapEdgeStream(tape)) == list(FileEdgeStream(txt))
        assert MmapEdgeStream(tape).stats() == FileEdgeStream(txt).stats()

    def test_tape_source_copies_through(self, tmp_path):
        edges = [(0, 1), (1, 2)]
        first = _tape_from(tmp_path, edges, name="a.etape")
        second = tmp_path / "b.etape"
        write_tape(first, second)
        assert first.read_bytes() == second.read_bytes()

    def test_write_tape_rejects_bad_chunk_size(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_size"):
            write_tape(InMemoryEdgeStream([]), tmp_path / "x.etape", chunk_size=0)

    def test_negative_vertex_ids_not_canonical(self, tmp_path):
        path = _tape_from(tmp_path, [(-4, 2)])
        assert list(MmapEdgeStream(path)) == [(-4, 2)]
        assert not read_header(path).canonical


class TestStructuralValidation:
    def _valid_tape(self, tmp_path):
        return _tape_from(tmp_path, [(0, 1), (1, 2), (0, 2)])

    def test_missing_file(self, tmp_path):
        with pytest.raises(StreamError, match="not found or unreadable"):
            read_header(tmp_path / "nope.etape")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.etape"
        path.write_bytes(MAGIC + b"\x00" * 8)  # far short of 64 bytes
        with pytest.raises(TapeFormatError, match="truncated tape header"):
            read_header(path)

    def test_bad_magic(self, tmp_path):
        path = self._valid_tape(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTATAPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(TapeFormatError, match="bad magic"):
            read_header(path)
        assert not is_tape(path)

    def test_version_mismatch(self, tmp_path):
        path = self._valid_tape(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8, 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(TapeFormatError, match="unsupported tape version 99"):
            read_header(path)

    def test_corrupt_counts(self, tmp_path):
        path = self._valid_tape(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<q", blob, 16, -5)  # negative edge count
        path.write_bytes(bytes(blob))
        with pytest.raises(TapeFormatError, match="corrupt header"):
            read_header(path)

    def test_inconsistent_vertex_bound(self, tmp_path):
        path = self._valid_tape(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<q", blob, 32, 1000)  # n != max_vertex + 1
        path.write_bytes(bytes(blob))
        with pytest.raises(TapeFormatError, match="corrupt header"):
            read_header(path)

    def test_truncated_payload(self, tmp_path):
        path = self._valid_tape(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 8)
        with pytest.raises(TapeFormatError, match="payload size mismatch"):
            MmapEdgeStream(path)

    def test_padded_payload(self, tmp_path):
        path = self._valid_tape(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x00" * 16)
        with pytest.raises(TapeFormatError, match="payload size mismatch"):
            read_header(path)

    def test_checksum_mismatch_caught_by_verify_only(self, tmp_path):
        path = self._valid_tape(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[HEADER_BYTES] ^= 0xFF  # flip a payload byte, sizes stay right
        path.write_bytes(bytes(blob))
        read_header(path)  # structure is intact: open stays O(1)
        with pytest.raises(TapeFormatError, match="checksum mismatch"):
            verify_tape(path)

    def test_truncation_after_open_raises_typed(self, tmp_path):
        path = self._valid_tape(tmp_path)
        stream = MmapEdgeStream(path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 16)
        with pytest.raises(TapeFormatError, match="changed size mid-run"):
            list(stream.iter_chunks())

    def test_tape_format_error_is_stream_read_error(self):
        from repro.errors import StreamReadError

        assert issubclass(TapeFormatError, StreamReadError)


class TestFingerprint:
    def test_stable_across_rewrites(self, tmp_path):
        edges = [(i, i + 1) for i in range(500)]
        path = _tape_from(tmp_path, edges)
        first = tape_fingerprint(path)
        _tape_from(tmp_path, edges)  # rewrite the same content in place
        assert tape_fingerprint(path) == first

    def test_changes_with_content(self, tmp_path):
        a = tape_fingerprint(_tape_from(tmp_path, [(0, 1)], name="a.etape"))
        b = tape_fingerprint(_tape_from(tmp_path, [(0, 2)], name="b.etape"))
        assert a != b

    def test_changes_with_order(self, tmp_path):
        a = tape_fingerprint(_tape_from(tmp_path, [(0, 1), (1, 2)], name="a.etape"))
        b = tape_fingerprint(_tape_from(tmp_path, [(1, 2), (0, 1)], name="b.etape"))
        assert a != b

    def test_stream_caches_fingerprint(self, tmp_path):
        path = _tape_from(tmp_path, [(0, 1)])
        stream = MmapEdgeStream(path)
        assert stream.fingerprint() == tape_fingerprint(path)
        assert stream.fingerprint() is stream.fingerprint()

    def test_empty_tape_has_fingerprint(self, tmp_path):
        assert tape_fingerprint(_tape_from(tmp_path, []))

    def test_large_tape_strided_sampling(self, tmp_path):
        # Past the all-rows threshold the fingerprint samples strided
        # blocks; it must still see a change in the final row.
        import numpy as np

        rows = 70_000  # > _SAMPLE_BLOCKS * _SAMPLE_ROWS
        edges = np.column_stack([np.arange(rows), np.arange(rows) + 1])
        path = _tape_from(tmp_path, edges.tolist(), name="big.etape")
        first = tape_fingerprint(path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01  # perturb the very last payload byte
        path.write_bytes(bytes(blob))
        assert tape_fingerprint(path) != first


class TestAutoDetection:
    def test_open_edge_stream_sniffs_format(self, tmp_path, wheel10):
        txt = tmp_path / "g.txt"
        write_edgelist(wheel10, txt)
        tape = tmp_path / "g.etape"
        write_tape(txt, tape)
        assert isinstance(open_edge_stream(tape), MmapEdgeStream)
        assert isinstance(open_edge_stream(txt), MmapEdgeStream)
        assert list(open_edge_stream(tape)) == list(open_edge_stream(txt))
        assert list(open_edge_stream(txt)) == list(FileEdgeStream(txt))

    def test_is_tape_on_text_and_missing(self, tmp_path):
        txt = tmp_path / "g.txt"
        txt.write_text("0 1\n")
        assert not is_tape(txt)
        assert not is_tape(tmp_path / "missing.etape")

    def test_read_edgelist_accepts_tape(self, tmp_path, wheel10):
        from repro.io import read_edgelist

        txt = tmp_path / "g.txt"
        write_edgelist(wheel10, txt)
        tape = tmp_path / "g.etape"
        write_tape(txt, tape)
        assert read_edgelist(tape).edge_list() == wheel10.edge_list()

    def test_extension_is_irrelevant(self, tmp_path):
        # Detection is by magic bytes, not by file name.
        path = _tape_from(tmp_path, [(0, 1)], name="disguised.txt")
        assert is_tape(path)
        assert isinstance(open_edge_stream(path), MmapEdgeStream)


class TestMmapStream:
    def test_zero_copy_chunks_are_views(self, tmp_path):
        import numpy as np

        edges = [(i, i + 1) for i in range(300)]
        path = _tape_from(tmp_path, edges)
        stream = MmapEdgeStream(path)
        chunks = list(stream.iter_chunks(128))
        assert all(isinstance(c, np.memmap) or c.base is not None for c in chunks)
        assert sum(len(c) for c in chunks) == 300

    def test_o1_stats_do_not_touch_payload(self, tmp_path):
        edges = [(i, i + 1) for i in range(100)]
        path = _tape_from(tmp_path, edges)
        stream = MmapEdgeStream(path)
        # Corrupt the payload after open: O(1) stats must not notice.
        blob = bytearray(path.read_bytes())
        blob[HEADER_BYTES] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert stream.stats().num_edges == 100
        assert len(stream) == 100

    def test_replay_consistency(self, tmp_path):
        path = _tape_from(tmp_path, [(0, 1), (1, 2), (0, 2)])
        stream = MmapEdgeStream(path)
        assert list(stream) == list(stream)

    def test_bad_chunk_size_rejected(self, tmp_path):
        stream = MmapEdgeStream(_tape_from(tmp_path, [(0, 1)]))
        with pytest.raises(ValueError, match="chunk_size"):
            next(stream.iter_chunks(0))

    def test_estimates_match_across_formats(self, tmp_path):
        # The headline invariant, in its smallest form: one graph, one
        # seed, text vs tape, bit-identical estimate.
        import random

        from repro import EstimatorConfig, TriangleCountEstimator

        graph = barabasi_albert_graph(120, 4, random.Random(7))
        txt = tmp_path / "g.txt"
        write_edgelist(graph, txt)
        tape = tmp_path / "g.etape"
        write_tape(txt, tape)

        def run(stream):
            return TriangleCountEstimator(EstimatorConfig(seed=5)).estimate(
                stream, kappa=8
            )

        rt = run(MmapEdgeStream(tape))
        rf = run(FileEdgeStream(txt))
        assert rt.estimate == rf.estimate
        assert rt.passes_total == rf.passes_total


class TestNonCanonicalTape:
    """A tape of reversed ``(v, u)`` rows is refused by the estimator: its
    edge watches (passes 4 and 6) look for canonical rows only, so it
    would otherwise estimate 0 however many triangles it holds."""

    @pytest.fixture
    def reversed_tape(self, tmp_path):
        edges = [(v, u) for u, v in InMemoryEdgeStream.from_graph(wheel_graph(300))]
        return _tape_from(tmp_path, edges, name="rev.etape")

    def test_estimate_refuses_and_names_the_path(self, reversed_tape):
        from repro import EstimatorConfig, TriangleCountEstimator
        from repro.core.driver import run_estimate_program

        stream = MmapEdgeStream(reversed_tape)
        assert not stream.header.canonical
        with pytest.raises(StreamError, match="not canonical") as info:
            TriangleCountEstimator(EstimatorConfig(seed=3)).estimate(stream, kappa=3)
        assert str(reversed_tape) in str(info.value)
        with pytest.raises(StreamError, match="not canonical"):
            run_estimate_program(stream, 3, EstimatorConfig(seed=3))

    def test_exact_count_still_reads_it(self, reversed_tape):
        from repro.core import ExactStreamingCounter

        assert ExactStreamingCounter().count(MmapEdgeStream(reversed_tape)).triangles == 299


class TestTextOpensAsTape:
    """``open_edge_stream`` converts a text input into a private tape that
    stands in for the text everywhere: same fingerprint, same snapshots,
    same estimate, no file left behind."""

    KAPPA = 4

    @pytest.fixture
    def txt(self, tmp_path):
        import random

        path = tmp_path / "g.txt"
        write_edgelist(barabasi_albert_graph(220, 4, random.Random(3)), path)
        return path

    @staticmethod
    def _run(call):
        """``call()``'s result plus the root generator's final state."""
        import repro.core.driver as driver_module

        roots = []
        real_make_rng = driver_module.make_rng

        def recording_make_rng(seed):
            roots.append(real_make_rng(seed))
            return roots[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(driver_module, "make_rng", recording_make_rng)
            result = call()
        return result, roots[-1].getstate()

    def test_fingerprint_is_the_texts(self, txt):
        from repro.core.snapshot import stream_fingerprint

        tape = open_edge_stream(txt)
        assert tape.source_digest is not None
        assert stream_fingerprint(tape) == stream_fingerprint(FileEdgeStream(txt))

    def test_estimate_equals_text_run_in_every_field(self, txt):
        import dataclasses

        from repro import EstimatorConfig, TriangleCountEstimator

        config = EstimatorConfig(seed=2, repetitions=3)

        def estimate(stream):
            return self._run(
                lambda: TriangleCountEstimator(config).estimate(stream, kappa=self.KAPPA)
            )

        tape_result, tape_root = estimate(open_edge_stream(txt))
        text_result, text_root = estimate(FileEdgeStream(txt))
        assert dataclasses.asdict(tape_result) == dataclasses.asdict(text_result)
        assert tape_root == text_root

    def test_text_snapshot_resumes_on_converted_tape(self, txt, tmp_path):
        from repro import EstimatorConfig, TriangleCountEstimator, resume_from

        ckdir = tmp_path / "ck"
        config = EstimatorConfig(
            seed=2, repetitions=3, checkpoint_dir=str(ckdir), snapshot_keep=64
        )
        clean, clean_root = self._run(
            lambda: TriangleCountEstimator(config).estimate(
                FileEdgeStream(txt), kappa=self.KAPPA
            )
        )
        names = sorted(os.listdir(ckdir))
        assert names, "checkpointed run wrote no snapshots"
        for name in names:
            resumed, resumed_root = self._run(
                lambda: resume_from(
                    str(ckdir / name),
                    open_edge_stream(txt),
                    overrides={"checkpoint_dir": str(tmp_path / "resumed")},
                )
            )
            assert resumed.estimate == clean.estimate
            assert resumed.rounds == clean.rounds
            assert resumed.passes_total == clean.passes_total
            assert resumed_root == clean_root

    def test_private_tape_removed_when_stream_dropped(self, txt):
        import gc

        stream = open_edge_stream(txt)
        directory = os.path.dirname(stream.path)
        assert os.path.exists(stream.path)
        del stream
        gc.collect()
        assert not os.path.exists(directory)

    def test_each_open_converts_afresh(self, tmp_path):
        """An in-place edit that keeps the file size is seen by the next
        open: nothing keyed on the sampled text fingerprint is reused."""
        path = tmp_path / "g.txt"
        path.write_text("0 1\n2 3\n")
        first = open_edge_stream(path)
        path.write_text("0 2\n1 3\n")
        second = open_edge_stream(path)
        assert first.path != second.path
        assert list(first) == [(0, 1), (2, 3)]
        assert list(second) == [(0, 2), (1, 3)]

    def test_malformed_text_raises_line_numbered_error(self, tmp_path, monkeypatch):
        import tempfile

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        path = tmp_path / "bad.txt"
        path.write_text("# header\n0 1\n1 2\n2 oops\n3 4\n")
        with pytest.raises(StreamError, match=r"bad\.txt:4"):
            open_edge_stream(path)
        assert os.listdir(scratch) == []  # the failed conversion left nothing

    def test_write_tape_parses_text_without_converting(self, txt, tmp_path, monkeypatch):
        """``write_tape`` on a text path reads the text directly, not a
        private tape of it (which would convert everything twice)."""
        from repro.streams import tape as tape_module

        def no_conversion(*args, **kwargs):
            raise AssertionError("write_tape converted its text source")

        monkeypatch.setattr(tape_module, "convert_text", no_conversion)
        header = write_tape(txt, tmp_path / "g.etape")
        assert header.num_edges == len(FileEdgeStream(txt))


class TestPinnedTapeBytes:
    """A text's tape is pinned byte for byte: the header, its CRC and
    :func:`tape_fingerprint` must not move, so snapshots and serve cache
    keys bound to converted tapes still bind.

    The version-2 digests were recorded when the writer began writing
    narrow (int32) rows; the version-1 digests, recorded with the
    line-loop text parser and the int64-only writer, stay pinned on a
    version-1 tape built from the same rows, which must still read the
    same rows, stats and fingerprint."""

    TEXT_SHA256 = "58611c6b07459829ac8d8995cdea4f186d9cff1b4d9c652868bce854f323b93d"
    TAPE_SHA256 = "9d9003323db005f1a63c15857785df090c030c8e09793dbe33d894fa014bcb5b"
    #: The tape is under 64k rows, so its fingerprint hashes every byte.
    FINGERPRINT = "9d9003323db005f1a63c15857785df090c030c8e09793dbe33d894fa014bcb5b"
    V1_TAPE_SHA256 = "0fc118bc41e8f4895527f16ce456ace6160dadb7d1bfb8d2698d790c347dc133"
    V1_FINGERPRINT = "0fc118bc41e8f4895527f16ce456ace6160dadb7d1bfb8d2698d790c347dc133"

    @staticmethod
    def _sha256(path):
        import hashlib

        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.fixture
    def text(self, tmp_path):
        import random

        from repro.generators import planted_triangles_graph

        graph = planted_triangles_graph(4000, 1500, kappa_clique=6, rng=random.Random(11))
        path = tmp_path / "planted.el"
        write_edgelist(graph, path, header=["planted triangles", "base_edges=4000 triangles=1500"])
        assert self._sha256(path) == self.TEXT_SHA256
        return path

    @pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
    @pytest.mark.parametrize("small_blocks", [False, True], ids=["default-blocks", "8KiB-blocks"])
    @pytest.mark.parametrize("chunk_size", [65536, 1000])
    def test_tape_bytes_and_fingerprint_are_pinned(
        self, text, tmp_path, monkeypatch, crlf, small_blocks, chunk_size
    ):
        import repro.streams.file as file_module

        if crlf:
            text.write_bytes(text.read_bytes().replace(b"\n", b"\r\n"))
        if small_blocks:
            monkeypatch.setattr(file_module, "_BLOCK_BYTES", file_module._TEXT_CHUNK)
        tape = tmp_path / "planted.etape"
        write_tape(text, tape, chunk_size=chunk_size)
        assert self._sha256(tape) == self.TAPE_SHA256
        assert tape_fingerprint(tape) == self.FINGERPRINT
        converted = open_edge_stream(text)
        assert self._sha256(type(tape)(converted.path)) == self.TAPE_SHA256

    def test_version1_tape_reads_the_same_rows_stats_and_fingerprint(self, text, tmp_path):
        import numpy as np

        from tape_v1 import write_v1_tape

        tape = tmp_path / "planted.etape"
        write_tape(text, tape)
        narrow = MmapEdgeStream(tape)
        old = tmp_path / "planted-v1.etape"
        write_v1_tape(np.concatenate(list(FileEdgeStream(text).iter_chunks())), old)
        assert self._sha256(old) == self.V1_TAPE_SHA256
        assert tape_fingerprint(old) == self.V1_FINGERPRINT
        wide = MmapEdgeStream(old)
        assert (wide.header.version, wide.header.id_dtype) == (1, np.dtype("<i8"))
        assert (narrow.header.version, narrow.header.id_dtype) == (2, np.dtype("<i4"))
        assert wide.fingerprint() == self.V1_FINGERPRINT
        assert verify_tape(old).checksum == wide.header.checksum
        assert wide.stats() == narrow.stats() == FileEdgeStream(text).stats()
        assert list(wide) == list(narrow) == list(FileEdgeStream(text))
        for a, b in zip(wide.iter_chunks(1000), narrow.iter_chunks(1000)):
            np.testing.assert_array_equal(a, b)
