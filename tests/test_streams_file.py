"""Tests for repro.streams.file.FileEdgeStream and repro.io.edgelist."""

from __future__ import annotations

import pytest

from repro.errors import StreamError
from repro.generators import wheel_graph
from repro.io import read_edgelist, write_edgelist
from repro.streams import FileEdgeStream


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# a comment\n0 1\n\n1 2\n2 0\n")
    return path


class TestFileEdgeStream:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StreamError, match="not found"):
            FileEdgeStream(tmp_path / "nope.txt")

    def test_parses_and_canonicalizes(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("5 2\n")
        assert list(FileEdgeStream(path)) == [(2, 5)]

    def test_skips_comments_and_blanks(self, edge_file):
        assert list(FileEdgeStream(edge_file)) == [(0, 1), (1, 2), (0, 2)]

    def test_len_cached(self, edge_file):
        s = FileEdgeStream(edge_file)
        assert len(s) == 3
        assert len(s) == 3

    def test_replay_consistency(self, edge_file):
        s = FileEdgeStream(edge_file)
        assert list(s) == list(s)

    def test_len_counts_via_chunked_parser(self, tmp_path):
        # Comments and blanks interleaved across chunk boundaries: the
        # batch-parsed count must equal the per-edge iteration count.
        path = tmp_path / "sparse.txt"
        lines = []
        for i in range(257):
            lines.append(f"# filler {i}")
            lines.append(f"{i} {i + 1}")
            if i % 3 == 0:
                lines.append("")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        s = FileEdgeStream(path)
        assert len(s) == 257 == sum(1 for _ in s)

    def test_stats_cached_and_fills_length(self, edge_file):
        s = FileEdgeStream(edge_file)
        stats = s.stats()
        assert stats.num_edges == 3
        assert stats.max_vertex_id == 2
        assert s.stats() is stats  # cached, no second sweep
        # The stats sweep settles the length too: no extra counting pass.
        assert s._length == 3
        assert len(s) == 3

    def test_len_reuses_cached_stats(self, edge_file):
        s = FileEdgeStream(edge_file)
        s.stats()
        s._path = "/nonexistent/after/stats"  # any further sweep would fail
        assert len(s) == 3

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\njust-one-token\n")
        with pytest.raises(StreamError, match="bad.txt:2"):
            list(FileEdgeStream(path))

    def test_non_integer_vertex(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        with pytest.raises(StreamError, match="non-integer"):
            list(FileEdgeStream(path))

    def test_self_loop_rejected_when_validating(self, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("3 3\n")
        with pytest.raises(Exception):
            list(FileEdgeStream(path))

    def test_validate_false_passes_through(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("5 2\n")
        assert list(FileEdgeStream(path, validate=False)) == [(5, 2)]


class TestEdgelistIO:
    def test_roundtrip(self, tmp_path, wheel10):
        path = tmp_path / "wheel.txt"
        write_edgelist(wheel10, path, header=["wheel n=10"])
        loaded = read_edgelist(path)
        assert loaded.edge_list() == wheel10.edge_list()

    def test_header_written_as_comments(self, tmp_path, triangle):
        path = tmp_path / "t.txt"
        write_edgelist(triangle, path, header=["hello", "world"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# hello"
        assert lines[1] == "# world"

    def test_read_drops_duplicates_by_default(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1\n1 0\n0 1\n")
        g = read_edgelist(path)
        assert g.num_edges == 1

    def test_read_drops_self_loops_by_default(self, tmp_path):
        path = tmp_path / "loops.txt"
        path.write_text("0 0\n0 1\n")
        g = read_edgelist(path)
        assert g.num_edges == 1

    def test_read_strict_mode(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1\n1 0\n")
        with pytest.raises(Exception):
            read_edgelist(path, on_duplicate="error")

    def test_read_malformed_reports_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nbroken\n")
        with pytest.raises(StreamError, match=":2"):
            read_edgelist(path)

    def test_file_stream_agrees_with_reader(self, tmp_path, grid4):
        path = tmp_path / "grid.txt"
        write_edgelist(grid4, path)
        assert sorted(FileEdgeStream(path)) == grid4.edge_list()


class TestPrefetchShutdown:
    """The double-buffered reader thread must never outlive its pass.

    Closing the chunk iterator joins the thread directly; an iterator
    abandoned *without* close (its consumer frame pinned inside a
    propagating exception's traceback, the common failure shape) parks
    the reader behind the full queue - the next pass over the stream
    proves the old one dead and reaps it.
    """

    def _tape(self, tmp_path, rows=5000):
        import numpy  # noqa: F401 - chunked prefetch needs the kernels

        path = tmp_path / "tape.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(rows)), encoding="utf-8")
        return path, rows

    @staticmethod
    def _prefetch_threads():
        import threading

        return [t for t in threading.enumerate() if t.name == "repro-file-prefetch"]

    def test_closing_iterator_joins_reader_thread(self, tmp_path, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.setenv("REPRO_FILE_PREFETCH", "1")
        path, _ = self._tape(tmp_path)
        stream = FileEdgeStream(path)
        chunks = stream.iter_chunks(64)
        next(chunks)
        chunks.close()
        assert not self._prefetch_threads()

    def test_abandoned_reader_reaped_by_next_pass(self, tmp_path, monkeypatch):
        pytest.importorskip("numpy")
        import time

        monkeypatch.setenv("REPRO_FILE_PREFETCH", "1")
        path, rows = self._tape(tmp_path)
        stream = FileEdgeStream(path)

        def consumer():
            chunks = stream.iter_chunks(64)  # held by the pinned frame
            for _ in chunks:
                raise RuntimeError("consumer died mid-file")

        # The captured traceback pins the consumer frame - and with it
        # the suspended chunk iterator - exactly as a failure propagating
        # out of a sweep would; the abandoned reader is still parked.
        with pytest.raises(RuntimeError, match="mid-file") as pinned:
            consumer()
        assert self._prefetch_threads()
        # A fresh pass over the same tape retires the orphan and still
        # reads the complete sequence.
        assert sum(len(block) for block in stream.iter_chunks(64)) == rows
        deadline = time.time() + 2.0
        while self._prefetch_threads() and time.time() < deadline:
            time.sleep(0.01)
        assert not self._prefetch_threads(), (
            "abandoned prefetch reader survived a fresh pass"
        )
        del pinned

    def test_abandoned_reader_reaped_by_per_line_pass(self, tmp_path, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.setenv("REPRO_FILE_PREFETCH", "1")
        path, rows = self._tape(tmp_path)
        stream = FileEdgeStream(path)

        def consumer():
            chunks = stream.iter_chunks(64)  # held by the pinned frame
            for _ in chunks:
                raise RuntimeError("consumer died mid-file")

        with pytest.raises(RuntimeError, match="mid-file") as pinned:
            consumer()
        assert self._prefetch_threads()
        # A per-line pass replays the tape too - it must reap the orphan
        # exactly like a chunked pass does.
        assert sum(1 for _ in stream) == rows
        assert not self._prefetch_threads()
        del pinned

    def test_retired_pass_raises_if_resumed(self, tmp_path, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.setenv("REPRO_FILE_PREFETCH", "1")
        path, rows = self._tape(tmp_path)
        stream = FileEdgeStream(path)
        stale = stream.iter_chunks(64)
        next(stale)
        # A newer pass replays the tape underneath the abandoned one.
        assert sum(len(block) for block in stream.iter_chunks(64)) == rows
        # The retired pass fails on its *first* pull - retirement drains
        # the buffered chunks, so no stale data is replayed first.
        with pytest.raises(StreamError, match="retired"):
            next(stale)

    def test_retired_pass_cannot_complete_from_buffered_tail(
        self, tmp_path, monkeypatch
    ):
        pytest.importorskip("numpy")
        monkeypatch.setenv("REPRO_FILE_PREFETCH", "1")
        # Chunk size >= the file: the reader buffers the whole tail (and
        # the end sentinel) immediately, so without the retire-time drain
        # a resumed retired pass would *silently complete*.
        path, rows = self._tape(tmp_path, rows=96)
        stream = FileEdgeStream(path)
        stale = stream.iter_chunks(64)
        next(stale)
        assert sum(len(block) for block in stream.iter_chunks(64)) == rows
        with pytest.raises(StreamError, match="retired"):
            next(stale)


class TestBatchParseDiagnostics:
    """Malformed-line errors must carry ``path:lineno`` on every read path,
    including sharded execution with shared-memory chunk spooling live."""

    def _malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        lines = ["# header", "0 1", "1 2", "2 3", "3 oops", "4 5"]
        path.write_text("\n".join(lines) + "\n")
        return path  # malformed token on line 5

    def test_chunked_parser_line_numbered_error(self, tmp_path):
        stream = FileEdgeStream(self._malformed_file(tmp_path))
        with pytest.raises(StreamError, match=r"bad\.txt:5"):
            for _ in stream.iter_chunks(chunk_size=2):
                pass

    def test_prefetch_thread_forwards_line_numbered_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FILE_PREFETCH", "1")
        stream = FileEdgeStream(self._malformed_file(tmp_path))
        with pytest.raises(StreamError, match=r"bad\.txt:5"):
            for _ in stream.iter_chunks(chunk_size=1):
                pass

    def test_threaded_pass_line_numbered_error(self, tmp_path, monkeypatch):
        import numpy as np

        from repro.core import executor
        from repro.core.kernels import DegreeCountPlan
        from repro.streams.multipass import PassScheduler

        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 1)
        path = tmp_path / "big_bad.txt"
        good = [f"{i} {i + 1}" for i in range(64)]
        path.write_text("\n".join(good + ["77 oops"] + good) + "\n")
        stream = FileEdgeStream(path)
        plan = DegreeCountPlan(np.arange(10, dtype=np.int64))
        with pytest.raises(StreamError, match=r"big_bad\.txt:65"):
            executor.run_plan(
                PassScheduler(stream), plan, chunk_size=8, workers=2
            )
