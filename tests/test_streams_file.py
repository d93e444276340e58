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
        assert len(s) == 3  # the stats sweep's (test_len_reuses_cached_stats)

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
