"""The tape's row width: narrow (int32) and wide (int64) rows read alike.

The writer stores ids as int32 when every id lies in ``[0, 2^31)`` and
falls back to int64 otherwise; version-1 tapes are always int64.  The
width must be invisible to everything but memory: the same rows on a
version-1 (wide) and a version-2 (narrow) tape give equal estimates,
trajectories, pass totals and root-RNG states at any chunk size and
worker count, through the CLI and through a served job alike.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.cli import main
from repro.core.driver import EstimatorConfig, run_estimate_program
from repro.errors import TapeFormatError
from repro.generators import barabasi_albert_graph
from repro.io import write_edgelist
from repro.serve.daemon import background_server
from repro.serve.protocol import request_unix, root_rng_digest
from repro.streams import InMemoryEdgeStream, MmapEdgeStream, write_tape
from repro.streams.base import DEFAULT_CHUNK_EDGES
from repro.streams.tape import NARROW, NARROW_LIMIT, WIDE, read_header, verify_tape
from tape_v1 import write_v1_tape

KAPPA = 4


@pytest.fixture(scope="module")
def edges():
    return barabasi_albert_graph(160, 4, random.Random(5)).edge_list()


@pytest.fixture(scope="module")
def tapes(edges, tmp_path_factory):
    """The same rows as a version-1 (wide) and a version-2 (narrow) tape."""
    directory = tmp_path_factory.mktemp("width")
    wide, narrow = directory / "v1.etape", directory / "v2.etape"
    write_v1_tape(edges, wide)
    write_tape(InMemoryEdgeStream(edges), narrow)
    assert read_header(wide).id_dtype == WIDE and read_header(wide).version == 1
    assert read_header(narrow).id_dtype == NARROW and read_header(narrow).version == 2
    return wide, narrow


def _outcome(path, **config):
    outcome = run_estimate_program(MmapEdgeStream(path), KAPPA, EstimatorConfig(seed=11, **config))
    return dataclasses.asdict(outcome.result), root_rng_digest(outcome.root_state)


class TestWidthMatrix:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 1000, DEFAULT_CHUNK_EDGES])
    def test_v1_and_v2_tapes_estimate_identically(self, tapes, chunk, workers):
        wide, narrow = tapes
        result, root = _outcome(narrow, chunk_size=chunk, workers=workers)
        assert (result, root) == _outcome(wide, chunk_size=chunk, workers=workers)
        assert len(result["rounds"]) > 1  # a multi-round trajectory is compared

    def test_v1_tape_opens_stats_verifies_and_reads_as_before(self, tapes, edges):
        wide, narrow = tapes
        old, new = MmapEdgeStream(wide), MmapEdgeStream(narrow)
        assert old.stats() == new.stats()
        assert len(old) == len(new) == len(edges)
        assert verify_tape(wide).checksum == old.header.checksum
        assert list(old) == list(new) == edges
        assert old.header.payload_bytes == 2 * new.header.payload_bytes


class TestWriterFallback:
    def test_largest_narrow_id_stays_narrow(self, tmp_path):
        header = write_tape(InMemoryEdgeStream([(0, NARROW_LIMIT - 1)]), tmp_path / "a.etape")
        assert header.id_dtype == NARROW
        header = write_tape(InMemoryEdgeStream([(0, NARROW_LIMIT)]), tmp_path / "b.etape")
        assert header.id_dtype == WIDE

    @pytest.mark.parametrize("late", [(5, NARROW_LIMIT), (-4, 2)], ids=["past-2^31", "negative"])
    def test_a_late_wide_id_widens_the_rows_already_written(self, tmp_path, late):
        # More narrow rows than one widening piece holds, then the wide id.
        edges = [(i, i + 1) for i in range(70_000)] + [late] + [(i, i + 2) for i in range(100)]
        stream = InMemoryEdgeStream(edges, validate=False)
        late_tape, early_tape = tmp_path / "late.etape", tmp_path / "early.etape"
        header = write_tape(stream, late_tape, chunk_size=1000)
        assert header.id_dtype == WIDE
        assert verify_tape(late_tape) == read_header(late_tape) == header
        assert list(MmapEdgeStream(late_tape)) == edges
        # One block holding every row is wide from the start: same bytes.
        write_tape(stream, early_tape, chunk_size=len(edges))
        assert late_tape.read_bytes() == early_tape.read_bytes()
        assert read_header(late_tape).canonical == (late[0] >= 0)

    def test_v1_header_with_the_narrow_flag_is_corrupt(self, tmp_path):
        import struct

        path = tmp_path / "v1.etape"
        write_v1_tape([(0, 1)], path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 12, 3)  # canonical | narrow on version 1
        path.write_bytes(bytes(blob))
        with pytest.raises(TapeFormatError, match="corrupt header"):
            read_header(path)


class TestCliOnNarrowTapes:
    def test_exact_stats_and_convert_validate(self, tapes, edges, tmp_path, capsys):
        wide, narrow = tapes
        outputs = []
        for path in (wide, narrow):
            assert main(["exact", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert main(["stats", str(narrow)]) == 0
        assert "32-bit ids, 8 bytes per edge" in capsys.readouterr().out
        assert main(["stats", str(wide)]) == 0
        assert "64-bit ids, 16 bytes per edge (version 1)" in capsys.readouterr().out
        text = tmp_path / "g.el"
        write_edgelist(barabasi_albert_graph(160, 4, random.Random(5)), text)
        assert main(["convert", str(text), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "rows: 32-bit ids, 8 bytes per edge" in out and "validated" in out

    def test_convert_says_when_it_falls_back_to_wide(self, tmp_path, capsys):
        text = tmp_path / "big.el"
        text.write_text(f"0 1\n1 2\n0 2\n2 {NARROW_LIMIT}\n")
        assert main(["convert", str(text), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "rows: 64-bit ids, 16 bytes per edge (an id lies outside [0, 2^31))" in out
        assert "validated" in out
        assert main(["tape-info", f"{text}.etape"]) == 0
        assert "an id lies outside" in capsys.readouterr().out


class TestServedNarrowTape:
    def test_served_job_matches_the_solo_run_on_the_v1_tape(self, tapes, tmp_path):
        wide, narrow = tapes
        solo = run_estimate_program(MmapEdgeStream(wide), KAPPA, EstimatorConfig(seed=7))
        sock = str(tmp_path / "serve.sock")
        request = {"op": "estimate", "path": str(narrow), "kappa": KAPPA, "config": {"seed": 7}}
        with background_server(socket_path=sock, batch_window=0.0):
            document = request_unix(sock, request)
        assert document["ok"] is True
        assert document["estimate"] == solo.result.estimate
        assert document["passes_total"] == solo.result.passes_total
        assert document["sweeps_total"] == solo.result.sweeps_total
        assert document["root_rng_sha256"] == root_rng_digest(solo.root_state)
        assert [r["median_estimate"] for r in document["rounds"]] == [
            r.median_estimate for r in solo.result.rounds
        ]


def test_narrow_chunks_are_int32_views(tapes):
    chunks = list(MmapEdgeStream(tapes[1]).iter_chunks(100))
    assert all(chunk.dtype == np.int32 and chunk.base is not None for chunk in chunks)
