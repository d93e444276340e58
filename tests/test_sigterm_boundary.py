"""SIGTERM during a checkpointing CLI estimate stops it at a round boundary.

The CLI's handler only sets :data:`repro.core.driver.stop_requested`; the
sweep in flight runs to its end, the driver persists the next committed
boundary, flushes the final snapshot and the command exits 130.  Resuming
from that snapshot must reproduce the uninterrupted run exactly.
"""

from __future__ import annotations

import itertools
import os
import random
import signal

import pytest

from repro import cli
from repro.core import driver, snapshot
from repro.generators import barabasi_albert_graph
from repro.io import write_edgelist
from repro.streams.multipass import PassScheduler

pytest.importorskip("numpy")

#: The sweep (0-based, counted over the whole run) that receives SIGTERM
#: after its first chunk: mid-way through the second round.
SIGNALLED_SWEEP = 8


def _result_lines(out):
    """The deterministic result lines (estimate/rounds/passes)."""
    return [line for line in out.splitlines() if line.startswith(("estimate:", "rounds:", "passes:"))]


def _signal_after_first_chunk(chunks):
    try:
        for index, block in enumerate(chunks):
            yield block
            if index == 0:
                # Never deliver a default-action SIGTERM to the test process.
                assert signal.getsignal(signal.SIGTERM) not in (signal.SIG_DFL, signal.SIG_IGN)
                os.kill(os.getpid(), signal.SIGTERM)
    finally:
        chunks.close()


def test_sigterm_mid_sweep_exits_130_and_resume_is_bit_identical(
    tmp_path, monkeypatch, capsys
):
    path = tmp_path / "ba.edges"
    write_edgelist(barabasi_albert_graph(800, 4, random.Random(2)), path)
    args = ["estimate", str(path), "--kappa", "5", "--seed", "3", "--repetitions", "3",
            "--engine", "chunked", "--chunk-size", "256", "--workers", "2",
            "--speculate-depth", "1"]
    assert cli.main(args) == 0
    clean = _result_lines(capsys.readouterr().out)
    assert int(clean[1].split()[1]) > 2  # rounds: the signal lands mid-run

    real = PassScheduler.new_fused_pass_chunks
    sweeps = itertools.count()

    def signalling(self, *a, **kw):
        chunks = real(self, *a, **kw)
        return _signal_after_first_chunk(chunks) if next(sweeps) == SIGNALLED_SWEEP else chunks

    ckdir = tmp_path / "ck"
    monkeypatch.setattr(PassScheduler, "new_fused_pass_chunks", signalling)
    rc = cli.main(args + ["--checkpoint-dir", str(ckdir)])
    monkeypatch.setattr(PassScheduler, "new_fused_pass_chunks", real)
    captured = capsys.readouterr()
    assert rc == 130
    assert "interrupted: final snapshot flushed" in captured.err
    assert not driver.stop_requested.is_set()  # cleared on the way out
    # The boundary after the signalled round is the last one persisted.
    assert snapshot.load_latest(ckdir).round_index == SIGNALLED_SWEEP // 6 + 1

    assert cli.main(["resume", str(ckdir), str(path), "--engine", "chunked"]) == 0
    out = capsys.readouterr().out
    assert "resuming:  round" in out
    assert _result_lines(out) == clean
