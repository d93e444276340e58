"""Speculative round windows are the default guessing-loop schedule.

With no ``REPRO_SPECULATE*`` variable and no config field set, the loop
runs windows of up to :data:`~repro.core.engine.DEFAULT_SPECULATE_DEPTH`
(4) rounds through shared sweeps.  The default must stay bit-identical to
the sequential loop (``speculate_depth=1``) on every input, take strictly
fewer sweeps on multi-round runs, bound its waste on dense inputs, and
keep the served-job and SIGTERM contracts.
"""

from __future__ import annotations

import itertools
import os
import random
import signal
import subprocess
import sys

import pytest

import repro.core.driver as driver_module
from reference_loop import assert_matches_reference, reference_estimate
from repro import cli
from repro.core import engine, snapshot
from repro.core.driver import EstimatorConfig, TriangleCountEstimator, estimate_program
from repro.generators import (
    barabasi_albert_graph,
    planted_triangles_graph,
    triangulated_grid_graph,
)
from repro.graph import Graph
from repro.io import write_edgelist
from repro.serve import SweepScheduler
from repro.serve.jobs import Job
from repro.serve.scheduler import next_job_id
from repro.streams import InMemoryEdgeStream, PassScheduler
from repro.streams.transforms import shuffled

pytest.importorskip("numpy")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _stream(graph, seed=0):
    return InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(seed)))


@pytest.fixture
def default_policy(monkeypatch):
    """The ambient policy a process starts with when no variable is set."""
    monkeypatch.delenv("REPRO_SPECULATE", raising=False)
    monkeypatch.delenv("REPRO_SPECULATE_DEPTH", raising=False)


def _window_depths(stream, kappa, config):
    """The depth of every window the loop opens, and the rounds it commits.

    Every window opens after a reported boundary, and its first batch
    carries one stage per round.
    """
    depths, boundaries = [], []
    program = estimate_program(stream, kappa, config, on_boundary=boundaries.append)
    scheduler = PassScheduler(stream)
    try:
        batch = next(program)
        while True:
            if boundaries:
                depths.append(len(batch))
                boundaries.clear()
            driver_module.sweep_tagged_stages(scheduler, batch)
            batch = program.send(None)
    except StopIteration as stop:
        return depths, len(stop.value.result.rounds)


def _estimate(stream, kappa, config):
    """One ``estimate()`` and its root generator's final state."""
    roots = []
    real_make_rng = driver_module.make_rng

    def recording_make_rng(seed):
        roots.append(real_make_rng(seed))
        return roots[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver_module, "make_rng", recording_make_rng)
        result = TriangleCountEstimator(config).estimate(stream, kappa=kappa)
    assert len(roots) == 1
    return result, roots[0].getstate()


class TestPolicy:
    def test_unset_environment_speculates_four_deep(self, default_policy):
        assert engine.DEFAULT_SPECULATE_DEPTH == 4
        assert engine.policy().speculate_depth == 4
        assert engine.resolve(EstimatorConfig()).speculate_depth == 4

    def test_fresh_process_speculates_four_deep(self):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_SPECULATE")}
        env["PYTHONPATH"] = SRC
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.core import engine; print(engine.policy().speculate_depth)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.split() == ["4"]

    def test_off_switches_give_depth_one_windows(self, default_policy, monkeypatch):
        stream = _stream(barabasi_albert_graph(300, 4, random.Random(2)))
        base = dict(seed=11, repetitions=3)
        depths, rounds = _window_depths(stream, 4, EstimatorConfig(**base))
        assert depths[0] == 4
        sequential = ([1] * rounds, rounds)
        assert _window_depths(stream, 4, EstimatorConfig(speculate_depth=1, **base)) == sequential
        with engine.engine_overrides(speculate_depth=1):
            assert _window_depths(stream, 4, EstimatorConfig(**base)) == sequential
        monkeypatch.setenv("REPRO_SPECULATE_DEPTH", "1")
        assert _window_depths(stream, 4, EstimatorConfig(**base)) == sequential


class TestParity:
    INPUTS = {
        "planted": (lambda: planted_triangles_graph(2000, 300, rng=random.Random(4)), 3),
        "ba": (lambda: barabasi_albert_graph(400, 4, random.Random(1)), 4),
        "grid": (lambda: triangulated_grid_graph(30, 30), 3),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_default_matches_sequential(self, default_policy, name, workers):
        build, kappa = self.INPUTS[name]
        stream = _stream(build(), seed=5)
        base = dict(seed=7, repetitions=3, workers=workers, engine_mode="chunked")
        default, default_root = _estimate(stream, kappa, EstimatorConfig(**base))
        sequential, sequential_root = _estimate(
            stream, kappa, EstimatorConfig(speculate_depth=1, **base)
        )
        assert default.estimate == sequential.estimate
        assert default.rounds == sequential.rounds
        assert default.passes_total == sequential.passes_total
        assert default.space_words_peak == sequential.space_words_peak
        assert default.final_plan == sequential.final_plan
        assert default_root == sequential_root
        assert len(default.rounds) > 1
        assert default.sweeps_total < sequential.sweeps_total


class TestServedJobs:
    def test_default_config_co_riding_jobs(self, default_policy):
        edges = shuffled(barabasi_albert_graph(250, 4, random.Random(1)), random.Random(2))
        configs = [
            EstimatorConfig(seed=3, repetitions=3),
            EstimatorConfig(seed=9, repetitions=5),
            EstimatorConfig(seed=21, repetitions=3, max_rounds=4),
        ]
        shared = SweepScheduler(InMemoryEdgeStream(edges))
        jobs = []
        for config in configs:
            job_id = next_job_id()
            program = estimate_program(shared.stream, 4, config, owner_prefix=f"{job_id}/")
            jobs.append(Job(job_id, program))
        for job in jobs:
            shared.submit(job)
        shared.start()
        try:
            for job in jobs:
                assert job.wait(120.0)
        finally:
            shared.shutdown()
        saved = []
        for job, config in zip(jobs, configs):
            assert job.error is None
            reference = reference_estimate(InMemoryEdgeStream(edges), 4, config)
            assert_matches_reference(
                job.outcome.result, job.outcome.root_state, reference, speculated=True
            )
            saved.append(job.outcome.result.sweeps_total < reference[0].sweeps_total)
        assert all(saved)  # every job ran multi-round windows


def _disjoint_k8s(count):
    return Graph(
        edges=[(8 * b + i, 8 * b + j) for b in range(count) for i in range(8) for j in range(i + 1, 8)]
    )


class TestWasteBound:
    """Disjoint K8s (kappa = 7, T = 2m) accept in round 2 or 3: one 4-deep
    window holds the whole estimate, and at most its last round - six
    passes, riding sweeps shared with committed rounds - is discarded."""

    @pytest.mark.parametrize("cliques", [500, 2000, 8000])
    def test_first_window_wastes_at_most_one_round(self, default_policy, cliques):
        graph = _disjoint_k8s(cliques)
        for seed in range(4):
            stream = _stream(graph, seed)
            default = TriangleCountEstimator(EstimatorConfig(seed=seed)).estimate(stream, kappa=7)
            sequential = TriangleCountEstimator(
                EstimatorConfig(seed=seed, speculate_depth=1)
            ).estimate(stream, kappa=7)
            assert default.estimate == sequential.estimate
            rounds = len(sequential.rounds)
            assert rounds in (3, 4)
            assert sequential.sweeps_total == 6 * rounds
            assert default.sweeps_total == 6
            assert default.sweeps_wasted == 0
            assert default.passes_wasted == 6 * (4 - rounds) <= 6


def test_sigterm_mid_window_persists_the_committed_prefix(
    tmp_path, monkeypatch, capsys, default_policy
):
    """A default-config checkpointing CLI run signalled mid-way through
    its first 4-deep window finishes that window, persists the boundary
    after its committed prefix (round 4), exits 130 and resumes
    bit-identically."""
    path = tmp_path / "ba.edges"
    write_edgelist(barabasi_albert_graph(800, 4, random.Random(2)), path)
    args = ["estimate", str(path), "--kappa", "5", "--seed", "3", "--repetitions", "3",
            "--engine", "chunked", "--chunk-size", "256", "--workers", "2"]
    assert cli.main(args) == 0
    clean = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith(("estimate:", "rounds:", "passes:"))
    ]
    assert int(clean[1].split()[1]) > 4  # the first window commits whole

    real = PassScheduler.new_fused_pass_chunks
    sweeps = itertools.count()

    def signal_after_first_chunk(chunks):
        try:
            for index, block in enumerate(chunks):
                yield block
                if index == 0:
                    assert signal.getsignal(signal.SIGTERM) not in (signal.SIG_DFL, signal.SIG_IGN)
                    os.kill(os.getpid(), signal.SIGTERM)
        finally:
            chunks.close()

    def signalling(self, *a, **kw):
        chunks = real(self, *a, **kw)
        return signal_after_first_chunk(chunks) if next(sweeps) == 2 else chunks

    ckdir = tmp_path / "ck"
    monkeypatch.setattr(PassScheduler, "new_fused_pass_chunks", signalling)
    rc = cli.main(args + ["--checkpoint-dir", str(ckdir)])
    monkeypatch.setattr(PassScheduler, "new_fused_pass_chunks", real)
    captured = capsys.readouterr()
    assert rc == 130
    assert "interrupted: final snapshot flushed" in captured.err
    assert snapshot.load_latest(ckdir).round_index == 4

    assert cli.main(["resume", str(ckdir), str(path), "--engine", "chunked"]) == 0
    out = capsys.readouterr().out
    assert [
        line for line in out.splitlines() if line.startswith(("estimate:", "rounds:", "passes:"))
    ] == clean
