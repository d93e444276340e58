"""The one guessing loop against an independent sequential reference.

``estimate_program`` is the only implementation of the loop in the
library: the solo driver, ``run_estimate_program`` and the serving
scheduler all drive it.  Comparing those drivers with each other would
compare the loop with itself, so every path here is checked against
``tests/reference_loop.py`` - the paper's loop written out plainly over
``run_parallel_estimates`` - at every engine, fuse and speculation
setting, for resumed and fault-recovered runs, and for served jobs.

The restart contract is pinned too: retries and ladder steps restart the
program from its last committed boundary on the *same* root generator
(``make_rng`` runs once per ``estimate()``), and ``share_passes=False``
and a space budget run through the program like every other
configuration.
"""

from __future__ import annotations

import contextlib
import os
import random

import pytest

import repro.core.driver as driver_module
from reference_passes import reference_engine
from reference_loop import assert_matches_reference, reference_estimate
from repro import EstimatorConfig, TriangleCountEstimator, resume_from
from repro.core import executor, faults
from repro.core.driver import run_estimate_program
from repro.core.engine import engine_overrides
from repro.errors import SpaceBudgetExceeded
from repro.generators import barabasi_albert_graph, wheel_graph
from repro.io import write_edgelist
from repro.serve import SweepScheduler
from repro.serve.jobs import Job
from repro.serve.scheduler import next_job_id
from repro.streams import InMemoryEdgeStream
from repro.streams.file import FileEdgeStream
from repro.streams.transforms import shuffled

KAPPA = 4


@pytest.fixture(scope="module")
def edges():
    graph = barabasi_albert_graph(250, 4, random.Random(1))
    return shuffled(graph, random.Random(2))


@pytest.fixture(scope="module")
def tape(tmp_path_factory):
    path = tmp_path_factory.mktemp("reference") / "tape.edges"
    write_edgelist(barabasi_albert_graph(250, 4, random.Random(1)), path)
    return str(path)


def _estimate(stream, config, call=None):
    """One ``estimate()`` (or ``call()``) with every root generator recorded."""
    roots = []
    real_make_rng = driver_module.make_rng

    def recording_make_rng(seed):
        rng = real_make_rng(seed)
        roots.append(rng)
        return rng

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver_module, "make_rng", recording_make_rng)
        if call is None:
            result = TriangleCountEstimator(config).estimate(stream, kappa=KAPPA)
        else:
            result = call()
    return result, roots


class TestSoloMatchesReference:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("fuse", [False, True])
    @pytest.mark.parametrize(
        "mode,workers", [("python", 1), ("chunked", 1), ("sharded", 2)]
    )
    def test_every_engine_fuse_and_depth(self, edges, mode, workers, fuse, depth, monkeypatch):
        """``python`` runs every pass on the per-edge reference folds."""
        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)
        passes = reference_engine() if mode == "python" else contextlib.nullcontext()
        config = EstimatorConfig(
            seed=3,
            repetitions=3,
            engine_mode=None if mode == "python" else mode,
            workers=workers,
            chunk_size=128,
            fuse=fuse,
            speculate=depth >= 2,
            speculate_depth=depth if depth >= 2 else None,
        )
        with passes:
            result, roots = _estimate(InMemoryEdgeStream(edges), config)
        assert len(roots) == 1
        # Fusing changes the per-run pass and space accounting, so the
        # reference runs under the same fuse setting.
        with engine_overrides(fused=fuse):
            reference = reference_estimate(InMemoryEdgeStream(edges), KAPPA, config)
        assert_matches_reference(result, roots[0].getstate(), reference, speculated=depth >= 2)

    @pytest.mark.parametrize("speculate", [False, True])
    def test_unshared_passes_run_through_the_program(self, edges, speculate):
        """``share_passes=False``: each repetition is its own six-pass
        round with its own meter, on the solo and the program driver."""
        config = EstimatorConfig(
            seed=5, repetitions=3, share_passes=False, speculate=speculate
        )
        result, roots = _estimate(InMemoryEdgeStream(edges), config)
        reference = reference_estimate(InMemoryEdgeStream(edges), KAPPA, config)
        assert_matches_reference(result, roots[0].getstate(), reference)
        runs = [run for r in result.rounds for run in r.runs]
        assert result.passes_total == sum(run.passes_used for run in runs)
        outcome = run_estimate_program(InMemoryEdgeStream(edges), KAPPA, config)
        assert_matches_reference(outcome.result, outcome.root_state, reference)

    def test_generous_space_budget_runs_through_the_program(self, edges):
        config = EstimatorConfig(
            seed=6, repetitions=3, speculate=True, space_budget_words=10_000_000
        )
        result, roots = _estimate(InMemoryEdgeStream(edges), config)
        reference = reference_estimate(InMemoryEdgeStream(edges), KAPPA, config)
        # Speculation disengages under a budget: sweeps match exactly.
        assert_matches_reference(result, roots[0].getstate(), reference)
        assert result.sweeps_wasted == 0
        outcome = run_estimate_program(InMemoryEdgeStream(edges), KAPPA, config)
        assert_matches_reference(outcome.result, outcome.root_state, reference)

    @pytest.mark.parametrize("share", [True, False])
    def test_tiny_space_budget_still_aborts(self, share):
        stream = InMemoryEdgeStream.from_graph(wheel_graph(100))
        config = EstimatorConfig(
            seed=0, repetitions=2, space_budget_words=20, share_passes=share
        )
        with pytest.raises(SpaceBudgetExceeded):
            TriangleCountEstimator(config).estimate(stream, kappa=3)

    def test_hinted_and_capped_runs(self, edges):
        for config in (
            EstimatorConfig(seed=1, repetitions=3, t_hint=300.0, speculate=True),
            EstimatorConfig(seed=1, repetitions=3, max_rounds=3, speculate=True),
        ):
            result, roots = _estimate(InMemoryEdgeStream(edges), config)
            reference = reference_estimate(InMemoryEdgeStream(edges), KAPPA, config)
            assert_matches_reference(result, roots[0].getstate(), reference, speculated=True)


class TestResumeMatchesReference:
    @pytest.mark.parametrize(
        "extra",
        [
            dict(engine_mode="chunked", speculate=False),
            dict(engine_mode="sharded", workers=1, speculate=True, speculate_depth=3),
            dict(engine_mode="chunked", share_passes=False),
        ],
        ids=["sequential", "depth3", "unshared"],
    )
    def test_resume_from_every_boundary(self, tape, tmp_path, extra):
        config = EstimatorConfig(
            seed=3, repetitions=3, checkpoint_dir=str(tmp_path / "ck"), snapshot_keep=100, **extra
        )
        reference = reference_estimate(FileEdgeStream(tape), KAPPA, config)
        result, roots = _estimate(FileEdgeStream(tape), config)
        speculated = bool(extra.get("speculate"))
        assert_matches_reference(result, roots[0].getstate(), reference, speculated)
        names = sorted(os.listdir(tmp_path / "ck"))
        assert len(names) >= 2
        for name in names:
            source = str(tmp_path / "ck" / name)
            resumed, roots = _estimate(
                None,
                config,
                call=lambda: resume_from(
                    source,
                    FileEdgeStream(tape),
                    overrides={"checkpoint_dir": str(tmp_path / "resumed")},
                ),
            )
            assert len(roots) == 1
            assert_matches_reference(resumed, roots[0].getstate(), reference, speculated)


class TestRecoveryMatchesReference:
    @pytest.mark.parametrize(
        "extra,spec,actions",
        [
            (dict(speculate=False), "sweep.mid_stage@1", []),
            (dict(speculate=True, speculate_depth=3), "sweep.mid_stage@2", []),
            (dict(share_passes=False), "sweep.mid_stage@4", []),
            (
                dict(
                    speculate=True,
                    speculate_depth=3,
                    max_retries=0,
                    engine_mode="sharded",
                    workers=2,
                    chunk_size=64,
                ),
                "worker.crash@0;sweep.mid_stage@1",
                [faults.ACTION_SERIAL, faults.ACTION_SEQUENTIAL],
            ),
        ],
        ids=["retry", "retry-window", "retry-unshared", "degrade-twice"],
    )
    def test_fault_recovered_runs(self, tape, extra, spec, actions, monkeypatch):
        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)
        base = dict(seed=11, repetitions=3, engine_mode="chunked", workers=1)
        base.update(extra)
        stream = FileEdgeStream(tape)
        stream.stats()
        clean = EstimatorConfig(**base)
        reference = reference_estimate(stream, KAPPA, clean)
        result, roots = _estimate(stream, EstimatorConfig(**base, faults=spec))
        # One root generator per estimate, restored in place on restart.
        assert len(roots) == 1
        assert_matches_reference(
            result, roots[0].getstate(), reference, speculated=bool(extra.get("speculate"))
        )
        assert [r.action for r in result.degradations] == actions
        # The aborted attempts' sweeps are booked as waste.
        assert result.sweeps_wasted > 0
        assert result.passes_wasted > 0

    def test_make_rng_once_across_retry_and_degrade(self):
        """Three consecutive sweep faults exhaust the retries of a
        speculative window; the ladder degrades to sequential rounds and
        the program restarts - all on the one root generator."""
        stream = InMemoryEdgeStream.from_graph(
            barabasi_albert_graph(220, 4, random.Random(2))
        )
        base = dict(seed=4, repetitions=3, engine_mode="chunked", speculate=True, speculate_depth=3)
        result, roots = _estimate(
            stream, EstimatorConfig(**base, faults="sweep.mid_stage@0,1,2")
        )
        assert len(roots) == 1
        assert [r.action for r in result.degradations] == [faults.ACTION_SEQUENTIAL]
        reference = reference_estimate(stream, KAPPA, EstimatorConfig(**base))
        assert_matches_reference(result, roots[0].getstate(), reference, speculated=True)


class TestServedJobsMatchReference:
    def test_co_riding_jobs(self, edges):
        configs = [
            EstimatorConfig(seed=3, repetitions=3, speculate=False),
            EstimatorConfig(seed=9, repetitions=5, speculate=False),
            EstimatorConfig(seed=21, repetitions=3, max_rounds=4, speculate=False),
        ]
        shared = SweepScheduler(InMemoryEdgeStream(edges))
        jobs = []
        for config in configs:
            job_id = next_job_id()
            jobs.append(
                Job(
                    job_id,
                    driver_module.estimate_program(
                        shared.stream, KAPPA, config, owner_prefix=f"{job_id}/"
                    ),
                )
            )
        for job in jobs:
            shared.submit(job)
        shared.start()
        try:
            for job in jobs:
                assert job.wait(120.0)
        finally:
            shared.shutdown()
        for job, config in zip(jobs, configs):
            assert job.error is None
            reference = reference_estimate(InMemoryEdgeStream(edges), KAPPA, config)
            assert_matches_reference(job.outcome.result, job.outcome.root_state, reference)
