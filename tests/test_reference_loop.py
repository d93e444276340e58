"""The one guessing loop against an independent sequential reference.

``estimate_program`` is the only implementation of the loop in the
library: the solo driver, ``run_estimate_program`` and the serving
scheduler all drive it.  Comparing those drivers with each other would
compare the loop with itself, so every path here is checked against
``tests/reference_loop.py`` - the paper's loop written out plainly over
``run_parallel_estimates`` - at every engine and speculation setting,
for resumed and fault-recovered runs, and for served jobs.

The recovery contract is pinned too: retries and ladder steps rewind
the program's window to its start on the *same* root generator
(``make_rng`` runs once per ``estimate()``), served riders recover from
a shared traversal's fault on their own, and a space budget runs
through the program like every other configuration.
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
from repro.core import executor, faults, snapshot
from repro.core.driver import run_estimate_program
from repro.errors import SpaceBudgetExceeded
from repro.generators import barabasi_albert_graph, wheel_graph
from repro.io import write_edgelist
from repro.serve import SweepScheduler
from repro.serve.jobs import Job
from repro.serve.scheduler import next_job_id
from repro.streams import InMemoryEdgeStream, PassScheduler
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


def _run(driver, stream, config):
    """One run through ``driver`` - ``estimate()`` or
    ``run_estimate_program`` - and its root generator's final state."""
    if driver == "estimate":
        result, roots = _estimate(stream, config)
        root_state = roots[0].getstate()
    else:
        outcome, roots = _estimate(
            stream, config, call=lambda: run_estimate_program(stream, KAPPA, config)
        )
        result, root_state = outcome.result, outcome.root_state
    # One root generator per run, restored in place on restart.
    assert len(roots) == 1
    return result, root_state


DRIVERS = pytest.mark.parametrize("driver", ["estimate", "program"])


class TestSoloMatchesReference:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize(
        "mode,workers", [("python", 1), ("chunked", 1), ("sharded", 2)]
    )
    def test_every_engine_and_depth(self, edges, mode, workers, depth, monkeypatch):
        """``python`` runs every pass on the per-edge reference folds."""
        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)
        passes = reference_engine() if mode == "python" else contextlib.nullcontext()
        config = EstimatorConfig(
            seed=3,
            repetitions=3,
            engine_mode=None if mode == "python" else mode,
            workers=workers,
            chunk_size=128,
            speculate_depth=depth,
        )
        with passes:
            result, roots = _estimate(InMemoryEdgeStream(edges), config)
        assert len(roots) == 1
        reference = reference_estimate(InMemoryEdgeStream(edges), KAPPA, config)
        assert_matches_reference(result, roots[0].getstate(), reference, speculated=depth >= 2)

    def test_generous_space_budget_runs_through_the_program(self, edges):
        config = EstimatorConfig(
            seed=6, repetitions=3, space_budget_words=10_000_000
        )
        result, roots = _estimate(InMemoryEdgeStream(edges), config)
        reference = reference_estimate(InMemoryEdgeStream(edges), KAPPA, config)
        # Speculation disengages under a budget: sweeps match exactly.
        assert_matches_reference(result, roots[0].getstate(), reference)
        assert result.sweeps_wasted == 0
        outcome = run_estimate_program(InMemoryEdgeStream(edges), KAPPA, config)
        assert_matches_reference(outcome.result, outcome.root_state, reference)

    def test_tiny_space_budget_still_aborts(self):
        stream = InMemoryEdgeStream.from_graph(wheel_graph(100))
        config = EstimatorConfig(seed=0, repetitions=2, space_budget_words=20)
        with pytest.raises(SpaceBudgetExceeded):
            TriangleCountEstimator(config).estimate(stream, kappa=3)

    def test_hinted_and_capped_runs(self, edges):
        for config in (
            EstimatorConfig(seed=1, repetitions=3, t_hint=300.0),
            EstimatorConfig(seed=1, repetitions=3, max_rounds=3),
        ):
            result, roots = _estimate(InMemoryEdgeStream(edges), config)
            reference = reference_estimate(InMemoryEdgeStream(edges), KAPPA, config)
            assert_matches_reference(result, roots[0].getstate(), reference, speculated=True)


class TestResumeMatchesReference:
    @pytest.mark.parametrize(
        "extra",
        [
            dict(engine_mode="chunked", speculate_depth=1),
            dict(engine_mode="sharded", workers=1, speculate_depth=3),
        ],
        ids=["sequential", "depth3"],
    )
    @DRIVERS
    def test_resume_from_every_boundary(self, tape, tmp_path, extra, driver):
        config = EstimatorConfig(
            seed=3, repetitions=3, checkpoint_dir=str(tmp_path / "ck"), snapshot_keep=100, **extra
        )
        reference = reference_estimate(FileEdgeStream(tape), KAPPA, config)
        result, root_state = _run(driver, FileEdgeStream(tape), config)
        speculated = extra["speculate_depth"] > 1
        assert_matches_reference(result, root_state, reference, speculated)
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
            (dict(speculate_depth=1), "sweep.mid_stage@1", []),
            (dict(speculate_depth=3), "sweep.mid_stage@2", []),
            (
                dict(
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
        ids=["retry", "retry-window", "degrade-twice"],
    )
    @DRIVERS
    def test_fault_recovered_runs(self, tape, extra, spec, actions, driver, monkeypatch):
        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)
        base = dict(seed=11, repetitions=3, engine_mode="chunked", workers=1)
        base.update(extra)
        stream = FileEdgeStream(tape)
        stream.stats()
        clean = EstimatorConfig(**base)
        reference = reference_estimate(stream, KAPPA, clean)
        result, root_state = _run(driver, stream, EstimatorConfig(**base, faults=spec))
        assert_matches_reference(
            result, root_state, reference, speculated=extra["speculate_depth"] > 1
        )
        assert [r.action for r in result.degradations] == actions
        # The aborted attempts' sweeps are booked as waste.
        assert result.sweeps_wasted > 0
        assert result.passes_wasted > 0

    @DRIVERS
    def test_make_rng_once_across_retry_and_degrade(self, driver):
        """Three consecutive sweep faults exhaust the retries of a
        speculative window; the ladder degrades to sequential rounds and
        the program restarts - all on the one root generator."""
        stream = InMemoryEdgeStream.from_graph(
            barabasi_albert_graph(220, 4, random.Random(2))
        )
        base = dict(seed=4, repetitions=3, engine_mode="chunked", speculate_depth=3)
        result, root_state = _run(
            driver, stream, EstimatorConfig(**base, faults="sweep.mid_stage@0,1,2")
        )
        assert [r.action for r in result.degradations] == [faults.ACTION_SEQUENTIAL]
        reference = reference_estimate(stream, KAPPA, EstimatorConfig(**base))
        assert_matches_reference(result, root_state, reference, speculated=True)


class TestStopMatchesReference:
    def test_stop_requested_flushes_the_boundary(self, tape, tmp_path, monkeypatch):
        """A stop requested during round 0 ends ``run_estimate_program``
        at the next boundary; with a cadence that would not persist it,
        only the final flush puts that boundary on disk, and resuming
        from it reproduces the uninterrupted run."""
        ckdir = tmp_path / "ck"
        config = EstimatorConfig(
            seed=3,
            repetitions=3,
            speculate_depth=1,
            checkpoint_dir=str(ckdir),
            snapshot_every=100,
        )
        reference = reference_estimate(FileEdgeStream(tape), KAPPA, config)
        real = PassScheduler.new_fused_pass_chunks

        def stopping(self, *args, **kwargs):
            driver_module.stop_requested.set()
            return real(self, *args, **kwargs)

        monkeypatch.setattr(PassScheduler, "new_fused_pass_chunks", stopping)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_estimate_program(FileEdgeStream(tape), KAPPA, config)
        finally:
            driver_module.stop_requested.clear()
        monkeypatch.undo()
        assert snapshot.load_latest(ckdir).round_index == 1
        assert sorted(os.listdir(ckdir)) == ["snap-r000000.esnap", "snap-r000001.esnap"]
        resumed, roots = _estimate(
            None, config, call=lambda: resume_from(str(ckdir), FileEdgeStream(tape))
        )
        assert len(roots) == 1
        assert_matches_reference(resumed, roots[0].getstate(), reference)


class TestServedJobsMatchReference:
    def test_co_riding_jobs(self, edges):
        configs = [
            EstimatorConfig(seed=3, repetitions=3, speculate_depth=1),
            EstimatorConfig(seed=9, repetitions=5, speculate_depth=1),
            EstimatorConfig(seed=21, repetitions=3, max_rounds=4, speculate_depth=1),
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

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_riders_recover_from_a_transient_sweep_fault(self, edges, monkeypatch, traced):
        """A transient fault in a traversal two riders share: each rider's
        program retries its own window and still matches the reference
        bit for bit, its lost traversal booked as waste.  Under the
        benchmark tracer the served programs are proxies offering only
        ``__next__``, ``send`` and ``close``."""
        from repro.serve import daemon

        configs = [
            EstimatorConfig(seed=3, repetitions=3, speculate_depth=3),
            EstimatorConfig(seed=9, repetitions=3, speculate_depth=1),
        ]
        monkeypatch.setenv("REPRO_FAULTS", "sweep.mid_stage@2")
        restore = None
        if traced:
            tracer = _load_tracer()
            restore = tracer.install(tracer.Tracer(), serve=True)
        try:
            shared = SweepScheduler(InMemoryEdgeStream(edges))
            jobs = []
            for config in configs:
                job_id = next_job_id()
                program = daemon.estimate_program(
                    shared.stream, KAPPA, config, owner_prefix=f"{job_id}/"
                )
                assert (type(program).__name__ == "_ProgramProxy") == traced
                jobs.append(Job(job_id, program))
            for job in jobs:
                shared.submit(job)
            shared.start()
            try:
                for job in jobs:
                    assert job.wait(120.0)
            finally:
                shared.shutdown()
        finally:
            if restore is not None:
                restore()
        for job, config in zip(jobs, configs):
            assert job.error is None
            result = job.outcome.result
            reference = reference_estimate(InMemoryEdgeStream(edges), KAPPA, config)
            assert_matches_reference(
                result, job.outcome.root_state, reference, speculated=config.speculate_depth > 1
            )
            assert result.sweeps_wasted > 0 and result.degradations == ()
            accounting = job.accounting
            assert accounting.sweeps_committed + accounting.sweeps_wasted == (
                accounting.sweeps_physical
            )


def _load_tracer():
    """``perfbench/tracer.py`` as it is (it is not a package module)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
