"""Fault-tolerant execution layer: retry, recovery, and degradation.

Three layers under test, all driven by the deterministic injection
harness in :mod:`repro.core.faults`:

* **Plumbing** - `FaultPlan` spec parsing, `RetryPolicy` determinism,
  environment knobs (`REPRO_FAULTS`, `REPRO_MAX_RETRIES`).
* **Recovery invariant** - an estimate that suffers injected faults but
  recovers (task retries, round restarts) returns results
  *bit-identical* to the fault-free run: estimates, guessing trajectory,
  logical-pass totals, and the root generator's final state.
* **Degradation ladder** - when retries exhaust, the run drops a tier
  (sharded->serial, speculative->sequential) instead of failing, records
  each step on ``EstimateResult.degradations``, and still produces
  identical numbers; a read fault with no tier left propagates.

The fast subset runs in tier 1 with one fault per site; the full
fault x engine product is behind the ``slow`` marker.
"""

from __future__ import annotations

import logging
import random

import pytest

import repro.core.driver as driver_module
from repro import EstimatorConfig, TriangleCountEstimator
from repro.core import faults
from repro.core.faults import FaultPlan, RetryPolicy
from repro.errors import ParameterError, StreamReadError
from repro.generators import barabasi_albert_graph
from repro.io import write_edgelist
from repro.streams import InMemoryEdgeStream, write_tape
from repro.streams.file import FileEdgeStream
from repro.streams.tape import MmapEdgeStream


# ---------------------------------------------------------------------------
# plumbing: FaultPlan / RetryPolicy / env knobs


class TestFaultPlan:
    def test_parse_bare_site_means_first_occurrence(self):
        plan = FaultPlan.parse("worker.crash")
        assert plan.fires(faults.WORKER_CRASH)
        assert not plan.fires(faults.WORKER_CRASH)

    def test_parse_indices_and_merging(self):
        plan = FaultPlan.parse("sweep.mid_stage@1,3;sweep.mid_stage@5")
        fired = [plan.fires(faults.SWEEP_MID_STAGE) for _ in range(7)]
        assert fired == [False, True, False, True, False, True, False]

    def test_parse_multiple_sites_count_independently(self):
        plan = FaultPlan.parse("worker.crash@0;file.read@1")
        assert plan.fires(faults.WORKER_CRASH)
        assert not plan.fires(faults.FILE_READ)
        assert plan.fires(faults.FILE_READ)

    def test_reset_rearms_consumed_events(self):
        plan = FaultPlan.parse("file.read@0")
        assert plan.fires(faults.FILE_READ)
        plan.reset()
        assert plan.fires(faults.FILE_READ)

    @pytest.mark.parametrize(
        "spec", ["bogus.site", "worker.crash@x", "worker.crash@-1"]
    )
    def test_parse_rejects_malformed_specs(self, spec):
        with pytest.raises(ParameterError):
            FaultPlan.parse(spec)

    def test_config_validates_fault_spec_eagerly(self):
        with pytest.raises(ParameterError):
            EstimatorConfig(faults="no.such.site@1")


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff_base=0.01, jitter_seed=9)
        delays = [policy.backoff_delay(k) for k in (1, 2, 3)]
        assert delays == [policy.backoff_delay(k) for k in (1, 2, 3)]
        assert 0.01 <= delays[0] <= 0.0125
        assert 0.02 <= delays[1] <= 0.025
        assert 0.04 <= delays[2] <= 0.05

    def test_zero_base_means_no_sleeping(self):
        assert RetryPolicy(backoff_base=0.0).backoff_delay(3) == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ParameterError):
            RetryPolicy(backoff_base=-1.0)

    def test_policy_from_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        policy = faults.policy_from_env()
        assert policy.max_attempts == 6
        assert policy.retries == 5

    def test_policy_from_env_rejects_malformed(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "many")
        with pytest.raises(ParameterError):
            faults.policy_from_env()
        monkeypatch.setenv("REPRO_MAX_RETRIES", "-1")
        with pytest.raises(ParameterError):
            faults.policy_from_env()

    def test_config_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "7")
        assert faults.policy_from_env(max_retries=1).max_attempts == 2


# ---------------------------------------------------------------------------
# shared fixtures: a file tape big enough for multiple tasks per sweep


@pytest.fixture(scope="module")
def tape(tmp_path_factory):
    graph = barabasi_albert_graph(250, 4, random.Random(1))
    path = tmp_path_factory.mktemp("faults") / "tape.edges"
    write_edgelist(graph, path)
    return str(path)


@pytest.fixture(scope="module")
def etape(tape, tmp_path_factory):
    """``tape`` converted to ``.etape``: identical edge sequence, mmap path."""
    path = tmp_path_factory.mktemp("faults_bin") / "tape.etape"
    write_tape(tape, path)
    return str(path)


def _run(stream, cfg, kappa=4):
    """Estimate with the root generator's final state captured."""
    captured = []
    real_make_rng = driver_module.make_rng

    def recording_make_rng(seed):
        rng = real_make_rng(seed)
        captured.append(rng)
        return rng

    driver_module.make_rng = recording_make_rng
    try:
        result = TriangleCountEstimator(cfg).estimate(stream, kappa=kappa)
    finally:
        driver_module.make_rng = real_make_rng
    assert captured, "driver never built the root generator"
    return result, captured[-1].getstate()


def _trajectory(result):
    return [(r.t_guess, r.median_estimate, r.accepted) for r in result.rounds]


def _assert_bit_identical(clean, faulted):
    clean_result, clean_root = clean
    fault_result, fault_root = faulted
    assert fault_result.estimate == clean_result.estimate
    assert _trajectory(fault_result) == _trajectory(clean_result)
    assert fault_result.passes_total == clean_result.passes_total
    assert fault_root == clean_root


# ---------------------------------------------------------------------------
# the recovery invariant: injected faults, recovered, bit-identical


class TestRecoveryBitIdentity:
    def test_canonical_run_recovers_bit_identically(self, tape, monkeypatch):
        """The PR's acceptance scenario: a file-backed multi-round estimate
        at workers=2, speculate_depth=3, with two worker crashes and
        a mid-sweep stream error injected in distinct places - completing
        without error and bit-identical to the clean run, with no tier
        degraded (retries recovered everything)."""
        pytest.importorskip("numpy")
        from repro.core import executor

        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)
        base = dict(
            seed=3,
            repetitions=3,
            engine_mode="sharded",
            workers=2,
            chunk_size=64,
            speculate_depth=3,
        )
        stream = FileEdgeStream(tape)
        stream.stats()  # prime the cache: the stats pass is not under test
        clean = _run(stream, EstimatorConfig(**base))
        faulted = _run(
            stream,
            EstimatorConfig(
                **base, faults="worker.crash@1,3;sweep.mid_stage@2"
            ),
        )
        _assert_bit_identical(clean, faulted)
        assert faulted[0].degradations == ()

    def test_faults_env_knob_reaches_the_driver(self, tape, monkeypatch):
        stream = FileEdgeStream(tape)
        stream.stats()
        base = dict(seed=2, repetitions=3, engine_mode="chunked", workers=1)
        clean = _run(stream, EstimatorConfig(**base))
        monkeypatch.setenv("REPRO_FAULTS", "sweep.mid_stage@1")
        faulted = _run(stream, EstimatorConfig(**base))
        _assert_bit_identical(clean, faulted)
        assert faulted[0].degradations == ()

    @pytest.mark.parametrize(
        "depth,spec",
        [
            (1, "sweep.mid_stage@1"),
            (1, "file.read@2"),
            (3, "sweep.mid_stage@2"),
            (3, "file.read@3"),
        ],
    )
    def test_serial_parity_under_single_fault(self, tape, depth, spec):
        """Fast subset of the parity-under-failure matrix: serial engines,
        one fault per applicable site, retries recover, results identical."""
        stream = FileEdgeStream(tape)
        stream.stats()
        base = dict(
            seed=11,
            repetitions=3,
            engine_mode="chunked",
            workers=1,
            speculate_depth=depth,
        )
        clean = _run(stream, EstimatorConfig(**base))
        faulted = _run(stream, EstimatorConfig(**base, faults=spec))
        _assert_bit_identical(clean, faulted)
        assert faulted[0].degradations == ()

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize(
        "spec",
        [
            "sweep.mid_stage@1",
            "file.read@2",
            "worker.crash@1",
        ],
    )
    def test_full_parity_matrix(self, tape, monkeypatch, workers, depth, spec):
        site = spec.split("@")[0]
        if workers == 1 and site == "worker.crash":
            pytest.skip("thread-pool-only fault site")
        pytest.importorskip("numpy")
        from repro.core import executor

        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)
        base = dict(
            seed=13,
            repetitions=3,
            engine_mode="sharded" if workers > 1 else "chunked",
            workers=workers,
            chunk_size=64,
            speculate_depth=depth,
        )
        stream = FileEdgeStream(tape)
        stream.stats()
        clean = _run(stream, EstimatorConfig(**base))
        faulted = _run(stream, EstimatorConfig(**base, faults=spec))
        _assert_bit_identical(clean, faulted)


# ---------------------------------------------------------------------------
# the degradation ladder: retries exhausted, tier dropped, run completes


class TestDegradationLadder:
    def test_worker_crashes_degrade_to_serial(self, tape, monkeypatch):
        """With retries disabled every crash exhausts immediately: the
        sweep finishes in-process (sharded->serial), the result matches
        the clean run, and the report names the site and cause."""
        pytest.importorskip("numpy")
        from repro.core import executor

        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)
        base = dict(
            seed=7, repetitions=3, engine_mode="sharded", workers=2, chunk_size=64
        )
        stream = FileEdgeStream(tape)
        stream.stats()
        clean = _run(stream, EstimatorConfig(**base))
        faulted = _run(
            stream, EstimatorConfig(**base, faults="worker.crash@0", max_retries=0)
        )
        _assert_bit_identical(clean, faulted)
        reports = faulted[0].degradations
        assert [r.action for r in reports] == [faults.ACTION_SERIAL]
        assert reports[0].site == faults.WORKER_CRASH
        assert reports[0].attempts == 1
        assert reports[0].cause

    def test_engine_survives_pool_poisoning(self, tape, monkeypatch):
        """A crash-degraded estimate must not degrade the next one: the
        serial tier is scoped to the estimate that dropped it, so the next
        threaded estimate runs clean and bit-identical."""
        pytest.importorskip("numpy")
        from repro.core import executor

        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)
        base = dict(
            seed=7, repetitions=3, engine_mode="sharded", workers=2, chunk_size=64
        )
        stream = FileEdgeStream(tape)
        stream.stats()
        faulted = _run(
            stream, EstimatorConfig(**base, faults="worker.crash@0", max_retries=0)
        )
        assert faulted[0].degradations  # the crash really was injected
        clean_after = _run(stream, EstimatorConfig(**base))
        _assert_bit_identical(clean_after, faulted)
        assert clean_after[0].degradations == ()

    def test_sweep_faults_degrade_speculation(self):
        """Three consecutive mid-sweep faults exhaust the default retry
        budget; the ladder falls back to the sequential guessing loop and
        the trajectory stays bit-identical (speculation invariant)."""
        graph = barabasi_albert_graph(220, 4, random.Random(2))
        stream = InMemoryEdgeStream.from_graph(graph)
        base = dict(
            seed=4,
            repetitions=3,
            engine_mode="chunked",
            speculate_depth=3,
        )
        clean = _run(stream, EstimatorConfig(**base))
        faulted = _run(
            stream, EstimatorConfig(**base, faults="sweep.mid_stage@0,1,2")
        )
        _assert_bit_identical(clean, faulted)
        reports = faulted[0].degradations
        assert [r.action for r in reports] == [faults.ACTION_SEQUENTIAL]
        assert reports[0].attempts == 3

    #: A worker crash at workers=2 (sharded->serial), then a mid-sweep
    #: fault in a speculative window (speculative->sequential).
    MULTI_TIER = dict(
        seed=6,
        repetitions=3,
        engine_mode="sharded",
        workers=2,
        chunk_size=64,
        speculate_depth=3,
    )
    MULTI_TIER_FAULTS = "worker.crash@0;sweep.mid_stage@1"

    def test_persistent_faults_walk_multiple_tiers(self, tape, monkeypatch):
        """One run can need several ladder steps; each is recorded in the
        order taken and the run still completes with clean-run numbers."""
        from repro.core import executor

        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)
        stream = FileEdgeStream(tape)
        stream.stats()
        clean = _run(stream, EstimatorConfig(**self.MULTI_TIER))
        faulted = _run(
            stream,
            EstimatorConfig(
                **self.MULTI_TIER, faults=self.MULTI_TIER_FAULTS, max_retries=0
            ),
        )
        _assert_bit_identical(clean, faulted)
        actions = [r.action for r in faulted[0].degradations]
        assert actions == [faults.ACTION_SERIAL, faults.ACTION_SEQUENTIAL]

    def test_each_ladder_step_logs_a_warning(self, tape, caplog, monkeypatch):
        """A library caller sees every recorded step on the ``repro``
        logger, not only on ``EstimateResult.degradations``."""
        from repro.core import executor

        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)
        cfg = EstimatorConfig(
            **self.MULTI_TIER, faults=self.MULTI_TIER_FAULTS, max_retries=0
        )
        with caplog.at_level(logging.WARNING, logger="repro"):
            result = TriangleCountEstimator(cfg).estimate(FileEdgeStream(tape), kappa=4)
        records = [r for r in caplog.records if r.name == "repro"]
        assert len(records) == len(result.degradations) == 2
        for record, report in zip(records, result.degradations):
            assert record.levelno == logging.WARNING
            assert report.action in record.getMessage()
            assert report.site in record.getMessage()

    def test_clean_run_logs_nothing(self, tape, caplog):
        with caplog.at_level(logging.WARNING, logger="repro"):
            TriangleCountEstimator(EstimatorConfig(seed=6)).estimate(
                FileEdgeStream(tape), kappa=4
            )
        assert not [r for r in caplog.records if r.name == "repro"]

    def test_no_tier_left_propagates_the_failure(self):
        """A persistent serial failure with nothing to degrade must still
        fail loudly - the ladder never silently swallows a fault."""
        graph = barabasi_albert_graph(120, 4, random.Random(5))
        stream = InMemoryEdgeStream.from_graph(graph)
        spec = "sweep.mid_stage@" + ",".join(str(i) for i in range(64))
        cfg = EstimatorConfig(
            seed=1, repetitions=2, engine_mode="chunked", faults=spec, max_retries=0
        )
        with pytest.raises(StreamReadError, match="injected"):
            TriangleCountEstimator(cfg).estimate(stream, kappa=4)


# ---------------------------------------------------------------------------
# the mmap tape: file.read fires on the mapped path; a tape has no reader
# tier below it, so a read fault that outlives its retries propagates


class TestMmapTapeFaults:
    def test_read_fault_on_mmap_path_recovers_bit_identically(self, tape, etape):
        """``file.read`` fires per yielded chunk on the mapped payload too;
        a transient fault retries and the estimate matches the clean tape
        run exactly, with no tier degraded."""
        base = dict(seed=9, repetitions=3, engine_mode="chunked", workers=1)
        clean = _run(MmapEdgeStream(etape), EstimatorConfig(**base))
        faulted = _run(
            MmapEdgeStream(etape), EstimatorConfig(**base, faults="file.read@1")
        )
        _assert_bit_identical(clean, faulted)
        assert faulted[0].degradations == ()

    def test_truncated_tape_mid_run_fails_typed(self, etape, tmp_path):
        """A tape truncated underneath an open stream surfaces as a typed
        TapeFormatError from the per-pass intactness check, never as a
        scan of garbage rows."""
        import os
        import shutil

        from repro.errors import TapeFormatError

        local = tmp_path / "mutable.etape"
        shutil.copy(etape, local)
        stream = MmapEdgeStream(local)
        with open(local, "r+b") as handle:
            handle.truncate(os.path.getsize(local) - 16)
        cfg = EstimatorConfig(seed=9, repetitions=3, engine_mode="chunked", max_retries=0)
        with pytest.raises(TapeFormatError, match="changed size mid-run"):
            TriangleCountEstimator(cfg).estimate(stream, kappa=4)

    def test_persistent_read_fault_propagates(self, etape):
        """The mmap stream has no fallback tier: a persistent read fault
        must propagate, never be swallowed."""
        spec = "file.read@" + ",".join(str(i) for i in range(64))
        cfg = EstimatorConfig(
            seed=1, repetitions=2, engine_mode="chunked", faults=spec, max_retries=0
        )
        with pytest.raises(StreamReadError, match="injected"):
            TriangleCountEstimator(cfg).estimate(MmapEdgeStream(etape), kappa=4)

    def test_sharded_descriptor_transport_recovers_from_crash(
        self, tape, etape, monkeypatch
    ):
        """Sharded tasks over a tape ship ``(path, start, rows)`` descriptors;
        a worker crash retries on a rebuilt pool and the result stays
        bit-identical to the clean sharded tape run."""
        pytest.importorskip("numpy")
        from repro.core import executor

        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)
        base = dict(
            seed=3, repetitions=3, engine_mode="sharded", workers=2, chunk_size=64
        )
        clean = _run(MmapEdgeStream(etape), EstimatorConfig(**base))
        faulted = _run(
            MmapEdgeStream(etape), EstimatorConfig(**base, faults="worker.crash@1")
        )
        _assert_bit_identical(clean, faulted)
        assert faulted[0].degradations == ()


# ---------------------------------------------------------------------------
# executor-level retry: partials bit-identical without the driver on top


class TestExecutorRetry:
    def test_retried_partials_match_first_try(self, tape, monkeypatch):
        pytest.importorskip("numpy")
        import numpy

        from repro.core import executor
        from repro.core.kernels import DegreeCountPlan
        from repro.streams.multipass import PassScheduler

        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)
        stream = FileEdgeStream(tape)
        stream.stats()
        tracked = numpy.arange(120, dtype=numpy.int64)

        def degree_counts(spec):
            scheduler = PassScheduler(stream)
            return executor.run_plan(
                scheduler, DegreeCountPlan(tracked), chunk_size=64, workers=2
            )

        clean = degree_counts(None)
        with faults.fault_scope("worker.crash@1"):
            retried = degree_counts(None)
        assert numpy.array_equal(clean, retried)
