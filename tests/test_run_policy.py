"""The run policy is scoped: engine and fault settings never outlive their run.

Every engine setting (chunk size, threads, speculation depth) is
a per-run execution choice, so each program driver sweeps inside its own
scope (:func:`repro.core.engine.engine_overrides`) and each estimate's
retry policy, fault plan and recovery context live in its own
:func:`repro.core.faults.recovery_scope`.  These tests overlap two runs
out of order - A enters, B enters, A exits, B exits - on two threads,
gated deterministically on each stream's first chunk, and check that
every sweep ran at its own run's settings and that nothing is left
installed afterwards.  The environment knobs are parsed strictly.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import EstimatorConfig, TriangleCountEstimator
from repro.core import engine, executor, faults
from repro.core.driver import run_estimate_program
from repro.errors import ParameterError
from repro.generators import barabasi_albert_graph
from repro.streams import InMemoryEdgeStream

KAPPA = 4
TIMEOUT = 60.0


@pytest.fixture(scope="module")
def edges():
    return barabasi_albert_graph(200, 4, random.Random(5)).edge_list()


class _GatedStream(InMemoryEdgeStream):
    """Announces its first chunk on ``entered``, then waits for ``proceed``."""

    def __init__(self, edges, entered: threading.Event, proceed: threading.Event):
        super().__init__(edges)
        self._entered = entered
        self._proceed = proceed

    def iter_chunks(self, chunk_size):
        if not self._entered.is_set():
            self._entered.set()
            assert self._proceed.wait(TIMEOUT), "gate never opened"
        return super().iter_chunks(chunk_size)


@pytest.fixture
def sweeps(monkeypatch):
    """Every executor sweep as ``(thread name, chunk, workers)``."""
    seen = []
    real = executor._sweep

    def spy(scheduler, plans, chunk, workers):
        seen.append((threading.current_thread().name, chunk, workers))
        return real(scheduler, plans, chunk, workers)

    monkeypatch.setattr(executor, "_sweep", spy)
    return seen


def _overlapped(run_a, run_b):
    """Run ``run_a(entered, proceed)`` and ``run_b(...)`` on threads ``A``
    and ``B`` so that A enters, B enters, A exits, B exits.  Returns both
    results; a thread's exception is re-raised here."""
    a_entered, b_entered, a_exited = threading.Event(), threading.Event(), threading.Event()
    out = {}

    def target(name, run, entered, proceed):
        try:
            out[name] = run(entered, proceed)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            out[name] = exc
        finally:
            entered.set()  # never leave the other side waiting

    thread_a = threading.Thread(target=target, name="A", args=("A", run_a, a_entered, b_entered))
    thread_b = threading.Thread(target=target, name="B", args=("B", run_b, b_entered, a_exited))
    thread_a.start()
    assert a_entered.wait(TIMEOUT)
    thread_b.start()
    thread_a.join(TIMEOUT)
    a_exited.set()
    thread_b.join(TIMEOUT)
    assert not thread_a.is_alive() and not thread_b.is_alive()
    for value in out.values():
        if isinstance(value, BaseException):
            raise value
    return out["A"], out["B"]


def _estimator(edges, config):
    def run(entered, proceed):
        stream = _GatedStream(edges, entered, proceed)
        return TriangleCountEstimator(config).estimate(stream, kappa=KAPPA)

    return run


def _settings(sweeps, thread):
    return {(chunk, workers) for name, chunk, workers in sweeps if name == thread}


class TestOverlappingEstimates:
    def test_each_estimate_sweeps_at_its_own_settings(self, edges, sweeps):
        before = engine.policy()
        config_a = EstimatorConfig(seed=1, repetitions=3, chunk_size=64, workers=1)
        config_b = EstimatorConfig(seed=2, repetitions=3, chunk_size=32, workers=2)
        result_a, result_b = _overlapped(
            _estimator(edges, config_a), _estimator(edges, config_b)
        )
        assert _settings(sweeps, "A") == {(64, 1)}
        assert _settings(sweeps, "B") == {(32, 2)}
        assert engine.policy() == before
        for config, result in ((config_a, result_a), (config_b, result_b)):
            solo = TriangleCountEstimator(config).estimate(InMemoryEdgeStream(edges), kappa=KAPPA)
            assert (result.estimate, result.passes_total) == (solo.estimate, solo.passes_total)

    def test_serial_degrade_stays_in_its_estimate(self, edges, sweeps, monkeypatch):
        """A's ``worker.crash`` degrades A to serial sweeps; B, running
        alongside, keeps its two threads."""
        monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)
        config_a = EstimatorConfig(
            seed=1, repetitions=3, chunk_size=64, workers=2,
            faults="worker.crash@0", max_retries=0,
        )
        config_b = EstimatorConfig(seed=2, repetitions=3, chunk_size=32, workers=2)
        result_a, _ = _overlapped(_estimator(edges, config_a), _estimator(edges, config_b))
        assert [r.action for r in result_a.degradations] == [faults.ACTION_SERIAL]
        a_sweeps = [(chunk, workers) for name, chunk, workers in sweeps if name == "A"]
        assert a_sweeps[0] == (64, 2) and set(a_sweeps[1:]) == {(64, 1)}
        assert _settings(sweeps, "B") == {(32, 2)}
        # The next estimate in the process runs at its own worker count.
        sweeps.clear()
        TriangleCountEstimator(config_b).estimate(InMemoryEdgeStream(edges), kappa=KAPPA)
        assert {(chunk, workers) for _, chunk, workers in sweeps} == {(32, 2)}


class TestOverlappingRecoveryScopes:
    def test_no_plan_or_context_outlives_its_scope(self):
        seen = {}

        def scope(name, spec):
            def run(entered, proceed):
                with faults.recovery_scope(plan=spec) as ctx:
                    entered.set()
                    assert proceed.wait(TIMEOUT)
                    seen[name] = (faults.active_plan().describe(), faults.active_recovery() is ctx)
                return faults.active_plan(), faults.active_recovery()

            return run

        after_a, after_b = _overlapped(
            scope("A", "worker.crash@0"), scope("B", "sweep.mid_stage@5")
        )
        assert seen == {"A": ("worker.crash@0", True), "B": ("sweep.mid_stage@5", True)}
        assert after_a == after_b == (None, None)
        assert (faults.active_plan(), faults.active_recovery()) == (None, None)


class TestProgramDrivers:
    def test_run_estimate_program_sweeps_at_its_config(self, edges, sweeps):
        config = EstimatorConfig(seed=3, repetitions=3, chunk_size=7, workers=1)
        outcome = run_estimate_program(InMemoryEdgeStream(edges), KAPPA, config)
        assert {(chunk, workers) for _, chunk, workers in sweeps} == {(7, 1)}
        solo = TriangleCountEstimator(config).estimate(InMemoryEdgeStream(edges), kappa=KAPPA)
        assert outcome.result.estimate == solo.estimate


class TestEnvironmentParsing:
    @pytest.mark.parametrize("raw", ["1", "0", "off", "yes"])
    def test_removed_fuse_switch_is_rejected(self, monkeypatch, edges, raw):
        # Any set value raises, "off" included: the switch is gone, not
        # defaulted - in the library and when the daemon starts.
        from repro.serve.daemon import EstimateServer

        monkeypatch.setenv("REPRO_FUSE", raw)
        with pytest.raises(ParameterError, match="REPRO_FUSE was removed"):
            TriangleCountEstimator(EstimatorConfig(seed=1)).estimate(
                InMemoryEdgeStream(edges), kappa=KAPPA
            )
        with pytest.raises(ParameterError, match="REPRO_FUSE was removed"):
            EstimateServer(port=0)

    @pytest.mark.parametrize(
        "name,raw",
        [
            ("REPRO_FUSE", "maybe"),
            ("REPRO_SPECULATE", "2"),
            ("REPRO_WORKERS", "0"),
            ("REPRO_WORKERS", "all"),
            ("REPRO_SPECULATE_DEPTH", "0"),
        ],
    )
    def test_malformed_values_raise_naming_the_variable(self, monkeypatch, name, raw):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ParameterError, match=name):
            engine.resolve()

    def test_read_when_resolved(self, monkeypatch, edges):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert engine.policy().workers == 3
        monkeypatch.setenv("REPRO_WORKERS", "x")
        with pytest.raises(ParameterError, match="REPRO_WORKERS"):
            TriangleCountEstimator(EstimatorConfig(seed=1)).estimate(
                InMemoryEdgeStream(edges), kappa=KAPPA
            )

    @pytest.mark.parametrize("name", ["REPRO_SPECULATE", "REPRO_FAULTS"])
    def test_daemon_rejects_malformed_variables_at_start(self, monkeypatch, name):
        from repro.serve.daemon import EstimateServer

        monkeypatch.setenv(name, "maybe")
        with pytest.raises(ParameterError):
            EstimateServer(port=0)

    def test_unknown_override_is_an_error(self):
        with pytest.raises(TypeError, match="num_workers"):
            engine.resolve(num_workers=2)
