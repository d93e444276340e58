"""Tests for the estimate-serving layer (:mod:`repro.serve`).

Three strata, matching the layer's own structure:

* **program parity** - :func:`~repro.core.driver.run_estimate_program`
  reproduces the solo driver bit-for-bit (estimate, trajectory,
  accounting, final root-RNG state) across speculation settings, and
  both match the sequential reference in ``tests/reference_loop.py``;
* **shared scheduler** - N concurrent jobs on one
  :class:`~repro.serve.scheduler.SweepScheduler` each match their solo
  run exactly while the tape performs strictly fewer physical sweeps
  than the solo runs combined, and a sweep failure kills exactly the
  co-riding jobs (shared fate) while the scheduler survives;
* **daemon end-to-end** - unix-socket and HTTP transports, result
  caching with zero extra sweeps, cleanly-cold restarts, and typed
  error responses.
"""

from __future__ import annotations

import json
import os
import random
import socket
import sys
import threading
import time
from typing import Iterator, List

import pytest

import repro.core.driver as driver_module
import repro.serve.registry as registry_module
from reference_loop import assert_matches_reference, reference_estimate
from repro.core.driver import (
    EstimatorConfig,
    TriangleCountEstimator,
    run_estimate_program,
)
from repro.core.engine import engine_overrides
from repro.core.snapshot import stream_fingerprint
from repro.generators import barabasi_albert_graph, wheel_graph
from repro.io import write_edgelist
from repro.serve import SweepScheduler, TapeRegistry
from repro.serve.daemon import background_server
from repro.serve.jobs import Job
from repro.serve.protocol import request_http, request_unix, root_rng_digest
from repro.serve.scheduler import next_job_id
from repro.streams import FileEdgeStream, InMemoryEdgeStream, write_tape
from repro.streams.base import EdgeStream
from repro.streams.multipass import OwnerLedger
from repro.types import Edge


KAPPA = 3


def _ba_edges() -> List[Edge]:
    return barabasi_albert_graph(150, 5, random.Random(1)).edge_list()


def _solo_with_root(edges, kappa, config):
    """Solo reference run that also captures the final root-RNG state."""
    roots = []
    real_make_rng = driver_module.make_rng

    def recording_make_rng(seed):
        rng = real_make_rng(seed)
        roots.append(rng)
        return rng

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver_module, "make_rng", recording_make_rng)
        result = TriangleCountEstimator(config).estimate(
            InMemoryEdgeStream(edges), kappa=kappa
        )
    return result, roots[-1].getstate()


def _trajectory(result):
    return [
        (
            r.t_guess,
            r.median_estimate,
            r.accepted,
            tuple(run.estimate for run in r.runs),
        )
        for r in result.rounds
    ]


def _accounting(result):
    return (
        result.passes_total,
        result.sweeps_total,
        result.sweeps_wasted,
        result.passes_wasted,
        result.space_words_peak,
    )


def _assert_outcome_matches_solo(outcome, solo_result, solo_root_state):
    assert outcome.result.estimate == solo_result.estimate
    assert _trajectory(outcome.result) == _trajectory(solo_result)
    assert _accounting(outcome.result) == _accounting(solo_result)
    assert outcome.root_state == solo_root_state


class TestOwnerLedger:
    def test_report_splits_by_prefix(self):
        ledger = OwnerLedger()
        ledger.record(["a/w0.round"])
        ledger.record(["a/w0.speculative1", "b/w0.round"])
        ledger.record(["b/w1.round"])
        ledger.discard("a/w0.speculative1")

        a = ledger.report("a/")
        assert (a.rode, a.committed, a.wasted, a.shared) == (2, 1, 1, 1)
        b = ledger.report("b/")
        assert (b.rode, b.committed, b.wasted, b.shared) == (2, 2, 0, 1)

    def test_sweep_totals(self):
        ledger = OwnerLedger()
        ledger.record(["a/w0.round", "b/w0.round"])
        ledger.record(["b/w0.speculative1"])
        ledger.discard("b/w0.speculative1")
        assert ledger.sweeps_recorded == 2
        # A sweep is wasted only when *every* owner discarded it.
        assert ledger.sweeps_wasted == 1
        assert ledger.sweeps_committed == 1


class TestEstimateProgramParity:
    """The program path is bit-identical to the solo driver."""

    @pytest.mark.parametrize(
        "speculative,depth",
        [(False, None), (True, 2), (True, 4)],
        ids=["no-spec", "depth2", "depth4"],
    )
    @pytest.mark.parametrize(
        "seed,repetitions", [(3, 3), (11, 5)], ids=["s3r3", "s11r5"]
    )
    def test_matches_solo(self, speculative, depth, seed, repetitions):
        edges = wheel_graph(60).edge_list()
        config = EstimatorConfig(seed=seed, repetitions=repetitions)
        with engine_overrides(speculative=speculative, speculate_depth=depth):
            solo_result, solo_root = _solo_with_root(edges, KAPPA, config)
            outcome = run_estimate_program(
                InMemoryEdgeStream(edges), KAPPA, config
            )
            reference = reference_estimate(InMemoryEdgeStream(edges), KAPPA, config)
        _assert_outcome_matches_solo(outcome, solo_result, solo_root)
        # Both drive the one loop; the independent reference anchors it.
        assert_matches_reference(
            outcome.result, outcome.root_state, reference, speculated=speculative
        )

    def test_empty_stream(self):
        outcome = run_estimate_program(
            InMemoryEdgeStream([]), KAPPA, EstimatorConfig(seed=5)
        )
        assert outcome.result.estimate == 0.0
        assert outcome.result.passes_total == 0


class _SweepFailingStream(EdgeStream):
    """Delegates to a fixed tape; exactly one physical pass dies mid-way."""

    def __init__(self, edges, fail_pass: int, fail_after: int = 10) -> None:
        self._edges = list(edges)
        self._fail_pass = fail_pass
        self._passes = 0

        self._fail_after = fail_after

    def __iter__(self) -> Iterator[Edge]:
        self._passes += 1
        if self._passes == self._fail_pass:
            return self._failing_pass()
        return iter(self._edges)

    def _failing_pass(self) -> Iterator[Edge]:
        for i, e in enumerate(self._edges):
            if i >= self._fail_after:
                raise IOError("injected sweep failure")
            yield e

    def __len__(self) -> int:
        return len(self._edges)


def _job_for(stream, kappa, config) -> Job:
    job_id = next_job_id()
    return Job(
        job_id,
        driver_module.estimate_program(
            stream, kappa, config, owner_prefix=f"{job_id}/"
        ),
    )


class TestSweepScheduler:
    def test_concurrent_jobs_bit_identical_and_cheaper_than_solo(self):
        edges = _ba_edges()
        configs = [
            EstimatorConfig(seed=3, repetitions=3),
            EstimatorConfig(seed=9, repetitions=3),
            EstimatorConfig(seed=21, repetitions=5),
        ]
        solos = [
            _solo_with_root(edges, KAPPA, config) for config in configs
        ]

        shared = SweepScheduler(InMemoryEdgeStream(edges))
        jobs = [
            _job_for(shared.stream, KAPPA, config) for config in configs
        ]
        # Submit before starting: all three are admitted at the first
        # step boundary, so they co-ride from sweep one.
        for job in jobs:
            shared.submit(job)
        shared.start()
        try:
            for job in jobs:
                assert job.wait(120.0)
        finally:
            shared.shutdown()

        solo_sweeps = 0
        for job, (solo_result, solo_root) in zip(jobs, solos):
            assert job.error is None
            _assert_outcome_matches_solo(job.outcome, solo_result, solo_root)
            solo_sweeps += solo_result.sweeps_total
            # Every job actually shared traversals with another job.
            assert job.accounting.sweeps_shared > 0
            assert job.accounting.sweeps_physical <= solo_result.sweeps_total
        assert shared.sweeps_physical < solo_sweeps
        assert shared.jobs_completed == len(jobs)

    def test_sweep_failure_is_shared_fate_but_scheduler_survives(self):
        edges = wheel_graph(60).edge_list()
        # Admission costs one stats pass per job (passes 1-2), so the
        # first *shared* traversal - both jobs riding - is pass 3.
        stream = _SweepFailingStream(edges, fail_pass=3)
        shared = SweepScheduler(stream)
        riders = [
            _job_for(stream, KAPPA, EstimatorConfig(seed=3, repetitions=3)),
            _job_for(stream, KAPPA, EstimatorConfig(seed=9, repetitions=3)),
        ]
        for job in riders:
            shared.submit(job)
        shared.start()
        try:
            for job in riders:
                assert job.wait(60.0)
            # Both riders died with the traversal...
            for job in riders:
                assert isinstance(job.error, IOError)
            assert shared.jobs_failed == 2

            # ...but the scheduler and tape keep serving: the failing
            # pass is spent, so a later job completes and still matches
            # its solo run bit-for-bit.
            config = EstimatorConfig(seed=5, repetitions=3)
            solo_result, solo_root = _solo_with_root(edges, KAPPA, config)
            survivor = _job_for(stream, KAPPA, config)
            shared.submit(survivor)
            assert survivor.wait(60.0)
        finally:
            shared.shutdown()
        assert survivor.error is None
        _assert_outcome_matches_solo(survivor.outcome, solo_result, solo_root)


class TestConfigEngineKnobs:
    """A config's fuse / speculate_depth reach every driver of the loop,
    not only the solo driver's ``engine_overrides`` scope."""

    @pytest.mark.parametrize(
        "knobs", [{"fuse": True}, {"speculate_depth": 3}], ids=["fuse", "depth3"]
    )
    def test_program_and_served_job_match_solo(self, knobs):
        edges = barabasi_albert_graph(400, 4, random.Random(1)).edge_list()
        config = EstimatorConfig(seed=5, **knobs)
        # The ambient policy disagrees with the config: only a program
        # that reads its own config can match the solo run.
        with engine_overrides(fused=False, speculative=False):
            solo, _ = _solo_with_root(edges, 4, config)
            plain, _ = _solo_with_root(edges, 4, EstimatorConfig(seed=5))
            outcome = run_estimate_program(InMemoryEdgeStream(edges), 4, config)
            shared = SweepScheduler(InMemoryEdgeStream(edges))
            job = _job_for(shared.stream, 4, config)
            shared.submit(job)
            shared.start()
            try:
                assert job.wait(120.0)
            finally:
                shared.shutdown()
        assert job.error is None
        assert solo.sweeps_total < plain.sweeps_total  # the knob matters here
        for result in (outcome.result, job.outcome.result):
            assert (result.estimate, result.passes_total, result.sweeps_total) == (
                solo.estimate,
                solo.passes_total,
                solo.sweeps_total,
            )


@pytest.fixture
def ba_file(tmp_path):
    path = tmp_path / "ba.txt"
    write_edgelist(barabasi_albert_graph(150, 5, random.Random(1)), path)
    return str(path)


def _estimate_request(path, seed, repetitions=3):
    return {
        "op": "estimate",
        "path": path,
        "kappa": KAPPA,
        "config": {"seed": seed, "repetitions": repetitions},
    }


def _assert_document_matches_solo(document, solo_result, solo_root):
    assert document["ok"] is True
    assert document["estimate"] == solo_result.estimate
    assert [
        (r["t_guess"], r["median_estimate"], r["accepted"], tuple(r["runs"]))
        for r in document["rounds"]
    ] == _trajectory(solo_result)
    assert document["passes_total"] == solo_result.passes_total
    assert document["sweeps_total"] == solo_result.sweeps_total
    assert document["root_rng_sha256"] == root_rng_digest(solo_root)


class TestDaemon:
    def test_concurrent_requests_share_sweeps_and_match_solo(
        self, ba_file, tmp_path
    ):
        edges = _ba_edges()
        seeds = (3, 9)
        solos = {
            seed: _solo_with_root(
                edges, KAPPA, EstimatorConfig(seed=seed, repetitions=3)
            )
            for seed in seeds
        }
        sock = str(tmp_path / "serve.sock")
        responses = {}
        with background_server(socket_path=sock, batch_window=0.25) as server:
            threads = [
                threading.Thread(
                    target=lambda s=seed: responses.__setitem__(
                        s, request_unix(sock, _estimate_request(ba_file, s))
                    )
                )
                for seed in seeds
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
            stats = request_unix(sock, {"op": "stats"})

        for seed in seeds:
            _assert_document_matches_solo(responses[seed], *solos[seed])
            assert responses[seed]["cached"] is False
        solo_sweeps = sum(solos[s][0].sweeps_total for s in seeds)
        (tape,) = stats["tapes"]
        assert tape["jobs_completed"] == 2
        assert tape["sweeps_physical"] < solo_sweeps
        # With both requests inside the batch window they co-ride from
        # sweep one, so each job's shared count is positive.
        assert all(
            responses[s]["accounting"]["sweeps_shared"] > 0 for s in seeds
        )

    def test_repeat_request_is_cached_with_zero_new_sweeps(
        self, ba_file, tmp_path
    ):
        sock = str(tmp_path / "serve.sock")
        with background_server(socket_path=sock, batch_window=0.0):
            first = request_unix(sock, _estimate_request(ba_file, seed=7))
            before = request_unix(sock, {"op": "stats"})
            second = request_unix(sock, _estimate_request(ba_file, seed=7))
            after = request_unix(sock, {"op": "stats"})

        assert first["cached"] is False
        assert second["cached"] is True
        # The cached response is the same solo-equivalent result, minus
        # the per-job fields (a hit served zero sweeps).
        stripped = {
            k: v for k, v in first.items() if k not in ("cached", "job", "accounting")
        }
        assert {k: v for k, v in second.items() if k != "cached"} == stripped
        assert "accounting" not in second
        (tape_before,) = before["tapes"]
        (tape_after,) = after["tapes"]
        assert tape_after["sweeps_physical"] == tape_before["sweeps_physical"]
        assert after["cache"]["hits"] == 1

    def test_restart_is_cleanly_cold(self, ba_file, tmp_path):
        sock = str(tmp_path / "serve.sock")
        with background_server(socket_path=sock, batch_window=0.0):
            first = request_unix(sock, _estimate_request(ba_file, seed=7))
            warmed = request_unix(sock, _estimate_request(ba_file, seed=7))
        assert warmed["cached"] is True

        sock2 = str(tmp_path / "serve2.sock")
        with background_server(socket_path=sock2, batch_window=0.0):
            fresh = request_unix(sock2, _estimate_request(ba_file, seed=7))
        # The cache is in-memory only: a restarted daemon recomputes...
        assert fresh["cached"] is False
        # ...to the identical result.
        assert fresh["estimate"] == first["estimate"]
        assert fresh["root_rng_sha256"] == first["root_rng_sha256"]

    def test_http_transport(self, ba_file):
        edges = _ba_edges()
        config = EstimatorConfig(seed=13, repetitions=3)
        solo_result, solo_root = _solo_with_root(edges, KAPPA, config)
        with background_server(port=0, batch_window=0.0) as server:
            assert request_http(server.port, {"op": "ping"}) == {
                "ok": True,
                "pong": True,
            }
            document = request_http(
                server.port, _estimate_request(ba_file, seed=13)
            )
        _assert_document_matches_solo(document, solo_result, solo_root)

    def test_error_responses_are_typed(self, ba_file, tmp_path):
        sock = str(tmp_path / "serve.sock")
        with background_server(socket_path=sock, batch_window=0.0):
            missing = request_unix(
                sock, _estimate_request(str(tmp_path / "nope.txt"), seed=1)
            )
            assert missing["ok"] is False
            assert "nope.txt" in missing["error"]["message"]

            bad_field = request_unix(
                sock,
                {
                    "op": "estimate",
                    "path": ba_file,
                    "kappa": KAPPA,
                    "config": {"seed": 1, "workers": 4},
                },
            )
            assert bad_field["ok"] is False
            assert bad_field["error"]["type"] == "ProtocolError"
            assert "workers" in bad_field["error"]["message"]

            bad_op = request_unix(sock, {"op": "frobnicate"})
            assert bad_op["ok"] is False
            assert bad_op["error"]["type"] == "ProtocolError"

            # Malformed JSON straight down the socket.
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(30.0)
                raw.connect(sock)
                raw.sendall(b"this is not json\n")
                reply = json.loads(raw.recv(65536))
            assert reply["ok"] is False
            assert reply["error"]["type"] == "ProtocolError"

    def test_shutdown_request_stops_the_server(self, tmp_path):
        sock = str(tmp_path / "serve.sock")
        with background_server(socket_path=sock, batch_window=0.0):
            reply = request_unix(sock, {"op": "shutdown"})
        assert reply == {"ok": True, "stopping": True}


class TestTextConversion:
    """Text inputs are converted to a daemon-private tape once, on first
    touch; every served result stays bit-identical to a solo text run."""

    def test_text_request_matches_solo_text_run(self, ba_file, tmp_path):
        config = EstimatorConfig(seed=7, repetitions=3)
        outcome = run_estimate_program(FileEdgeStream(ba_file), KAPPA, config)
        sock = str(tmp_path / "serve.sock")
        with background_server(socket_path=sock, batch_window=0.0):
            document = request_unix(sock, _estimate_request(ba_file, seed=7))
            stats = request_unix(sock, {"op": "stats"})
        _assert_document_matches_solo(document, outcome.result, outcome.root_state)
        (tape,) = stats["tapes"]
        assert tape["source"] == "text"
        assert tape["convert_s"] > 0
        # Still keyed by the text's own fingerprint, not the tape's.
        text_key = stream_fingerprint(FileEdgeStream(ba_file)).hex()
        assert tape["fingerprint"] == document["tape_fingerprint"] == text_key

    def test_preconverted_tape_returns_the_same_result(self, ba_file, tmp_path):
        tape_path = str(tmp_path / "ba.etape")
        write_tape(ba_file, tape_path)
        sock = str(tmp_path / "serve.sock")
        with background_server(socket_path=sock, batch_window=0.0):
            from_text = request_unix(sock, _estimate_request(ba_file, seed=5))
            from_tape = request_unix(sock, _estimate_request(tape_path, seed=5))
            stats = request_unix(sock, {"op": "stats"})
        for field in ("estimate", "rounds", "passes_total", "sweeps_total",
                      "root_rng_sha256"):
            assert from_tape[field] == from_text[field]
        sources = {t["path"]: (t["source"], t["convert_s"]) for t in stats["tapes"]}
        assert sources[tape_path] == ("tape", 0.0)
        assert sources[ba_file][0] == "text"

    def test_concurrent_first_requests_convert_once(
        self, ba_file, tmp_path, monkeypatch
    ):
        calls = []
        real_convert_text = registry_module.convert_text

        def slow_convert_text(text, directory):
            calls.append(text.path)
            time.sleep(0.3)  # both requests arrive while this one converts
            return real_convert_text(text, directory)

        monkeypatch.setattr(registry_module, "convert_text", slow_convert_text)
        sock = str(tmp_path / "serve.sock")
        responses = {}
        with background_server(socket_path=sock, batch_window=0.25) as server:
            threads = [
                threading.Thread(
                    target=lambda s=seed: responses.__setitem__(
                        s, request_unix(sock, _estimate_request(ba_file, s))
                    )
                )
                for seed in (3, 9)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
            assert not any(t.is_alive() for t in threads)
            listing = sorted(os.listdir(server.registry.tape_dir))
            stats = request_unix(sock, {"op": "stats"})

        assert all(responses[s]["ok"] for s in (3, 9))
        assert len(calls) == 1
        assert len(listing) == 1 and listing[0].endswith(".etape")
        assert len(stats["tapes"]) == 1

    def test_malformed_text_is_a_typed_error_and_leaves_nothing(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 2\n2 x\n")
        sock = str(tmp_path / "serve.sock")
        with background_server(socket_path=sock, batch_window=0.0) as server:
            reply = request_unix(sock, _estimate_request(str(bad), seed=1))
            stats = request_unix(sock, {"op": "stats"})
            tape_dir = server.registry.tape_dir
            leftovers = os.listdir(tape_dir) if tape_dir else []
        assert reply["ok"] is False
        assert reply["error"]["type"] == "StreamError"
        assert f"{bad}:3" in reply["error"]["message"]
        assert stats["tapes"] == []
        assert leftovers == []

    def test_private_directory_removed_on_exit(self, ba_file, tmp_path):
        sock = str(tmp_path / "serve.sock")
        with background_server(socket_path=sock, batch_window=0.0) as server:
            assert request_unix(sock, _estimate_request(ba_file, seed=2))["ok"]
            tape_dir = server.registry.tape_dir
            assert os.path.isdir(tape_dir)
        assert not os.path.exists(tape_dir)

    def test_registry_single_flight_under_thread_stress(self, ba_file, monkeypatch):
        calls = []
        real_convert_text = registry_module.convert_text

        def counting_convert_text(text, directory):
            calls.append(text.path)
            return real_convert_text(text, directory)

        monkeypatch.setattr(registry_module, "convert_text", counting_convert_text)
        registry = TapeRegistry()
        entries = []
        barrier = threading.Barrier(8)

        def open_entry():
            barrier.wait()
            entries.append(registry.entry_for(ba_file))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=open_entry) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
            registry.shutdown()
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1
        assert len(entries) == 8 and all(e is entries[0] for e in entries)
        assert not os.path.exists(registry.tape_dir)
