"""The cross-job sweep scheduler: many estimates, one tape traversal.

:class:`SweepScheduler` is the serving layer's core and the direct
generalization of the speculative window loop in
:mod:`repro.core.speculate`: where that loop drives the ``k`` pre-drawn
rounds of *one* estimate in lockstep, this one drives the live rounds of
*any number of independent estimates*.  Each job is an
:func:`~repro.core.driver.estimate_program` generator yielding
owner-tagged stage batches; at every step the scheduler merges the
pending batches of all live jobs and serves them with
:func:`~repro.core.stages.sweep_tagged_stages` - one fused physical
traversal - on one shared
:class:`~repro.streams.multipass.PassScheduler`.

Why this is sound: a stage receives exactly the fold it would receive
from a dedicated sweep regardless of what else rides the traversal (the
bit-identity contract of :func:`~repro.core.stages.sweep_stages`), and
independent estimates share no state at all - so *any* set of live
stages may share a sweep, and each job's results are bit-identical to
its solo run.  The jobs need not be in the same round, or even the same
phase: job A's pass-4 stage can ride the same traversal as job B's
pass-1 stage.

Co-riding jobs share compute as well as the read: plans of different
jobs that probe one key space (tracked vertex ids, packed watch edges)
probe each block once against the union of their keys (see
:class:`~repro.core.kernels.SharedProbe`), each taking its own hits.

Admission happens at step boundaries: a job submitted while a sweep is
in flight joins at the next step (its first-round stages co-ride from
then on).  Commit/discard is per job - each program books its own
committed and wasted sweeps in its result - while the scheduler counts,
per job, the steps the job rode and how many of them it shared with
another job.

Failure behavior: each traversal runs under its own recovery context
(a ``sharded->serial`` step lasts for it alone, and its reports go to
every rider), and a failed one sends its exception to every rider's
program, which retries, degrades or fails on its own, as a solo run
does; the scheduler, the tape, and jobs admitted later keep working.
Retry backoff sleeps on the sweep thread, delaying the tape's jobs.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional

from ..streams.base import EdgeStream
from ..streams.multipass import PassScheduler
from ..core import engine, faults
from ..core.stages import TaggedStage, sweep_tagged_stages
from .jobs import Job, JobAccounting


class SweepScheduler:
    """Drives live estimate programs in lockstep over one shared tape.

    ``batch_window`` (seconds) is a small admission delay: when the tape
    is idle and a job arrives, the scheduler waits that long for
    co-riders before the first sweep, so two requests racing in over the
    daemon's sockets share traversals from step one.  Zero serves
    immediately.
    """

    def __init__(self, stream: EdgeStream, batch_window: float = 0.0) -> None:
        self._stream = stream
        self._scheduler = PassScheduler(stream)
        # The sweep thread's scope: the engine policy in force here (the
        # environment's, in the daemon), REPRO_MAX_RETRIES and the
        # REPRO_FAULTS plan, read now so a malformed variable fails the
        # caller, not the thread.  Each job's window depth and retries
        # still come from its config.
        self._policy = engine.policy()
        self._retry = faults.policy_from_env()
        self._faults = faults.plan_from(None)
        self._batch_window = batch_window
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending: List[Job] = []
        self._active: Dict[Job, List[TaggedStage]] = {}
        self._stop = False
        self._jobs_completed = 0
        self._jobs_failed = 0
        self._thread: Optional[threading.Thread] = None

    # -- introspection ----------------------------------------------------

    @property
    def stream(self) -> EdgeStream:
        return self._stream

    @property
    def sweeps_physical(self) -> int:
        """Physical tape traversals performed over the scheduler's lifetime."""
        return self._scheduler.sweeps_used

    @property
    def jobs_completed(self) -> int:
        return self._jobs_completed

    @property
    def jobs_failed(self) -> int:
        return self._jobs_failed

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "SweepScheduler":
        """Start the sweep thread (idempotent); returns self."""
        with self._lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro-sweeps", daemon=True
                )
                self._thread.start()
        return self

    def submit(self, job: Job) -> None:
        """Queue ``job`` for admission at the next step boundary."""
        with self._wake:
            if self._stop:
                raise RuntimeError("scheduler is shut down")
            self._pending.append(job)
            self._wake.notify()

    def shutdown(self, timeout: float = 10.0) -> bool:
        """Stop after draining the already-submitted jobs.

        Returns whether the sweep thread has exited within ``timeout``.
        """
        with self._wake:
            self._stop = True
            self._wake.notify()
        if self._thread is None:
            return True
        self._thread.join(timeout)
        return not self._thread.is_alive()

    # -- the lockstep loop ------------------------------------------------

    def _run(self) -> None:
        with engine.engine_overrides(self._policy):
            self._loop()

    def _loop(self) -> None:
        while True:
            with self._wake:
                while not self._pending and not self._active and not self._stop:
                    self._wake.wait()
                if self._stop and not self._pending and not self._active:
                    return
                newly = self._pending
                self._pending = []
            if newly and not self._active and self._batch_window > 0:
                # Idle tape, fresh arrivals: give racing co-riders a beat
                # to land before committing the first traversal.
                time.sleep(self._batch_window)
                with self._wake:
                    newly += self._pending
                    self._pending = []
            for job in newly:
                self._admit(job)
            if self._active:
                self._step()

    def _admit(self, job: Job) -> None:
        job.recovery = faults.RecoveryContext(self._retry, self._faults)
        # A program can finish without ever needing the tape (m == 0).
        self._advance(job, None)

    def _step(self) -> None:
        """Serve every live job's pending batch with one shared traversal."""
        jobs = list(self._active)
        merged = [tagged for job in jobs for tagged in self._active[job]]
        traversal = faults.RecoveryContext(self._retry, self._faults)
        failure: Optional[BaseException] = None
        with faults.recovering(traversal):
            try:
                sweep_tagged_stages(self._scheduler, merged)
            except BaseException as exc:  # noqa: BLE001 - each rider recovers or fails
                failure = exc
        for job in jobs:
            job.sweeps_rode += 1
            job.sweeps_shared += len(jobs) > 1
            job.recovery.reports.extend(traversal.reports)
            self._advance(job, failure)

    def _advance(self, job: Job, outcome: Optional[BaseException]) -> None:
        """Send ``job``'s program its last sweep's outcome, under its own
        recovery context; park its next batch, or settle the job."""
        try:
            with faults.recovering(job.recovery):
                self._active[job] = job.program.send(outcome)
        except StopIteration as stop:
            self._active.pop(job, None)
            self._finish(job, stop.value)
        except BaseException as exc:  # noqa: BLE001 - delivered to the waiter
            self._active.pop(job, None)
            self._fail(job, exc)

    def _finish(self, job: Job, outcome) -> None:
        self._jobs_completed += 1
        job.complete(
            outcome,
            JobAccounting(
                sweeps_physical=job.sweeps_rode,
                sweeps_shared=job.sweeps_shared,
                sweeps_committed=outcome.result.sweeps_total,
                sweeps_wasted=outcome.result.sweeps_wasted,
            ),
        )

    def _fail(self, job: Job, error: BaseException) -> None:
        self._jobs_failed += 1
        job.fail(error)


_job_counter = itertools.count()


def next_job_id() -> str:
    """Process-unique job id; its stages' owner tags start with it."""
    return f"job{next(_job_counter)}"
