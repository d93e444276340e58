"""The pass executor: one sweep loop for every chunked pass.

Every pass of the estimator stack is a fold with three separable parts:

* a read-only **spec** - the pass's lookup state (sorted position arrays,
  tracked-id :class:`~repro.core.kernels.KeySet` tables, packed watch
  keys), shared by every kernel call of the sweep;
* a pure **kernel** - a function of ``(spec, start_row, rows)`` mapping one
  contiguous block of tape rows (with its global row offset) to a small
  *partial* result, touching no shared state and consuming no randomness;
* an ordered **absorb** step - folding partials back into the pass's
  mutable state *in stream order*, which is where anything sequential
  (RNG replay on matched edges, occurrence numbering) lives.

:class:`PassPlan` is the declarative description of one such pass.
:func:`run_plans` drives any set of *mutually independent* plans through
**one** sweep of the tape (a fused pass group on the
:class:`~repro.streams.multipass.PassScheduler`: one logical pass per plan,
one physical sweep), and :func:`run_plan` is its single-plan case.

The sweep loop pulls zero-copy chunks from the scheduler, batches
consecutive chunks into *tasks* of at least :data:`TASK_ROWS_FLOOR` rows
(at the default chunk size a task is one chunk, so nothing is copied), and
absorbs the tasks' partials strictly FIFO in stream order on the calling
thread.  A task is every still-active plan's kernel over the task's block.
With ``workers > 1`` tasks run on a lazily created, process-wide
:class:`~concurrent.futures.ThreadPoolExecutor` of ``workers`` threads:
NumPy releases the GIL in the hashing, gathers, ``searchsorted`` and
``bincount`` the kernels are made of, so the threads scan in parallel over
the same mmap or in-memory rows.  With ``workers == 1`` the same loop calls
the kernels inline.  Because kernels are pure and only the calling thread
absorbs, in stream order, every fold sees the sequence it would see
serially: results are bit-identical at any thread count.

Shared probes: a plan whose spec holds a keyed membership probe reports
it through :meth:`PassPlan.probe`.  At sweep start the active plans'
probes are grouped by key space; a space with two or more probes gets one
union probe for the sweep (:class:`~repro.core.kernels.SharedProbe`), so
each task probes its block once per key space and each kernel takes its
own hits from it.  A space with one probe keeps the plan's own table:
single-plan sweeps run exactly as before.

Early stop: a plan that reports ``finished()`` or is past its
``stop_row()`` receives no more partials, the sweep stops reading once
every plan is done, and at most ``INFLIGHT_PER_WORKER * workers`` tasks
are in flight at a time.

Pass accounting: a sweep is exactly one physical sweep - and a group of
``n`` plans ``n`` logical passes - against the scheduler's budget,
whatever the thread count.

**Fault tolerance** (see :mod:`repro.core.faults`): the ``worker.crash``
injection site makes a task raise :class:`~repro.errors.WorkerCrashError`
on its thread.  A pure kernel can simply be rerun, so the active
:class:`~repro.core.faults.RetryPolicy` resubmits the task; once retries
are exhausted the sweep degrades ``sharded->serial`` and finishes inline,
bit-identically and without another tape sweep, so a worker crash never
fails the sweep.  Any other kernel error
propagates.  On every exit path the queued tasks are cancelled and the
running ones waited for before the chunk iterator closes, so no kernel
outlives the rows it reads.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any, Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from ..errors import WorkerCrashError
from . import engine, faults

if TYPE_CHECKING:  # pragma: no cover - import-time only
    import numpy

    from ..streams.multipass import PassScheduler

#: Consecutive chunks are batched into one task until it holds at least
#: this many rows, so tiny chunk sizes do not drown the threads in
#: per-task overhead.  Tests shrink it to force multi-task sweeps.
TASK_ROWS_FLOOR = 16384

#: Upper bound on in-flight tasks, as a multiple of the worker count.
#: Bounds memory held by unabsorbed partials while keeping every thread busy.
INFLIGHT_PER_WORKER = 2


class PassPlan(ABC):
    """Declarative description of one chunked pass (see module docstring).

    Concrete plans set :attr:`kernel` and implement the fold.  ``absorb``
    is always called in stream order on the sweeping thread; plans whose
    partials are commutative (summed counts, unioned hits) simply don't
    depend on that, while order-sensitive plans (occurrence numbering,
    RNG replay) rely on it.

    ``finished()`` returning ``True`` declares the rest of the tape dead
    *and* any not-yet-absorbed partials discardable - the executor may
    skip kernel invocations for a finished plan entirely.
    """

    #: Human-readable pass label, for diagnostics.
    name: str = "pass"

    #: ``kernel(spec, start_row, rows) -> partial | None``; must be pure -
    #: no shared state, no randomness, output a function of its arguments
    #: only - because it runs on pool threads concurrently with others.
    kernel: Callable[[Any, int, "numpy.ndarray"], Any]

    @abstractmethod
    def spec(self) -> Any:
        """The read-only state handed to every kernel call of the sweep."""

    @abstractmethod
    def absorb(self, partial: Any) -> None:
        """Fold one non-``None`` partial into the plan state (stream order)."""

    def finished(self) -> bool:
        """True once the rest of the tape is dead for this pass (early stop)."""
        return False

    def stop_row(self) -> Optional[int]:
        """Static row bound past which the tape is dead, or ``None``."""
        return None

    def probe(self) -> Optional[Any]:
        """The plan's keyed membership probe (:class:`~repro.core.kernels.Probe`),
        if its spec holds one; probes of one key space share a sweep's union."""
        return None

    @abstractmethod
    def result(self) -> Any:
        """The pass result, read after the scan completes or abandons."""


_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _pool(workers: int) -> ThreadPoolExecutor:
    """The shared ``workers``-thread pool, created on first use."""
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-sweep"
            )
        return pool


def shutdown_pools() -> None:
    """Tear down the sweep thread pools (idempotent; the next sweep recreates them)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


def run_plan(
    scheduler: "PassScheduler",
    plan: PassPlan,
    chunk_size: Optional[int] = None,
    workers: Optional[int] = None,
) -> Any:
    """Execute ``plan`` as exactly one pass (and one sweep) of ``scheduler``.

    ``chunk_size`` and ``workers`` default to the engine policy in force
    (:func:`repro.core.engine.policy`).  Results are bit-identical at any
    worker count.
    """
    return run_plans(scheduler, [plan], chunk_size=chunk_size, workers=workers)[0]


def run_plans(
    scheduler: "PassScheduler",
    plans: Sequence[PassPlan],
    chunk_size: Optional[int] = None,
    workers: Optional[int] = None,
    results: bool = True,
) -> Optional[List[Any]]:
    """Execute independent ``plans`` through **one** sweep of ``scheduler``.

    Opens ``len(plans)`` logical passes served by a single physical sweep
    (the scheduler's fused pass group), so ``n`` independent scans cost one
    traversal of the tape instead of ``n``.  The plans must be mutually
    independent: each receives exactly the kernel-partial fold it would
    have received from its own :func:`run_plan` sweep, so per-plan results
    are bit-identical to per-plan execution at any worker count.  Returns
    the plans' results in order.

    ``results=False`` returns ``None`` instead of the results: round
    stages (whose sweeps may carry the stages of several speculative
    rounds or served jobs) read their plans' state in their own finish
    step, so nothing is converted for them.
    """
    if not plans:
        raise ValueError("run_plans needs at least one plan")
    if chunk_size is None or workers is None:
        policy = engine.policy()
        chunk_size = chunk_size if chunk_size is not None else policy.chunk_size
        workers = workers if workers is not None else policy.workers
    _sweep(scheduler, plans, chunk_size, workers)
    return [plan.result() for plan in plans] if results else None


class _PlanState:
    """Executor-side tracking of one plan inside a sweep."""

    __slots__ = ("plan", "stop", "done")

    def __init__(self, plan: PassPlan) -> None:
        self.plan = plan
        self.stop = plan.stop_row()
        self.done = plan.finished() or self.stop == 0

    def absorb(self, partial: Any, offset_after: int) -> None:
        """Fold one partial (stream order) and refresh the done flag."""
        if self.done:
            return  # finished plans discard any late partials
        if partial is not None:
            self.plan.absorb(partial)
        if self.plan.finished() or (self.stop is not None and offset_after >= self.stop):
            self.done = True


class _Task:
    """One block of consecutive rows and the plans still scanning it."""

    __slots__ = ("active", "start", "end", "rows", "future", "partials", "attempts")

    def __init__(self, active: tuple, start: int, rows: "numpy.ndarray") -> None:
        self.active = active
        self.start = start
        self.end = start + len(rows)
        self.rows = rows
        self.future: Optional[Future] = None
        self.partials: tuple = ()
        self.attempts = 0

    def done(self) -> bool:
        return self.future is None or self.future.done()


def _sweep(
    scheduler: "PassScheduler",
    plans: Sequence[PassPlan],
    chunk: int,
    workers: int,
) -> None:
    policy = faults.active_policy()
    states = [_PlanState(plan) for plan in plans]
    specs = [plan.spec() for plan in plans]
    kernels = [plan.kernel for plan in plans]
    pool = _pool(workers) if workers > 1 else None
    inline = pool is None  # degraded sweeps finish inline too
    task_rows = chunk if inline else max(chunk, TASK_ROWS_FLOOR)
    max_inflight = INFLIGHT_PER_WORKER * workers

    # Tasks in stream order; only the head is ever absorbed.
    window: "deque[_Task]" = deque()
    batch: List["numpy.ndarray"] = []
    batch_rows = 0
    offset = 0

    def compute(task: _Task, crash: bool = False) -> tuple:
        if crash:
            raise WorkerCrashError(f"injected fault: {faults.WORKER_CRASH}")
        return tuple(kernels[i](specs[i], task.start, task.rows) for i in task.active)

    def flush() -> None:
        nonlocal batch, batch_rows
        if len(batch) == 1:
            rows = batch[0]
        else:
            import numpy as np

            rows = np.concatenate(batch)
        active = tuple(i for i, state in enumerate(states) if not state.done)
        task = _Task(active, offset - batch_rows, rows)
        batch, batch_rows = [], 0
        # One worker.crash event per new task (a retry is not one), decided
        # here on the sweeping thread; the task raises on its worker.
        crash = pool is not None and faults.fires(faults.WORKER_CRASH)
        window.append(task)
        if inline:
            task.partials = compute(task)
        else:
            task.future = pool.submit(compute, task, crash)

    def recover(task: _Task, exc: WorkerCrashError) -> None:
        # Retry on the pool while attempts remain, then finish inline.
        nonlocal inline
        task.attempts += 1
        if not inline and task.attempts < policy.max_attempts:
            time.sleep(policy.backoff_delay(task.attempts))
            task.future = pool.submit(compute, task)
            return
        if not inline:
            inline = True
            faults.degrade(faults.ACTION_SERIAL, faults.WORKER_CRASH, task.attempts, exc)
        task.future = None
        task.partials = compute(task)

    def absorb_next() -> None:
        task = window[0]
        while task.future is not None:
            try:
                task.partials = task.future.result()
                task.future = None
            except WorkerCrashError as exc:
                recover(task, exc)
        window.popleft()
        for i, partial in zip(task.active, task.partials):
            states[i].absorb(partial, task.end)

    chunks = scheduler.new_fused_pass_chunks(chunk, passes=len(plans))
    shared = _share_probes(plans, states)
    try:
        for block in chunks:
            batch.append(block)
            batch_rows += len(block)
            offset += len(block)
            if batch_rows >= task_rows:
                flush()
                # Absorb what already completed, so early stop can trigger
                # before the window fills; block only when it is full.
                while window and (len(window) >= max_inflight or window[0].done()):
                    absorb_next()
            if all(state.done for state in states):
                break  # the rest of the sweep is dead tape for every plan
            stops = [state.stop for state in states if not state.done]
            if all(stop is not None for stop in stops) and offset >= max(stops):
                break
        if batch_rows and not all(state.done for state in states):
            flush()
        while window and not all(state.done for state in states):
            absorb_next()
    finally:
        try:
            # Tasks left over scan dead tape (or the sweep is failing):
            # drop the queued ones and let the running ones finish.  Their
            # results and errors are discarded unread - a dead-tape error
            # must not fail a pass group whose results are complete.
            pending = [task.future for task in window if task.future is not None]
            for future in pending:
                future.cancel()
            wait(pending)
        finally:
            chunks.close()
            for probe in shared:
                probe.shared = None


def _share_probes(plans: Sequence[PassPlan], states: Sequence[_PlanState]) -> List[Any]:
    """Bind the active plans' probes to one union per key space.

    Returns the probes bound to a union (to unbind when the sweep ends);
    a key space probed by one plan only keeps that plan's own table.
    """
    spaces: Dict[Any, List[Any]] = {}
    for plan, state in zip(plans, states):
        probe = None if state.done else plan.probe()
        if probe is not None and len(probe):
            spaces.setdefault(probe.space, []).append(probe)
    shared: List[Any] = []
    for space, probes in spaces.items():
        space.share(probes)
        if len(probes) > 1:
            shared.extend(probes)
    return shared
