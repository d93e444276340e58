"""Fault model for the execution engine: retry, degradation, injection.

The executor's determinism argument (pure per-chunk kernels plus
stream-ordered absorption, see :mod:`repro.core.executor`) does more than
make every execution mode bit-identical - it makes *recovery* bit-identical
too.  A task that crashed on its worker thread recomputes the exact same
partial when resubmitted; a round whose shared sweep aborted mid-stage
replays the exact same trajectory once the root generator is rewound (the
PR 5 checkpoint machinery).  This module packages that argument into three
cooperating pieces:

* :class:`RetryPolicy` - deterministic retry with exponential backoff.
  ``max_attempts`` bounds attempts per failure site, ``backoff_base``
  seeds the exponential delay, ``jitter_seed`` derives the (deterministic)
  jitter stream - never the estimator's root RNG.  The default comes
  from ``REPRO_MAX_RETRIES`` (extra attempts after the first).

* the **degradation ladder** - when retries exhaust at one tier the run
  drops a tier and re-executes instead of failing the estimate:
  threaded -> serial sweep (``sharded->serial``, only for a failure at
  the executor's own ``worker.crash`` site), speculative window ->
  sequential rounds, snapshots -> skipped.  Every estimate sweeps a tape
  (a text input is converted when it is opened), so there is no reader
  tier to drop: a read fault that outlives its retries and every other
  tier fails the estimate.
  Each step is recorded as a :class:`FailureReport` on the active
  :class:`RecoveryContext`, surfaces on ``EstimateResult.degradations``,
  and is logged as a warning on the ``"repro"`` logger.

* :class:`FaultPlan` - pluggable deterministic fault injection.  A plan
  maps named sites to the 0-based occurrence indices at which the site
  fires, e.g. ``"worker.crash@2;file.read@40;sweep.mid_stage@3"``.  Sites
  count their events process-wide while the plan is installed (threaded
  task submissions, sweep openings, parsed file chunks), and each index
  fires exactly once, so a fault lands at a reproducible point of the
  execution no matter which mode runs it.  Plans come from the
  ``REPRO_FAULTS`` environment variable, the ``faults=`` estimator config
  field, or explicitly via :func:`fault_scope` in tests.

State is process-global, matching :mod:`repro.core.engine`'s switchboard:
one estimate runs at a time per process, and injection decisions are made
on the sweeping thread, never on a worker thread.
"""

from __future__ import annotations

import logging
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..errors import (
    ParameterError,
    ReproError,
    SnapshotWriteError,
    StreamReadError,
    WorkerCrashError,
)

_log = logging.getLogger("repro")

# ---------------------------------------------------------------------------
# fault sites

#: A threaded sweep task crashes on its worker thread.
WORKER_CRASH = "worker.crash"
#: A chunked read of the tape fails (one event per yielded chunk).
FILE_READ = "file.read"
#: The tape dies after the first item of a scheduler sweep.
SWEEP_MID_STAGE = "sweep.mid_stage"
#: Persisting a round-boundary snapshot to the checkpoint dir fails.
SNAPSHOT_WRITE = "snapshot.write"

ALL_SITES = (
    WORKER_CRASH,
    FILE_READ,
    SWEEP_MID_STAGE,
    SNAPSHOT_WRITE,
)

# ---------------------------------------------------------------------------
# degradation actions

ACTION_SERIAL = "sharded->serial"
ACTION_SEQUENTIAL = "speculative->sequential"
ACTION_NO_SNAPSHOT = "snapshot->skip"

#: Every degradation action, in ladder order (``snapshot->skip`` is taken
#: by the snapshot writer, the others by :func:`pick_step`).
LADDER = (
    ACTION_SERIAL,
    ACTION_SEQUENTIAL,
    ACTION_NO_SNAPSHOT,
)


@dataclass(frozen=True)
class FailureReport:
    """One recorded recovery action: where it failed and what was dropped."""

    #: Fault site (one of :data:`ALL_SITES`, or a classified error site).
    site: str
    #: Degradation applied (one of :data:`LADDER`).
    action: str
    #: Failed attempts at the tier before the ladder stepped down.
    attempts: int
    #: Human-readable cause (the final exception, ``repr``-formatted).
    cause: str


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry schedule for recoverable execution failures."""

    #: Total attempts per failure site (1 = no retries).
    max_attempts: int = 3
    #: Base delay in seconds; attempt ``k`` backs off ``base * 2**(k-1)``.
    backoff_base: float = 0.02
    #: Seed for the jitter stream (independent of the estimator root RNG).
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ParameterError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ParameterError("backoff_base must be >= 0")

    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), deterministic in
        ``(backoff_base, jitter_seed, attempt)``.

        Exponential base delay plus up to 25% jitter drawn from a private
        ``random.Random`` - the estimator's root generator is never
        touched, so retries cannot perturb the result trajectory.
        """
        if self.backoff_base == 0:
            return 0.0
        base = self.backoff_base * (2 ** (attempt - 1))
        jitter = random.Random(self.jitter_seed * 1000003 + attempt).random()
        return base * (1.0 + 0.25 * jitter)

    @property
    def retries(self) -> int:
        """Extra attempts after the first (the ``REPRO_MAX_RETRIES`` knob)."""
        return self.max_attempts - 1


def policy_from_env(max_retries: Optional[int] = None) -> RetryPolicy:
    """Build a :class:`RetryPolicy` from the environment knob.

    ``max_retries`` overrides ``REPRO_MAX_RETRIES``; a malformed
    environment value raises :class:`~repro.errors.ParameterError` like
    any other bad parameter.
    """
    if max_retries is None:
        raw = os.environ.get("REPRO_MAX_RETRIES", "").strip()
        if raw:
            try:
                max_retries = int(raw)
            except ValueError:
                raise ParameterError(f"REPRO_MAX_RETRIES must be an integer, got {raw!r}")
    if max_retries is not None and max_retries < 0:
        raise ParameterError("max retries must be >= 0")
    attempts = 3 if max_retries is None else max_retries + 1
    return RetryPolicy(max_attempts=attempts)


class FaultPlan:
    """Deterministic injection schedule: site -> occurrence indices.

    Each named site keeps a process-wide event counter while the plan is
    installed; :meth:`fires` increments the counter and reports whether the
    current event index was scheduled.  Indices are consumed (each fires at
    most once), so a retried task or replayed sweep does not re-trip the
    same fault.
    """

    def __init__(self, schedule: Dict[str, Tuple[int, ...]]) -> None:
        for site in schedule:
            if site not in ALL_SITES:
                raise ParameterError(
                    f"unknown fault site {site!r}; expected one of {', '.join(ALL_SITES)}"
                )
        self._schedule: Dict[str, Tuple[int, ...]] = {
            site: tuple(sorted(set(indices))) for site, indices in schedule.items()
        }
        self._counters: Dict[str, int] = {}
        self._pending: Dict[str, set] = {}
        self.reset()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``"site@i;site@j,k"`` spec (the ``REPRO_FAULTS`` format).

        Entries are semicolon-separated; each is ``site@indices`` where
        ``indices`` is a comma-separated list of 0-based event indices
        (``site`` alone means index 0).  Repeated sites merge.
        """
        schedule: Dict[str, List[int]] = {}
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            site, _, raw_indices = entry.partition("@")
            site = site.strip()
            if not raw_indices.strip():
                indices = [0]
            else:
                try:
                    indices = [int(tok) for tok in raw_indices.split(",") if tok.strip()]
                except ValueError:
                    raise ParameterError(f"malformed fault indices in {entry!r}")
            if any(i < 0 for i in indices):
                raise ParameterError(f"fault indices must be >= 0 in {entry!r}")
            schedule.setdefault(site, []).extend(indices)
        return cls({site: tuple(indices) for site, indices in schedule.items()})

    def reset(self) -> None:
        """Rewind every site counter and re-arm all scheduled indices."""
        self._counters = {site: 0 for site in self._schedule}
        self._pending = {site: set(indices) for site, indices in self._schedule.items()}

    def fires(self, site: str) -> bool:
        """Count one event at ``site``; True when a scheduled index fired."""
        if site not in self._pending:
            return False
        index = self._counters[site]
        self._counters[site] = index + 1
        pending = self._pending[site]
        if index in pending:
            pending.discard(index)
            return True
        return False

    def armed(self, site: str) -> bool:
        """Whether ``site`` still has scheduled indices left to fire."""
        return bool(self._pending.get(site))

    def describe(self) -> str:
        """The plan in ``REPRO_FAULTS`` syntax (normalized)."""
        return ";".join(
            f"{site}@{','.join(str(i) for i in indices)}"
            for site, indices in sorted(self._schedule.items())
        )

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"FaultPlan({self.describe()!r})"


def plan_from(value: Union[None, str, FaultPlan]) -> Optional[FaultPlan]:
    """Coerce a config value (``None`` / spec string / plan) to a plan.

    Falls back to ``REPRO_FAULTS`` when ``value`` is ``None``; an empty
    spec yields ``None`` (no injection).
    """
    if value is None:
        value = os.environ.get("REPRO_FAULTS", "")
    if isinstance(value, FaultPlan):
        return value
    spec = str(value).strip()
    if not spec:
        return None
    return FaultPlan.parse(spec)


# ---------------------------------------------------------------------------
# process-global installation

@dataclass
class RecoveryContext:
    """Mutable recovery state for one estimate (or one explicit scope)."""

    policy: RetryPolicy
    plan: Optional[FaultPlan] = None
    reports: List[FailureReport] = field(default_factory=list)
    #: Ladder flags - which tiers this context has already dropped.
    speculation_degraded: bool = False
    serial_degraded: bool = False
    snapshot_degraded: bool = False


_active_policy: Optional[RetryPolicy] = None
_active_plan: Optional[FaultPlan] = plan_from(None)
_active_recovery: Optional[RecoveryContext] = None


def active_policy() -> RetryPolicy:
    """The installed retry policy, or one freshly derived from the env."""
    if _active_policy is not None:
        return _active_policy
    return policy_from_env()


def active_plan() -> Optional[FaultPlan]:
    """The installed fault plan, if any."""
    return _active_plan


def active_recovery() -> Optional[RecoveryContext]:
    """The recovery context of the estimate in progress, if any."""
    return _active_recovery


def fires(site: str) -> bool:
    """Count one event at ``site`` against the installed plan (if any)."""
    plan = _active_plan
    return plan is not None and plan.fires(site)


def task_injection() -> bool:
    """Whether one *new* threaded sweep task should crash (``worker.crash``).

    Consulted on the sweeping thread exactly once per first submission
    (retries of the same task are not new events); a crashing task raises
    :class:`~repro.errors.WorkerCrashError` on its worker thread.
    """
    return fires(WORKER_CRASH)


def degrade(action: str, site: str, attempts: int, cause: BaseException) -> None:
    """Apply one ladder step under the active recovery context; record and log it.

    Without a context (bare executor calls outside an estimate) this is a
    no-op: the caller handles its own sweep-local fallback and no global
    state is mutated.  Under a context the step persists for the rest of
    the estimate - the engine override / recovery scope unwinds it when
    the estimate returns.
    """
    ctx = _active_recovery
    if ctx is None:
        return
    if action == ACTION_SERIAL:
        from . import engine

        engine._apply(None, 1)
        ctx.serial_degraded = True
    elif action == ACTION_SEQUENTIAL:
        # The driver restarts the program with speculation off in its
        # config (programs read speculation from their config).
        ctx.speculation_degraded = True
    elif action == ACTION_NO_SNAPSHOT:
        # The writer itself stops persisting (see core.snapshot); the
        # context only records that durability was dropped for this run.
        ctx.snapshot_degraded = True
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown degradation action {action!r}")
    ctx.reports.append(
        FailureReport(site=site, action=action, attempts=attempts, cause=repr(cause))
    )
    _log.warning(
        "degraded %s after %d failed attempt(s) at %s: %r", action, attempts, site, cause
    )


def pick_step(exc: BaseException, depth: int, ctx: RecoveryContext) -> Optional[str]:
    """The degradation ladder: which tier to drop for this failure.

    ``depth`` is the speculative window in flight when ``exc`` struck
    (``0`` before the first round).  Takes the first applicable step,
    ``sharded->serial`` before ``speculative->sequential``; ``None`` when
    no applicable tier is left to drop (the failure then propagates).
    ``sharded->serial`` is offered only for a failure at the executor's
    own ``worker.crash`` site: serial sweeps read the same tape, so
    dropping threads cannot help a sweep or read fault.
    """
    from . import engine

    threaded = site_of(exc) == WORKER_CRASH and engine.effective_workers() > 1
    for action, available in (
        (ACTION_SERIAL, threaded and not ctx.serial_degraded),
        (ACTION_SEQUENTIAL, depth >= 2 and not ctx.speculation_degraded),
    ):
        if available:
            return action
    return None


def is_transient(exc: BaseException) -> bool:
    """Whether retrying or degrading can plausibly help with ``exc``.

    Worker crashes and stream *read* errors are transient; every other
    library error (budget violations, protocol misuse, bad parameters) is
    deterministic and retrying would just replay it.  Bare ``OSError`` from outside the
    library (user streams raising ``IOError``) counts as transient.
    """
    if isinstance(exc, (WorkerCrashError, StreamReadError)):
        return True
    if isinstance(exc, ReproError):
        return False
    return isinstance(exc, OSError)


def site_of(exc: BaseException) -> str:
    """The fault site an exception is classified under (for reports)."""
    if isinstance(exc, WorkerCrashError):
        return WORKER_CRASH
    if isinstance(exc, SnapshotWriteError):
        return SNAPSHOT_WRITE
    return FILE_READ if isinstance(exc, (StreamReadError, OSError)) else "unknown"


@contextmanager
def fault_scope(
    plan: Union[None, str, FaultPlan] = None,
    policy: Optional[RetryPolicy] = None,
) -> Iterator[Optional[FaultPlan]]:
    """Install a fault plan (and optionally a policy) without a recovery
    context - the low-level hook for executor/scheduler-layer tests."""
    global _active_policy, _active_plan
    resolved = plan_from(plan)
    if resolved is not None:
        resolved.reset()
    saved = (_active_policy, _active_plan)
    _active_policy = policy if policy is not None else _active_policy
    _active_plan = resolved
    try:
        yield resolved
    finally:
        _active_policy, _active_plan = saved


@contextmanager
def recovery_scope(
    policy: Optional[RetryPolicy] = None,
    plan: Union[None, str, FaultPlan] = None,
) -> Iterator[RecoveryContext]:
    """Install the recovery machinery for one estimate.

    Sets up the retry policy (env-derived when not given), the fault plan
    (``REPRO_FAULTS`` when not given, counters re-armed), and a fresh
    :class:`RecoveryContext` collecting :class:`FailureReport` entries.
    On exit the previous installation is restored.  No step of the ladder
    outlives the estimate: the serial tier lives in the engine switchboard
    and is unwound by ``engine_overrides``, and the sequential tier only
    lives in the restarted program's config.
    """
    global _active_policy, _active_plan, _active_recovery
    ctx = RecoveryContext(
        policy=policy if policy is not None else policy_from_env(),
        plan=plan_from(plan),
    )
    if ctx.plan is not None:
        ctx.plan.reset()
    saved = (_active_policy, _active_plan, _active_recovery)
    _active_policy, _active_plan, _active_recovery = ctx.policy, ctx.plan, ctx
    try:
        yield ctx
    finally:
        _active_policy, _active_plan, _active_recovery = saved
