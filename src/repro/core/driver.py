"""The user-facing estimator: unknown-``T`` search and repetition control.

The paper states its guarantees in terms of the true triangle count ``T``,
leaving the (standard) completion of handling unknown ``T`` implicit.  This
driver supplies it with the geometric guessing loop used throughout the
sublinear-estimation literature (e.g. Eden et al.):

1. start from the Corollary 3.2 upper bound ``T0 = 2 * m * kappa``;
2. run ``repetitions`` independent Algorithm 2 instances sized for the
   current guess and take their median;
3. if the median is at least half the guess, accept it - the guess is then
   within a constant factor of the truth, so the run was adequately
   provisioned; otherwise halve the guess and repeat.

Each halving doubles the sample sizes, so the total space is dominated by
the final, accepted round - i.e. still ``O~(m * kappa / T)``.  A graph with
no triangles walks the guess below 1 and yields estimate 0.

The loop has exactly one implementation, :func:`estimate_program`: a
generator that yields the stage batches each tape sweep must serve,
is sent each sweep's outcome, retries and degrades itself, and reports
every committed round boundary.  Its one library driver,
:func:`run_estimate_program`, serves the batches on one private
scheduler and adds snapshots; crash-resume restarts the program from a
committed boundary (:class:`ResumeState`).
:meth:`TriangleCountEstimator.estimate` and :func:`resume_from` return
its result; the serving layer merges the batches of many programs into
shared sweeps.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple, Union

from ..errors import (
    ParameterError,
    SnapshotFormatError,
    SnapshotMismatchError,
    StreamError,
)
from ..rng import decode_state, encode_state, make_rng, spawn
from ..sampling.combine import median
from ..streams.base import EdgeStream
from ..streams.multipass import PassScheduler
from ..streams.space import SpaceMeter
from ..streams.tape import MmapEdgeStream
from . import engine
from . import faults as faults_module
from . import snapshot as snapshot_module
from .estimator import SinglePassStackResult
from .faults import FailureReport
from .knobs import check_count
from .params import ParameterPlan, PlanConstants
from .stages import TaggedStage, sweep_tagged_stages

#: Set from a signal handler (the CLI's SIGTERM) to stop a running
#: estimate at its next committed round boundary: the driver persists that
#: boundary, flushes the final snapshot and raises ``KeyboardInterrupt``.
#: Raising from the handler itself could land inside any C-extension
#: import or NumPy call; a flag is read only where stopping is clean.
stop_requested = threading.Event()


@dataclass(frozen=True)
class EstimatorConfig:
    """Configuration of :class:`TriangleCountEstimator`.

    Attributes
    ----------
    epsilon:
        Target relative accuracy.
    repetitions:
        Independent Algorithm 2 runs per guessing round (median combined);
        odd values make the median a single run's value.
    mode:
        ``"practical"`` (default) or ``"theory"`` parameter constants; see
        :mod:`repro.core.params`.
    constants:
        Optional override of the plan constants.
    seed:
        Root seed; all randomness in the run derives from it.
    t_hint:
        If given, skip the guessing loop and provision directly for this
        triangle-count guess (used by benchmarks to isolate behaviour).
    space_budget_words:
        Optional hard per-run space cap (Section 3's Markov abort).
    max_rounds:
        Optional cap on guessing rounds; default is enough to walk the guess
        from ``2 m kappa`` down below 1.
    engine_mode:
        Optional engine mode name: ``"auto"`` | ``"chunked"`` |
        ``"sharded"``, synonyms of the one engine (see
        :mod:`repro.core.engine`); validated, selects nothing.  The
        removed ``"python"`` engine is rejected with
        :class:`~repro.errors.ParameterError`.
    chunk_size:
        Optional edges-per-chunk override for every sweep.
    workers:
        Optional thread count per sweep (``1`` = serial).  ``None`` keeps
        the policy in force (``REPRO_WORKERS``, default all cores).
    fuse:
        Accepted for existing configs: ``None`` or a ``bool``, and selects
        nothing.  The fused pass-4/5 sweep it once switched on was removed;
        every round runs passes 4 and 5 as separate sweeps.
    speculate_depth:
        Optional override of the maximum guessing rounds per window: the
        loop runs round ``i`` together with up to ``speculate_depth - 1``
        pre-drawn later rounds, each pass-``k`` stage of every live round
        served by one shared tape sweep; the prefix up to the first
        acceptance is committed and everything after it discarded
        (:mod:`repro.core.speculate`).  ``1`` runs the sequential loop,
        one round per window; ``2`` reproduces the original round-pair
        driver bit-for-bit.  Estimates, the rounds trajectory, and the
        logical-pass totals are bit-identical at any depth; a ``k``-deep
        window finishes multi-round estimates in ~``1/k`` of the
        committed sweeps, while an acceptance books the speculation-only
        sweeps as :attr:`EstimateResult.sweeps_wasted`.  The driver
        additionally caps each window's depth by the *expected-waste
        rule*: the previous round's median predicts which upcoming guess
        will accept, and the window never speculates past it (a
        predicted-accepting round runs solo).  A ``t_hint`` (single
        round) or a ``space_budget_words`` cap runs depth 1 (a
        speculative round tripping the Markov abort must not fail a run
        the sequential loop would have finished).  ``None`` keeps the
        policy in force (``REPRO_SPECULATE_DEPTH``, default 4).
    max_retries:
        Optional override of how many times a failed unit of work (a
        threaded sweep task, a round attempt) is retried before the recovery
        ladder degrades a tier (:mod:`repro.core.faults`).  ``0`` disables
        retries but keeps the degradation ladder.  ``None`` keeps the
        ``REPRO_MAX_RETRIES`` policy (default 2).
    faults:
        Optional deterministic fault-injection plan: a
        :class:`~repro.core.faults.FaultPlan` or a spec string such as
        ``"worker.crash@2;sweep.mid_stage@3"`` (see
        :meth:`~repro.core.faults.FaultPlan.parse`).  ``None`` keeps the
        ``REPRO_FAULTS`` policy (no injection unless the variable is set).
    checkpoint_dir:
        Optional durable-snapshot directory: after each committed
        guessing round the driver atomically writes an ``.esnap``
        snapshot of the full estimator state there
        (:mod:`repro.core.snapshot`), and :func:`resume_from` continues a
        killed run bit-identically from the newest one.  ``None`` keeps
        the ``REPRO_CHECKPOINT_DIR`` policy (no snapshots unless the
        variable is set).  Snapshotting never affects results - runs
        with and without a checkpoint dir are bit-identical.
    snapshot_every:
        Optional snapshot cadence: persist every this-many committed
        rounds (the in-memory state is still refreshed at every
        boundary, so an interrupt flushes at most one cadence window
        late).  ``None`` keeps the ``REPRO_SNAPSHOT_EVERY`` policy
        (default 1 - every round).
    snapshot_keep:
        Optional rotation depth: how many snapshots to retain in the
        checkpoint dir (older ones are deleted after each successful
        write).  ``None`` keeps the ``REPRO_SNAPSHOT_KEEP`` policy
        (default 3).
    """

    epsilon: float = 0.25
    repetitions: int = 5
    mode: str = "practical"
    constants: Optional[PlanConstants] = None
    seed: int = 0
    t_hint: Optional[float] = None
    space_budget_words: Optional[int] = None
    max_rounds: Optional[int] = None
    engine_mode: Optional[str] = None
    chunk_size: Optional[int] = None
    workers: Optional[int] = None
    fuse: Optional[bool] = None
    speculate_depth: Optional[int] = None
    max_retries: Optional[int] = None
    faults: "str | object | None" = None
    checkpoint_dir: Optional[str] = None
    snapshot_every: Optional[int] = None
    snapshot_keep: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < 1:
            raise ParameterError(f"epsilon must be in (0, 1), got {self.epsilon}")
        check_count("repetitions", self.repetitions)
        if self.t_hint is not None and not self.t_hint > 0:
            raise ParameterError(f"t_hint must be positive, got {self.t_hint}")
        if self.space_budget_words is not None and self.space_budget_words < 0:
            raise ParameterError(
                f"space_budget_words must be >= 0, got {self.space_budget_words}"
            )
        for name, minimum in (
            ("max_rounds", 1),
            ("max_retries", 0),
            ("snapshot_every", 1),
            ("snapshot_keep", 1),
        ):
            if getattr(self, name) is not None:
                check_count(name, getattr(self, name), minimum)
        engine.check_settings(self.chunk_size, self.workers, self.speculate_depth)
        if self.engine_mode is not None:
            engine.check_mode(self.engine_mode)
        if self.fuse is not None and not isinstance(self.fuse, bool):
            raise ParameterError(f"fuse must be None or a bool, got {self.fuse!r}")
        if self.faults is not None and not isinstance(self.faults, faults_module.FaultPlan):
            faults_module.FaultPlan.parse(str(self.faults))  # validate eagerly


@dataclass(frozen=True)
class GuessRound:
    """Record of one guessing round: the guess, every run, and the median."""

    t_guess: float
    runs: List[SinglePassStackResult]
    median_estimate: float
    accepted: bool


@dataclass(frozen=True)
class ResumeState:
    """Decoded snapshot state: everything the guessing loop carries across
    a round boundary (see :mod:`repro.core.snapshot`).

    ``round_index`` is the next round to run; ``rounds`` are the committed
    ones; the accounting fields restore the result totals; ``rng_state``
    is the root generator's ``getstate()`` at the boundary;
    ``degradations`` are the recovery ladder's recorded
    reports up to the snapshot.
    """

    round_index: int
    rounds: List[GuessRound]
    space_words_peak: int
    passes_total: int
    sweeps_total: int
    sweeps_wasted: int
    passes_wasted: int
    rng_state: tuple
    degradations: Tuple[FailureReport, ...]


@dataclass(frozen=True)
class EstimateResult:
    """Full outcome of a :meth:`TriangleCountEstimator.estimate` call.

    ``estimate`` is the final triangle-count estimate.  ``rounds`` records
    the guessing trajectory.  ``space_words_peak`` is the largest space used
    by any single run (the model's per-instance space); ``passes_total``
    sums passes over all runs and rounds (each run alone stays within the
    constant six-pass budget - the total reflects the driver's repetition
    and search factors, both ``O(log)``).  ``sweeps_total`` sums the
    *physical tape sweeps* serving the committed rounds - equal to
    ``passes_total`` under the sequential loop, smaller when the
    speculative driver shared sweeps across a round window.
    ``sweeps_wasted`` counts the additional physical sweeps that served
    only discarded work: the tape traversals actually performed are
    ``sweeps_total + sweeps_wasted``.  ``passes_wasted`` counts the
    logical passes of discarded work - pre-drawn rounds thrown away
    because an earlier round of their window accepted, and the passes
    of failed attempts.  Speculation never wastes a whole sweep: an
    accepting round's median is above 0, so one of its instances
    assigned a triangle and the round ran all six passes, which no
    partner outlasts.  Discards therefore show ``passes_wasted > 0``
    with ``sweeps_wasted == 0``, and ``sweeps_wasted`` counts only the
    sweeps of failed attempts.  ``degradations`` lists every tier the recovery
    ladder dropped while producing this result (empty on a clean run):
    each :class:`~repro.core.faults.FailureReport` names the fault site,
    the action taken, the attempts spent, and the triggering cause.
    """

    estimate: float
    rounds: List[GuessRound]
    space_words_peak: int
    passes_total: int
    final_plan: Optional[ParameterPlan]
    sweeps_total: int = 0
    sweeps_wasted: int = 0
    passes_wasted: int = 0
    degradations: Tuple[FailureReport, ...] = ()

    @property
    def accepted_round(self) -> Optional[GuessRound]:
        """The round that produced the final estimate, if any was accepted."""
        for r in self.rounds:
            if r.accepted:
                return r
        return None


class TriangleCountEstimator:
    """Constant-pass streaming ``(1 +- eps)`` triangle counting (Theorem 1.2).

    Example
    -------
    >>> from repro.generators import wheel_graph
    >>> from repro.streams import InMemoryEdgeStream
    >>> graph = wheel_graph(100)
    >>> stream = InMemoryEdgeStream.from_graph(graph)
    >>> estimator = TriangleCountEstimator(EstimatorConfig(seed=7))
    >>> result = estimator.estimate(stream, kappa=3)
    >>> abs(result.estimate - 99) / 99 < 0.5
    True
    """

    def __init__(self, config: Optional[EstimatorConfig] = None) -> None:
        self._config = config if config is not None else EstimatorConfig()

    @property
    def config(self) -> EstimatorConfig:
        """The configuration in force."""
        return self._config

    def estimate(
        self,
        stream: EdgeStream,
        kappa: int,
        _resume: Optional[ResumeState] = None,
    ) -> EstimateResult:
        """Estimate the triangle count of ``stream``.

        Parameters
        ----------
        stream:
            The input edge stream.
        kappa:
            An upper bound on the graph's degeneracy.  The paper's model
            takes this as a promise on the input class; Theorem 1.2's bound
            degrades gracefully if the supplied value over-estimates the
            true degeneracy (space grows linearly in the bound).
        _resume:
            Internal: restored snapshot state (use :func:`resume_from`).
        """
        return run_estimate_program(stream, kappa, self._config, resume=_resume).result


# ---------------------------------------------------------------------------
# the guessing loop as pure schedule helpers and as a stage program


def _guess_schedule(cfg: EstimatorConfig, upper: float) -> List[float]:
    """The geometric guess sequence the loop will walk (or the single hint)."""
    if cfg.t_hint is not None:
        return [float(cfg.t_hint)]
    max_rounds = cfg.max_rounds
    if max_rounds is None:
        max_rounds = max(1, math.ceil(math.log2(upper)) + 2)
    return [upper / (2.0 ** k) for k in range(max_rounds)]


def _pick_window_depth(
    guesses: List[float],
    round_index: int,
    max_depth: int,
    last_median: Optional[float],
) -> int:
    """How many rounds the next speculative window should fuse.

    Bounded by the configured depth and by the guesses the sequential
    loop could still run (``t_guess >= 1``), then capped by the
    *expected-waste rule*: acceptance is predictable from committed data
    alone - medians are roughly stable round to round while guesses
    halve, so the first upcoming guess whose bar the previous round's
    median already clears is where the loop is expected to terminate.
    Rounds past it would be pre-drawn only to be discarded, so the
    window never speculates beyond it (and a predicted-accepting
    *current* round runs solo).  The committed rounds are identical at
    any depth; only the sweep-sharing layout changes, so bit-identity is
    unaffected.
    """
    depth = 1
    while (
        depth < max_depth
        and round_index + depth < len(guesses)
        and guesses[round_index + depth] >= 1.0
    ):
        depth += 1
    if last_median is not None:
        for offset in range(depth):
            if last_median >= guesses[round_index + offset] / 2.0:
                return offset + 1
    return depth


@dataclass(frozen=True)
class ProgramOutcome:
    """What :func:`estimate_program` returns when it runs to completion.

    ``result`` is the estimate's :class:`EstimateResult`, its sweep
    accounting booked per window from the stages its rounds rode, so the
    numbers match a solo run even when its stages physically rode sweeps
    shared with other jobs.  ``root_state`` is the root generator's final
    ``getstate()`` (the bit-identity witness the parity tests compare).
    """

    result: EstimateResult
    root_state: tuple


def estimate_program(
    stream: EdgeStream,
    kappa: int,
    config: Optional[EstimatorConfig] = None,
    owner_prefix: str = "",
    *,
    start: Optional[ResumeState] = None,
    on_boundary: Optional[Callable[[ResumeState], None]] = None,
) -> "Generator[List[TaggedStage], Optional[BaseException], ProgramOutcome]":
    """The guessing loop as a stage program: yields, never sweeps.

    The one implementation of the loop.  It yields each pending batch of
    owner-tagged stages (one batch per tape sweep) and leaves the
    *execution* of those sweeps to whoever drives it -
    :func:`run_estimate_program` on one private scheduler, or the serving
    layer's per-tape scheduler, which merges batches from many live
    programs into shared traversals.  The driver sends each sweep's
    outcome back: ``None``, or the exception the sweep raised.  Stage
    owners are tagged ``f"{owner_prefix}{round_tag}"``, so a batch on a
    shared scheduler names the jobs riding it.  Each window books its own
    sweeps: the most stages any committed round rode are committed, the
    rest wasted (one stage per pass, so ``max(passes_used)`` over the
    committed rounds against the same over all rounds).

    Each *window* is ``depth`` guessing rounds run in lockstep
    (:func:`~repro.core.speculate.window_program`), at most the
    configured ``speculate_depth`` and exactly 1 under a ``t_hint``
    (single round) or a ``space_budget_words`` cap (a speculative round
    tripping the Markov abort must not fail a run the sequential loop
    would have finished).  The window depth is ``config``'s laid over
    the engine policy in force where the program starts
    (:func:`repro.core.engine.resolve`); chunking and threads are the
    policy of whoever sweeps its batches.

    The recovery ladder lives here, for every driver.  A transient
    failure (a sweep's, or the stats read's) is retried after the
    ``max_retries`` backoff: the window restarts from its root state,
    its yielded sweeps and passes booked as wasted, so the committed
    trajectory never depends on the attempts a round took.  Spent
    retries on a speculative window drop the rest of the run to one
    round per window; anything else propagates.  ``degradations`` are
    the active recovery context's reports.  ``start`` is a decoded
    snapshot to continue from; ``on_boundary(state)`` is called at every
    committed boundary, the start one included.
    """
    cfg = config if config is not None else EstimatorConfig()
    if kappa < 1:
        raise ParameterError(f"kappa must be >= 1, got {kappa}")
    if isinstance(stream, MmapEdgeStream) and not stream.header.canonical:
        # Passes 4 and 6 watch canonical edges only: such a tape would estimate 0.
        msg = "tape rows are not canonical (0 <= u < v); re-convert it from a validated edge list"
        raise StreamError(f"{stream.display_name}: {msg}")
    from .speculate import _owner_tags, window_program

    root = make_rng(cfg.seed)
    retry = faults_module.policy_from_env(cfg.max_retries)
    max_depth = engine.resolve(cfg).speculate_depth
    if cfg.t_hint is not None or cfg.space_budget_words is not None:
        max_depth = 1
    attempts = 0  # failed attempts since the last progress

    def build_plan(t_guess: float) -> ParameterPlan:
        return ParameterPlan.build(
            num_vertices=n,
            num_edges=m,
            kappa=kappa,
            t_guess=t_guess,
            epsilon=cfg.epsilon,
            mode=cfg.mode,
            constants=cfg.constants,
        )

    def spawn_round(round_index: int) -> List[random.Random]:
        return [
            spawn(root, f"round{round_index}/rep{rep}")
            for rep in range(cfg.repetitions)
        ]

    def recover(exc: Exception, depth: int) -> bool:
        """One ladder step after a failure; False when it must propagate."""
        nonlocal attempts, max_depth
        attempts += 1
        if faults_module.retry_transient(exc, attempts, retry):
            return True
        if depth < 2:
            return False  # no tier left to drop: the failure is the answer
        site = faults_module.site_of(exc)
        faults_module.degrade(faults_module.ACTION_SEQUENTIAL, site, attempts, exc)
        max_depth, attempts = 1, 0
        return True

    def reports() -> Tuple[FailureReport, ...]:
        recovery = faults_module.active_recovery()
        return tuple(recovery.reports) if recovery is not None else ()

    base = start if start is not None else ResumeState(
        round_index=0,
        rounds=[],
        space_words_peak=0,
        passes_total=0,
        sweeps_total=0,
        sweeps_wasted=0,
        passes_wasted=0,
        rng_state=root.getstate(),
        degradations=(),
    )
    # The boundary pins the whole loop state - above all the root
    # generator's exact state, the linchpin of bit-identity.  The guesses
    # are recomputed from (m, kappa, config), which a snapshot's config
    # hash and stream fingerprint have already pinned.
    root.setstate(base.rng_state)
    round_index = base.round_index
    rounds: List[GuessRound] = list(base.rounds)
    space_peak = base.space_words_peak
    passes_total = base.passes_total
    sweeps_total = base.sweeps_total
    sweeps_wasted = base.sweeps_wasted
    passes_wasted = base.passes_wasted
    estimate = rounds[-1].median_estimate if rounds else 0.0
    owners = [f"{owner_prefix}{tag}" for tag in _owner_tags(max_depth)]

    def boundary() -> ResumeState:
        return ResumeState(
            round_index=round_index,
            rounds=list(rounds),
            space_words_peak=space_peak,
            passes_total=passes_total,
            sweeps_total=sweeps_total,
            sweeps_wasted=sweeps_wasted,
            passes_wasted=passes_wasted,
            rng_state=root.getstate(),
            degradations=reports(),
        )

    while True:
        try:
            # The model assumes n is known a priori (Table 1 notes this is
            # the standard assumption); one statistics pass recovers an
            # upper bound.
            m = len(stream)
            n = stream.stats().num_vertices_upper if m else 0
            if m and on_boundary is not None:
                on_boundary(boundary())
            break
        except Exception as exc:
            if not recover(exc, 0):
                raise
    attempts = 0
    guesses = _guess_schedule(cfg, 2.0 * m * kappa) if m else []  # Corollary 3.2 upper bound

    def commit(t_guess: float, runs: List[SinglePassStackResult], plan: ParameterPlan) -> bool:
        """Append one committed round and apply the acceptance rule."""
        nonlocal final_plan, estimate
        med = median([run.estimate for run in runs])
        accepted = cfg.t_hint is not None or med >= t_guess / 2.0
        rounds.append(
            GuessRound(t_guess=t_guess, runs=runs, median_estimate=med, accepted=accepted)
        )
        final_plan = plan
        estimate = med
        return accepted

    final_plan = build_plan(rounds[-1].t_guess) if rounds else None
    accepted = False
    while round_index < len(guesses):
        t_guess = guesses[round_index]
        if t_guess < 1.0 and cfg.t_hint is None:
            break  # fewer than one triangle remains plausible: answer 0
        # The paper's accounting: all repetitions in parallel over six
        # shared passes; space is the ensemble total.
        depth = _pick_window_depth(
            guesses, round_index, max_depth, rounds[-1].median_estimate if rounds else None
        )
        window_guesses = guesses[round_index : round_index + depth]
        plans = [build_plan(g) for g in window_guesses]
        window_start = root.getstate()
        rng_lists = [spawn_round(round_index)]
        # Checkpoint the root generator before each speculative round's
        # spawns: if an earlier round accepts, the sequential loop would
        # never have drawn the later rounds' generators, and rewinding to
        # the checkpoint of the first discarded round keeps the root's
        # consumption bit-identical to the sequential trajectory.
        checkpoints = []
        for j in range(1, depth):
            checkpoints.append(root.getstate())
            rng_lists.append(spawn_round(round_index + j))
        meters = [SpaceMeter(budget_words=cfg.space_budget_words) for _ in range(depth)]
        window = window_program(m, plans, rng_lists, meters, owners[:depth])
        yielded = staged = 0  # the window's sweeps and passes so far
        try:
            batch = next(window)
            while True:
                yielded += 1
                staged += len(batch)
                batch = window.send((yield batch))
        except StopIteration as stop:
            results = stop.value
        except Exception as exc:
            # The attempt's sweeps were real traversals lost to the
            # failure: wasted, never committed.  The speculative rounds'
            # RNG consumption must not leak into the root's state, whether
            # the failure stands or the window restarts from its start.
            sweeps_wasted += yielded
            passes_wasted += staged
            if checkpoints:
                root.setstate(checkpoints[0])
            if not recover(exc, depth):
                raise
            root.setstate(window_start)
            continue
        finally:
            window.close()
        # Walk the window in sequential order: commit every round up
        # to (and including) the first acceptance, discard the rest.
        rode = [runs[0].passes_used for runs in results]  # one stage per pass
        committed = 0
        for j in range(depth):
            space_peak = max(space_peak, meters[j].peak_words)
            passes_total += rode[j]
            accepted = commit(window_guesses[j], results[j], plans[j])
            committed += 1
            if accepted:
                break
        if committed < depth:
            root.setstate(checkpoints[committed - 1])
        passes_wasted += sum(rode[committed:])
        # The window swept once per step of its longest round; the steps
        # a committed round rode were needed regardless.
        needed = max(rode[:committed])
        sweeps_total += needed
        sweeps_wasted += max(rode) - needed
        round_index += committed
        attempts = 0
        if accepted:
            break
        if on_boundary is not None:
            on_boundary(boundary())
    if not accepted and estimate < 1.0:
        # All guesses rejected: consistent with a (near-)triangle-free graph.
        estimate = 0.0
    return ProgramOutcome(
        result=EstimateResult(
            estimate=float(estimate),
            rounds=rounds,
            space_words_peak=space_peak,
            passes_total=passes_total,
            final_plan=final_plan,
            sweeps_total=sweeps_total,
            sweeps_wasted=sweeps_wasted,
            passes_wasted=passes_wasted,
            degradations=reports(),
        ),
        root_state=root.getstate(),
    )


def run_estimate_program(
    stream: EdgeStream,
    kappa: int,
    config: Optional[EstimatorConfig] = None,
    *,
    resume: Optional[ResumeState] = None,
) -> ProgramOutcome:
    """Drive :func:`estimate_program` to completion: the one library driver.

    Every sweep runs under ``config``'s engine settings laid over the
    policy in force, inside a recovery scope (retry policy, fault plan,
    :class:`~repro.core.faults.FailureReport` collection) that no ladder
    step outlives, on one :class:`PassScheduler`; each sweep's outcome
    goes back to the program, which retries or degrades itself.  A
    crashed sweep task never gets there: the executor retries it and
    finishes the sweep inline itself.  Every boundary goes to the
    snapshot writer when a checkpoint dir is in force, and a set
    :data:`stop_requested` stops the run there.  ``resume`` is a decoded
    snapshot to continue from (use :func:`resume_from`).
    """
    cfg = config if config is not None else EstimatorConfig()
    with engine.engine_overrides(cfg), faults_module.recovery_scope(
        policy=faults_module.policy_from_env(cfg.max_retries),
        plan=cfg.faults,
    ) as recovery:
        if resume is not None:
            recovery.reports.extend(resume.degradations)
        checkpoint_dir = snapshot_module.resolve_checkpoint_dir(cfg.checkpoint_dir)
        writer: Optional[snapshot_module.SnapshotWriter] = None

        def on_boundary(state: ResumeState) -> None:
            nonlocal writer
            if checkpoint_dir is not None and writer is None:
                # Built after the stats reads: fingerprinting a generic
                # stream is itself a sweep of it.
                writer = snapshot_module.SnapshotWriter(
                    checkpoint_dir,
                    config_digest=snapshot_module.config_hash(_config_state(cfg), kappa),
                    fingerprint=snapshot_module.stream_fingerprint(stream),
                    every=cfg.snapshot_every,
                    keep=cfg.snapshot_keep,
                )
            if writer is not None:
                writer.boundary(state.round_index, _boundary_payload(cfg, kappa, state))
            if stop_requested.is_set():
                raise KeyboardInterrupt("stop requested at a round boundary")

        scheduler = PassScheduler(stream)
        program = estimate_program(stream, kappa, cfg, start=resume, on_boundary=on_boundary)
        try:
            outcome: Optional[Exception] = None
            while True:
                batch = program.send(outcome)
                try:
                    sweep_tagged_stages(scheduler, batch)
                    outcome = None
                except Exception as exc:
                    outcome = exc
        except StopIteration as stop:
            return stop.value
        except (KeyboardInterrupt, SystemExit):
            # Process shutdown mid-round: the root generator may be
            # mid-window, so the durable state is the *retained boundary*
            # document, not the live program - flush it and re-raise.
            if writer is not None:
                writer.write_final()
            raise
        finally:
            program.close()


# ---------------------------------------------------------------------------
# snapshot serialization and resume


def _config_state(cfg: EstimatorConfig) -> Dict[str, object]:
    """The config as a JSON document, for snapshot payloads.

    ``faults`` is deliberately dropped: an injection plan is a testing
    aid whose scheduled indices were (partly) consumed by the run that
    wrote the snapshot - replaying it on resume would fire faults the
    uninterrupted run never saw.
    """
    state = {
        f.name: getattr(cfg, f.name)
        for f in dataclasses.fields(EstimatorConfig)
        if f.name != "faults"
    }
    constants = state["constants"]
    if constants is not None:
        state["constants"] = [constants.c_r, constants.c_ell, constants.c_s]
    return state


def _config_from_state(state: Dict[str, object]) -> EstimatorConfig:
    """Rebuild an :class:`EstimatorConfig` from a snapshot's document.

    A snapshot written under the removed ``"python"`` engine resumes on
    the one engine: the mode is not part of the config hash, and every
    engine produced bit-identical results.  One that stored the removed
    ``"speculate": false`` switch resumes at depth 1, the sequential loop
    it ran.
    """
    known = {f.name for f in dataclasses.fields(EstimatorConfig)}
    kwargs = {key: value for key, value in state.items() if key in known}
    if kwargs.get("engine_mode") == engine.RETIRED_MODE:
        kwargs["engine_mode"] = None
    if state.get("speculate") is False:
        kwargs["speculate_depth"] = 1
    constants = kwargs.get("constants")
    if constants is not None:
        kwargs["constants"] = PlanConstants(*constants)
    try:
        return EstimatorConfig(**kwargs)
    except (TypeError, ParameterError) as exc:
        raise SnapshotFormatError(f"snapshot config does not reconstruct: {exc}") from exc


def _round_state(round_: GuessRound) -> Dict[str, object]:
    return {
        "t_guess": round_.t_guess,
        "median_estimate": round_.median_estimate,
        "accepted": round_.accepted,
        "runs": [run.to_state() for run in round_.runs],
    }


def _round_from_state(state: Dict[str, object]) -> GuessRound:
    return GuessRound(
        t_guess=float(state["t_guess"]),
        runs=[SinglePassStackResult.from_state(s) for s in state["runs"]],
        median_estimate=float(state["median_estimate"]),
        accepted=bool(state["accepted"]),
    )


def _boundary_payload(cfg: EstimatorConfig, kappa: int, state: ResumeState) -> Dict[str, object]:
    """The snapshot document of the estimator state at one round boundary."""
    return {
        "kappa": kappa,
        "config": _config_state(cfg),
        "round_index": state.round_index,
        "rounds": [_round_state(r) for r in state.rounds],
        "accounting": {
            "space_words_peak": state.space_words_peak,
            "passes_total": state.passes_total,
            "sweeps_total": state.sweeps_total,
            "sweeps_wasted": state.sweeps_wasted,
            "passes_wasted": state.passes_wasted,
        },
        "rng": {"state": encode_state(state.rng_state)},
        "degradations": [dataclasses.asdict(rep) for rep in state.degradations],
    }


def _resume_state(payload: Dict[str, object]) -> ResumeState:
    """Decode a snapshot payload into loop state; malformed documents that
    passed the CRC (a writer bug, not disk damage) still raise the typed
    :class:`~repro.errors.SnapshotFormatError`."""
    try:
        accounting = payload.get("accounting", {})
        rng = payload["rng"]
        return ResumeState(
            round_index=int(payload["round_index"]),
            rounds=[_round_from_state(s) for s in payload.get("rounds", [])],
            space_words_peak=int(accounting.get("space_words_peak", 0)),
            passes_total=int(accounting.get("passes_total", 0)),
            sweeps_total=int(accounting.get("sweeps_total", 0)),
            sweeps_wasted=int(accounting.get("sweeps_wasted", 0)),
            passes_wasted=int(accounting.get("passes_wasted", 0)),
            rng_state=decode_state(rng["state"]),
            degradations=tuple(
                FailureReport(**report) for report in payload.get("degradations", [])
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"snapshot payload malformed: {exc!r}") from exc


def resume_from(
    source: "Union[str, snapshot_module.Snapshot]",
    stream: EdgeStream,
    config: Optional[EstimatorConfig] = None,
    overrides: Optional[Dict[str, object]] = None,
) -> EstimateResult:
    """Resume an interrupted estimate from a durable snapshot.

    ``source`` is an ``.esnap`` file, a checkpoint directory (its newest
    structurally valid snapshot is used - the rotation is the fallback
    when the newest write was torn), or an already-decoded
    :class:`~repro.core.snapshot.Snapshot`.  The run continues from the
    snapshot's round boundary and is bit-identical to one that was never
    interrupted: same estimates, same trajectory, same ``passes_total``,
    same final root-RNG state.

    Validation is two-staged and typed.  Structural damage raised while
    loading is :class:`~repro.errors.SnapshotFormatError`; a valid
    snapshot that belongs to a different run -- the resuming stream's
    content fingerprint or the config's trajectory hash disagrees with
    the header -- is the hard :class:`~repro.errors.SnapshotMismatchError`.
    Engine and robustness knobs are *outside* the hash: a run
    checkpointed at one worker count may resume at another (results are
    bit-identical at any count), and one checkpointed under the removed
    ``"python"`` engine resumes on the one engine; ``config``
    or ``overrides`` (a dict of :class:`EstimatorConfig` field
    replacements applied over the snapshot's stored config) select.

    Checkpointing continues by default: when neither the effective config
    nor the environment names a checkpoint dir, the directory the
    snapshot was loaded from is reused.
    """
    snap = snapshot_module.load_source(source)
    fingerprint = snapshot_module.stream_fingerprint(stream)
    where = snap.path or "<snapshot>"
    if fingerprint != snap.fingerprint:
        raise SnapshotMismatchError(
            f"{where}: stream fingerprint mismatch - snapshot records "
            f"{snap.fingerprint_hex[:16]}..., resuming stream hashes to "
            f"{fingerprint.hex()[:16]}...; refusing to resume against a "
            "different input"
        )
    payload = snap.payload
    kappa = int(payload.get("kappa", 0))
    if config is None:
        config = _config_from_state(payload.get("config") or {})
    if overrides:
        try:
            config = dataclasses.replace(config, **overrides)
        except TypeError as exc:
            raise ParameterError(f"unknown resume override: {exc}") from exc
    if (
        snapshot_module.resolve_checkpoint_dir(config.checkpoint_dir) is None
        and snap.path is not None
    ):
        config = dataclasses.replace(
            config, checkpoint_dir=os.path.dirname(os.path.abspath(snap.path))
        )
    if snapshot_module.config_hash(_config_state(config), kappa) != snap.config_hash:
        raise SnapshotMismatchError(
            f"{where}: config hash mismatch - the resuming configuration's "
            "trajectory-relevant fields (seed, epsilon, repetitions, mode, "
            "constants, hint, budgets) or kappa differ from "
            "the run that wrote this snapshot"
        )
    state = _resume_state(payload)
    return TriangleCountEstimator(config).estimate(stream, kappa, _resume=state)
