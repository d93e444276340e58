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
generator that yields the stage batches each tape sweep must serve and
reports every committed round boundary.  Everything else drives it.
:meth:`TriangleCountEstimator.estimate` serves the batches on private
per-window schedulers and turns retry, degradation and crash-resume into
one primitive - restart the program from a committed boundary
(:class:`ResumeState`); :func:`run_estimate_program` serves them on one
scheduler; the serving layer merges the batches of many programs into
shared sweeps.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple, Union

from ..errors import (
    ParameterError,
    SnapshotFormatError,
    SnapshotMismatchError,
)
from ..rng import decode_state, encode_state, make_rng, spawn
from ..sampling.combine import median
from ..streams.base import EdgeStream
from ..streams.multipass import PassScheduler
from ..streams.space import SpaceMeter
from . import engine
from . import faults as faults_module
from . import snapshot as snapshot_module
from .engine import engine_overrides
from .estimator import PASS_BUDGET_PER_ROUND, SinglePassStackResult
from .faults import FailureReport, RecoveryContext
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
    share_passes:
        When ``True`` (default), each round's repetitions run *in parallel*
        over six shared passes - the paper's accounting (Theorem 5.1's
        constant passes cover the whole ensemble, and the reported space is
        the ensemble total).  ``False`` runs repetitions sequentially (6
        passes each, per-run space).
    engine_mode:
        Optional engine mode name: ``"auto"`` | ``"chunked"`` |
        ``"sharded"``, synonyms of the one engine (see
        :mod:`repro.core.engine`).  The removed ``"python"`` engine is
        rejected with :class:`~repro.errors.ParameterError`.
    chunk_size:
        Optional edges-per-chunk override for every sweep.
    workers:
        Optional thread count per sweep (``1`` = serial).  ``None`` keeps
        the global setting (default: all cores).
    fuse:
        Optional override of the fused sweep engine: each round's closure
        watch (pass 4) and assignment sampling (pass 5) share one physical
        tape sweep (:func:`repro.core.executor.run_plans`).  Estimates are
        seed-for-seed identical with fusing on or off; fusing trades a
        speculative incident buffer (extra space) for strictly fewer
        stream sweeps on rounds that find candidate triangles (a round
        whose wedges all stay open ties - unfused execution skips the
        assignment passes there).  ``None`` keeps the global
        ``REPRO_FUSE`` policy (off by default).
    speculate:
        Optional override of speculative round fusion: the guessing loop
        runs round ``i`` together with up to ``speculate_depth - 1``
        pre-drawn later rounds, each pass-``k`` stage of every live round
        served by one shared tape sweep; the prefix up to the first
        acceptance is committed and everything after it discarded
        (:mod:`repro.core.speculate`).  Estimates, the rounds trajectory,
        and the logical-pass totals are bit-identical either way; a
        ``k``-deep window finishes multi-round estimates in ~``1/k`` of
        the committed sweeps, while an acceptance books the
        speculation-only sweeps as :attr:`EstimateResult.sweeps_wasted`.
        ``None`` keeps the global ``REPRO_SPECULATE`` policy (on by
        default; ``False`` runs the sequential loop, one round per
        window).  Speculation disengages - falling back to the
        sequential loop - whenever a ``t_hint`` (single round),
        ``share_passes=False``, or a ``space_budget_words`` cap is in
        force (a speculative round tripping the Markov abort must not fail
        a run the sequential loop would have finished).
    speculate_depth:
        Optional override of the maximum rounds per speculative window
        (``>= 2``; ``2`` reproduces the original round-pair driver
        bit-for-bit).  The driver additionally caps each window's depth
        by the *expected-waste rule*: the previous round's median
        predicts which upcoming guess will accept, and the window never
        speculates past it (a predicted-accepting round runs solo).
        ``None`` keeps the global ``REPRO_SPECULATE_DEPTH`` policy
        (default 4).  An explicit depth implies ``speculate=True`` unless
        ``speculate=False`` is given explicitly - asking for a depth is
        asking to speculate.
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
    share_passes: bool = True
    engine_mode: Optional[str] = None
    chunk_size: Optional[int] = None
    workers: Optional[int] = None
    fuse: Optional[bool] = None
    speculate: Optional[bool] = None
    speculate_depth: Optional[int] = None
    max_retries: Optional[int] = None
    faults: "str | object | None" = None
    checkpoint_dir: Optional[str] = None
    snapshot_every: Optional[int] = None
    snapshot_keep: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < 1:
            raise ParameterError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.repetitions < 1:
            raise ParameterError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.workers is not None and self.workers < 1:
            raise ParameterError(f"workers must be >= 1, got {self.workers}")
        engine._check_depth(self.speculate_depth)  # one validator, one message
        if self.engine_mode is not None:
            engine.check_mode(self.engine_mode)
        if self.max_retries is not None and self.max_retries < 0:
            raise ParameterError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.faults is not None and not isinstance(self.faults, faults_module.FaultPlan):
            faults_module.FaultPlan.parse(str(self.faults))  # validate eagerly
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ParameterError(f"snapshot_every must be >= 1, got {self.snapshot_every}")
        if self.snapshot_keep is not None and self.snapshot_keep < 1:
            raise ParameterError(f"snapshot_keep must be >= 1, got {self.snapshot_keep}")


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
    is the root generator's ``getstate()`` at the boundary and
    ``rng_stack`` the (normally empty between rounds) speculative
    checkpoint stack; ``degradations`` are the recovery ladder's recorded
    reports up to the snapshot.  ``num_edges`` / ``num_vertices`` are the
    stream statistics read before the first round: a boundary the loop
    reported carries them so a restart need not re-read the stream, while
    a decoded snapshot leaves them ``None`` (the resume re-reads them).
    """

    round_index: int
    rounds: List[GuessRound]
    space_words_peak: int
    passes_total: int
    sweeps_total: int
    sweeps_wasted: int
    passes_wasted: int
    rng_state: tuple
    rng_stack: Tuple[tuple, ...]
    degradations: Tuple[FailureReport, ...]
    num_edges: Optional[int] = None
    num_vertices: Optional[int] = None


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
    ``passes_total`` unfused, strictly smaller when the fused sweep engine
    grouped passes within a round or the speculative driver fused round
    windows.  ``sweeps_wasted`` counts the additional physical sweeps
    that served *only* discarded speculation (pre-drawn rounds thrown
    away because an earlier round of their window accepted): the tape
    traversals actually performed are ``sweeps_total + sweeps_wasted``,
    and ``sweeps_wasted`` is always 0 under the sequential driver.
    ``passes_wasted`` likewise counts the discarded rounds' logical
    passes - the speculative work executed inside shared sweeps and then
    thrown away.  An accepted round's speculative partners always overlap
    it stage for stage (a round that finishes early found no candidates
    and cannot accept), so discards typically show ``passes_wasted > 0``
    with ``sweeps_wasted == 0``: speculation wastes in-sweep compute, not
    extra tape traversals.  ``degradations`` lists every tier the recovery
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
        cfg = self._config
        # Engine selection travels with the config: every pass of every
        # round runs under the requested mode / chunk size / worker count
        # (results are seed-for-seed identical across all of them).  An
        # explicit speculate_depth with speculate unset implies
        # speculation - the implication lives in engine._apply, so it
        # holds identically for config, harness, CLI, and direct
        # set_engine/engine_overrides callers.
        with engine_overrides(
            cfg.engine_mode,
            cfg.chunk_size,
            cfg.workers,
            cfg.fuse,
            cfg.speculate,
            cfg.speculate_depth,
        ):
            # The recovery scope installs the retry policy, arms the fault
            # plan, and collects FailureReports; no ladder step outlives it
            # (the serial tier is unwound by engine_overrides above; the
            # sequential tier only lives in the restarted program's config).
            with faults_module.recovery_scope(
                policy=faults_module.policy_from_env(cfg.max_retries),
                plan=cfg.faults,
            ) as recovery:
                return self._estimate(stream, kappa, recovery, _resume)

    def _estimate(
        self,
        stream: EdgeStream,
        kappa: int,
        recovery: RecoveryContext,
        resume: Optional[ResumeState],
    ) -> EstimateResult:
        """Drive :func:`estimate_program` on private sweeps, restarting it
        from its last committed round boundary after a transient failure.

        Each window the program opens gets a fresh :class:`PassScheduler`
        budgeted at six passes per round.  A failure books the aborted
        attempt's sweeps and passes as wasted and restarts the program
        from the last boundary it reported - the root generator rewound to
        the boundary state, so a retry re-draws bit-identical per-rep
        generators and the committed trajectory never depends on how many
        attempts a round took.  Retries back off under the
        :class:`~repro.core.faults.RetryPolicy`; once they run out the
        ladder (:func:`~repro.core.faults.pick_step`) drops one tier and
        the restarted program picks up the new engine policy.  The stream
        statistics reads before the first round run inside the program, so
        they recover through the same loop.
        """
        cfg = self._config
        root = make_rng(cfg.seed)
        if resume is not None:
            recovery.reports.extend(resume.degradations)
        checkpoint_dir = snapshot_module.resolve_checkpoint_dir(cfg.checkpoint_dir)
        writer: Optional[snapshot_module.SnapshotWriter] = None
        committed: Optional[ResumeState] = None  # the last boundary reported
        schedulers: List[PassScheduler] = []  # the windows since that boundary
        depth = 0  # the depth of the window in flight
        attempts = 0

        def on_window(window_depth: int) -> None:
            nonlocal depth
            depth = window_depth
            schedulers.append(
                PassScheduler(stream, max_passes=PASS_BUDGET_PER_ROUND * window_depth)
            )

        def on_boundary(state: ResumeState) -> None:
            nonlocal committed, writer, attempts
            schedulers.clear()
            # A restart re-reports the boundary it started from; that one
            # is neither progress nor a new snapshot.
            if committed is None or state.round_index != committed.round_index:
                attempts = 0
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
                    writer.boundary(
                        state.round_index,
                        _boundary_payload(cfg, kappa, state, recovery.reports),
                    )
            committed = state
            if stop_requested.is_set():
                raise KeyboardInterrupt("stop requested at a round boundary")

        start = resume
        try:
            while True:
                program = estimate_program(
                    stream,
                    kappa,
                    # The ladder's sequential step: restart without speculation.
                    dataclasses.replace(cfg, speculate=False)
                    if recovery.speculation_degraded
                    else cfg,
                    start=start,
                    root=root,
                    on_window=on_window,
                    on_boundary=on_boundary,
                )
                try:
                    outcome = _drive(
                        program, lambda batch: sweep_tagged_stages(schedulers[-1], batch)
                    )
                except Exception as exc:
                    if not faults_module.is_transient(exc):
                        raise
                    attempts += 1
                    if attempts < recovery.policy.max_attempts:
                        delay = recovery.policy.backoff_delay(attempts)
                        if delay > 0:
                            time.sleep(delay)
                    else:
                        step = faults_module.pick_step(exc, depth, recovery)
                        if step is None:
                            raise  # no tier left to drop: the failure is the answer
                        faults_module.degrade(step, faults_module.site_of(exc), attempts, exc)
                        attempts = 0
                    start = committed if committed is not None else resume
                    if start is not None:
                        # The aborted attempt's sweeps were real traversals
                        # lost to the failure: wasted, never committed.
                        start = dataclasses.replace(
                            start,
                            sweeps_wasted=start.sweeps_wasted
                            + sum(s.sweeps_used for s in schedulers),
                            passes_wasted=start.passes_wasted
                            + sum(s.passes_used for s in schedulers),
                        )
                    schedulers.clear()
                    depth = 0
                    continue
                return dataclasses.replace(
                    outcome.result, degradations=tuple(recovery.reports)
                )
        except (KeyboardInterrupt, SystemExit):
            # Process shutdown mid-round: the root generator may be
            # mid-window, so the durable state is the *retained boundary*
            # document, not the live program - flush it and re-raise.
            if writer is not None:
                writer.write_final()
            raise


# ---------------------------------------------------------------------------
# the guessing loop as pure schedule helpers and as a stage program


def _sweep_policy(cfg: EstimatorConfig) -> Tuple[bool, bool, int]:
    """``(fuse, speculate, speculate_depth)``: the config's, else the ambient policy.

    Read once when a program starts, so a program driven outside the solo
    driver's ``engine_overrides`` scope (a served job, or
    :func:`run_estimate_program`) still honours its own config.  As in
    :func:`repro.core.engine.engine_overrides`, an explicit depth with
    ``speculate`` unset implies speculation.
    """
    fuse = cfg.fuse if cfg.fuse is not None else engine.fuse()
    if cfg.speculate is not None:
        speculate = cfg.speculate
    else:
        speculate = cfg.speculate_depth is not None or engine.speculate()
    depth = cfg.speculate_depth if cfg.speculate_depth is not None else engine.speculate_depth()
    return fuse, speculate, depth


def _guess_schedule(cfg: EstimatorConfig, upper: float) -> List[float]:
    """The geometric guess sequence the loop will walk (or the single hint)."""
    if cfg.t_hint is not None:
        if cfg.t_hint <= 0:
            raise ParameterError(f"t_hint must be positive, got {cfg.t_hint}")
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
    accounting booked against *private* ledgers so the numbers match a
    solo run even when its stages physically rode sweeps shared with
    other jobs.  ``root_state`` is the root generator's final
    ``getstate()`` (the bit-identity witness the parity tests compare).
    ``discarded_owners`` lists the owner tags of discarded speculation;
    an entity driving many programs on one shared scheduler applies them
    via ``discard_owner`` so the *physical* committed/wasted split stays
    truthful too.
    """

    result: EstimateResult
    root_state: tuple
    discarded_owners: Tuple[str, ...] = ()


def estimate_program(
    stream: EdgeStream,
    kappa: int,
    config: Optional[EstimatorConfig] = None,
    owner_prefix: str = "",
    *,
    start: Optional[ResumeState] = None,
    root: Optional[random.Random] = None,
    on_window: Optional[Callable[[int], None]] = None,
    on_boundary: Optional[Callable[[ResumeState], None]] = None,
) -> "Generator[List[TaggedStage], None, ProgramOutcome]":
    """The guessing loop as a stage program: yields, never sweeps.

    The one implementation of the loop.  It yields each pending batch of
    owner-tagged stages (one batch per tape sweep) and leaves the
    *execution* of those sweeps to whoever drives it -
    :meth:`TriangleCountEstimator.estimate` with private per-window
    schedulers, :func:`run_estimate_program` with one scheduler, or the
    serving layer's per-tape scheduler, which merges batches from many
    live programs into shared traversals.  Stage owners are tagged
    ``f"{owner_prefix}w{window}.{round_tag}"``, so on a shared scheduler
    ``owner_report(owner_prefix)`` recovers this job's slice and each
    discard names one window's round unambiguously.

    Each *window* is ``depth`` guessing rounds run in lockstep
    (:func:`~repro.core.speculate.window_program`): ``depth > 1`` only
    under speculation, which disengages for a ``t_hint`` (single round),
    ``share_passes=False``, or a ``space_budget_words`` cap (a
    speculative round tripping the Markov abort must not fail a run the
    sequential loop would have finished).  With ``share_passes=False``
    every repetition is a window of its own: one ``k = 1`` round with its
    own meter and its own sweeps.  Fusion and speculation (on/off and
    depth) come from ``config``, falling back to the ambient engine policy;
    chunking is the ambient policy.  All are read when the program starts.

    Restart contract: ``start`` is a committed round boundary to continue
    from (a decoded snapshot, or a state this program reported) and
    ``root`` the root generator to continue on (built by
    :func:`make_rng` when omitted); the program restores the boundary's
    root state itself.  ``on_window(depth)`` is called as each window
    opens and ``on_boundary(state)`` at every committed boundary,
    including the start one - a driver that restarts from the last
    reported state reproduces the uninterrupted run bit for bit.  A
    failed sweep propagates to (and through) the driving entity, which
    must ``close()`` the generator so round programs clean up.
    """
    cfg = config if config is not None else EstimatorConfig()
    if kappa < 1:
        raise ParameterError(f"kappa must be >= 1, got {kappa}")
    from ..streams.multipass import OwnerLedger
    from .speculate import _owner_tags, window_program

    if root is None:
        root = make_rng(cfg.seed)
    if start is not None and start.num_vertices is not None:
        m, n = start.num_edges, start.num_vertices
    else:
        # The model assumes n is known a priori (Table 1 notes this is the
        # standard assumption); one statistics pass recovers an upper bound.
        m = len(stream)
        n = stream.stats().num_vertices_upper if m else 0
    degradations = start.degradations if start is not None else ()
    if m == 0:
        return ProgramOutcome(
            result=EstimateResult(
                estimate=0.0,
                rounds=[],
                space_words_peak=0,
                passes_total=0,
                final_plan=None,
                degradations=degradations,
            ),
            root_state=root.getstate(),
        )
    fuse, speculate, max_depth = _sweep_policy(cfg)
    speculative = (
        speculate
        and cfg.share_passes
        and cfg.t_hint is None
        and cfg.space_budget_words is None
    )
    guesses = _guess_schedule(cfg, 2.0 * m * kappa)  # Corollary 3.2 upper bound

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

    base = start if start is not None else ResumeState(
        round_index=0,
        rounds=[],
        space_words_peak=0,
        passes_total=0,
        sweeps_total=0,
        sweeps_wasted=0,
        passes_wasted=0,
        rng_state=root.getstate(),
        rng_stack=(),
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
    final_plan = build_plan(rounds[-1].t_guess) if rounds else None
    estimate = rounds[-1].median_estimate if rounds else 0.0
    discarded: List[str] = []
    window_seq = 0

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
            rng_stack=(),
            degradations=degradations,
            num_edges=m,
            num_vertices=n,
        )

    def window(plans, rng_lists, meters):
        """Yield one window's batches; return its results, owners, ledger."""
        nonlocal window_seq
        owners = [f"{owner_prefix}w{window_seq}.{tag}" for tag in _owner_tags(len(plans))]
        window_seq += 1
        if on_window is not None:
            on_window(len(plans))
        # A private ledger mirrors a solo scheduler's sweep accounting: one
        # entry per yielded batch (= one solo sweep), so the result's sweep
        # totals match a solo run no matter how the driving entity
        # physically served the batches.
        ledger = OwnerLedger()
        program = window_program(m, plans, rng_lists, meters, owners, fuse)
        try:
            batch = next(program)
            while True:
                ledger.record([owner for owner, _ in batch])
                yield batch
                batch = program.send(None)
        except StopIteration as stop:
            return stop.value, owners, ledger
        finally:
            program.close()

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

    if on_boundary is not None:
        on_boundary(boundary())
    accepted = False
    while round_index < len(guesses):
        t_guess = guesses[round_index]
        if t_guess < 1.0 and cfg.t_hint is None:
            break  # fewer than one triangle remains plausible: answer 0
        if not cfg.share_passes:
            # Repetitions one after another, six passes and a meter each.
            plan = build_plan(t_guess)
            runs: List[SinglePassStackResult] = []
            for rep in range(cfg.repetitions):
                rng = spawn(root, f"round{round_index}/rep{rep}")
                meter = SpaceMeter(budget_words=cfg.space_budget_words)
                results, _, _ = yield from window([plan], [[rng]], [meter])
                runs.append(results[0][0])
            for run in runs:
                space_peak = max(space_peak, run.space_words_peak)
                passes_total += run.passes_used
                sweeps_total += run.sweeps_used
            accepted = commit(t_guess, runs, plan)
            round_index += 1
        else:
            # The paper's accounting: all repetitions in parallel over six
            # shared passes; space is the ensemble total.
            depth = (
                _pick_window_depth(
                    guesses,
                    round_index,
                    max_depth,
                    rounds[-1].median_estimate if rounds else None,
                )
                if speculative
                else 1
            )
            window_guesses = guesses[round_index : round_index + depth]
            plans = [build_plan(g) for g in window_guesses]
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
            try:
                results, owners, ledger = yield from window(plans, rng_lists, meters)
            except BaseException:
                # A failed shared sweep aborts the whole window; the
                # speculative rounds' RNG consumption must not leak into the
                # root generator's state.
                if checkpoints:
                    root.setstate(checkpoints[0])
                raise
            # Walk the window in sequential order: commit every round up
            # to (and including) the first acceptance, discard the rest.
            committed = 0
            for j in range(depth):
                space_peak = max(space_peak, meters[j].peak_words)
                passes_total += results[j][0].passes_used
                accepted = commit(window_guesses[j], results[j], plans[j])
                committed += 1
                if accepted:
                    break
            if committed < depth:
                for owner in owners[committed:]:
                    ledger.discard(owner)
                    discarded.append(owner)
                root.setstate(checkpoints[committed - 1])
                for j in range(committed, depth):
                    passes_wasted += results[j][0].passes_used
            sweeps_total += ledger.sweeps_committed
            sweeps_wasted += ledger.sweeps_wasted
            round_index += committed
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
            degradations=degradations,
        ),
        root_state=root.getstate(),
        discarded_owners=tuple(discarded),
    )


def _drive(
    program: "Generator[List[TaggedStage], None, ProgramOutcome]",
    sweep: Callable[[List[TaggedStage]], object],
) -> ProgramOutcome:
    """Serve every batch ``program`` yields with ``sweep``; always close it."""
    try:
        batch = next(program)
        while True:
            sweep(batch)
            batch = program.send(None)
    except StopIteration as stop:
        return stop.value
    finally:
        program.close()


def run_estimate_program(
    stream: EdgeStream,
    kappa: int,
    config: Optional[EstimatorConfig] = None,
    scheduler: Optional[PassScheduler] = None,
) -> ProgramOutcome:
    """Drive :func:`estimate_program` to completion on its own sweeps.

    Each yielded batch runs as a private fused sweep on ``scheduler`` (a
    fresh unbudgeted one by default), and discarded speculation is booked
    on it so its physical committed/wasted split agrees with the returned
    result.  No retry or snapshots: a failure propagates.
    """
    if scheduler is None:
        scheduler = PassScheduler(stream)
    outcome = _drive(
        estimate_program(stream, kappa, config),
        lambda batch: sweep_tagged_stages(scheduler, batch),
    )
    for owner in outcome.discarded_owners:
        scheduler.discard_owner(owner)
    return outcome


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
    engine produced bit-identical results.
    """
    known = {f.name for f in dataclasses.fields(EstimatorConfig)}
    kwargs = {key: value for key, value in state.items() if key in known}
    if kwargs.get("engine_mode") == engine.RETIRED_MODE:
        kwargs["engine_mode"] = None
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


def _boundary_payload(
    cfg: EstimatorConfig,
    kappa: int,
    state: ResumeState,
    degradations: List[FailureReport],
) -> Dict[str, object]:
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
        # Between rounds the speculative checkpoint stack is always empty
        # (windows rewind or commit before the boundary); the format still
        # carries it for the dynamic-stream roadmap.
        "rng": {"state": encode_state(state.rng_state), "stack": []},
        "degradations": [dataclasses.asdict(rep) for rep in degradations],
        # Round-boundary state holds no live reservoirs (each round
        # rebuilds its own); the slot is the extension point for mid-pass
        # checkpoints (see sampling.reservoir.state_dict).
        "reservoirs": {},
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
            rng_stack=tuple(decode_state(s) for s in rng.get("stack", [])),
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
            "constants, hint, budgets, pass sharing) or kappa differ from "
            "the run that wrote this snapshot"
        )
    state = _resume_state(payload)
    return TriangleCountEstimator(config).estimate(stream, kappa, _resume=state)
