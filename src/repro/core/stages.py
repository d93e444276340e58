"""Round stages: every estimator pass as a (request, finish) pair.

A *stage* is one tape sweep a round is waiting on, held in executable
form instead of being run inline against a scheduler.  On the chunked
engines a stage carries the :class:`~repro.core.executor.PassPlan` set
that :func:`~repro.core.executor.run_plans` drives through one sweep; on
the pure-Python engine it carries a per-edge :class:`EdgeFold` instead.
Either way the stage's ``finish()`` reads the result once its sweep has
executed.

Separating *what a pass needs from the tape* (the stage) from *when the
tape is traversed* (the sweep) is what lets independent rounds compose:
:func:`execute_stage` runs one round's stage as its own sweep - exactly
the pre-stage behaviour of the sequential runners - while the k-deep
speculative driver (:mod:`repro.core.speculate`) hands the same-numbered
stages of any number of rounds to :func:`sweep_stages`, which serves them
with a **single** shared traversal.  Each stage still receives exactly the fold it would
have received alone (plans via the executor's per-plan partial streams,
folds via :func:`drive_folds`'s per-fold early-abandon), so results are
bit-identical whether a stage's sweep was private or shared.
On the chunked engines the shared traversal also shares the membership
probes: the plans of one key space probe each block once, against the
union of their keys (see :mod:`repro.core.kernels`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..streams.multipass import PassScheduler
from ..types import Vertex
from . import engine

if TYPE_CHECKING:
    from ..streams.space import SpaceMeter


class RoundStage:
    """One tape sweep a round is waiting on, in executable form.

    Exactly one of ``plans`` (chunked engines) or ``fold`` (Python engine)
    is set.  ``passes`` is the logical-pass charge against the scheduler
    budget (defaults to ``len(plans)``; the fused pass-4/5 Python fold
    charges 2 for its single fold).  ``finish()`` is only valid after the
    stage's sweep has run.
    """

    __slots__ = ("plans", "fold", "passes", "_finish")

    def __init__(self, *, plans=None, fold=None, passes: Optional[int] = None, finish=None):
        self.plans = plans
        self.fold = fold
        self.passes = passes if passes is not None else (len(plans) if plans else 1)
        self._finish = finish

    def finish(self):
        """The stage result (valid only after its sweep has executed)."""
        return self._finish() if self._finish is not None else None


#: Minimum presence-table slots per tracked key of the chunked kernels'
#: membership prefilter (:class:`~repro.core.kernels.KeySet`).
PREFILTER_SLOTS_PER_KEY = 8


def prefilter_bits(num_keys: int) -> int:
    """log2 of the presence-table size for ``num_keys`` keys (>= 8 slots)."""
    return max(3, (PREFILTER_SLOTS_PER_KEY * num_keys - 1).bit_length())


def charge_prefilter(meter: "SpaceMeter", num_keys: int) -> None:
    """Charge a pass's membership prefilter: one word per 8 one-byte slots.

    Charged on every engine - the Python path's dict lookups stand in for
    the same index - so space accounting stays engine-independent.  An
    empty key set charges nothing: its kernels return before probing.
    """
    if num_keys:
        meter.allocate((1 << prefilter_bits(num_keys)) // 8, "kernel-prefilter")


class EdgeFold:
    """Per-edge fold protocol for the pure-Python stage path.

    ``edge(u, v)`` folds one tape edge; ``done()`` declares the rest of
    the tape dead (only consulted when :attr:`can_finish_early` is set -
    the sweep driver skips the per-edge check otherwise, mirroring the
    reference loops that scan the full tape).
    """

    can_finish_early = False

    def edge(self, u: Vertex, v: Vertex) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def done(self) -> bool:
        return False


class CallbackFold(EdgeFold):
    """Generic fold: replay every tape edge to a per-edge callback.

    The pure-Python mirror of :class:`~repro.core.kernels.IncidentEdgePlan`
    without the pre-filter: the callback ignores untracked endpoints, so
    feeding it the whole tape is the reference behaviour (and what the
    Python engine's plain pass loops always did).
    """

    __slots__ = ("_visit",)

    def __init__(self, visit) -> None:
        self._visit = visit

    def edge(self, u: Vertex, v: Vertex) -> None:
        self._visit(u, v)


def drive_folds(pass_iter, folds: List[EdgeFold]) -> None:
    """Feed one edge sweep to every fold, honoring early-finish hints.

    Each fold receives exactly the edge sequence it would have received
    from a dedicated sweep (a finished fold stops receiving edges, exactly
    like an abandoned pass); the sweep itself is abandoned once every fold
    is done.
    """
    active = [fold for fold in folds if not fold.done()]
    try:
        if not any(fold.can_finish_early for fold in active):
            for u, v in pass_iter:
                for fold in active:
                    fold.edge(u, v)
            return
        for u, v in pass_iter:
            finished = False
            for fold in active:
                fold.edge(u, v)
                finished = finished or (fold.can_finish_early and fold.done())
            if finished:
                active = [fold for fold in active if not fold.done()]
                if not active:
                    break  # every fold served: the rest of the sweep is dead tape
    finally:
        pass_iter.close()


def sweep_stages(
    scheduler: PassScheduler,
    stages: List[RoundStage],
    owners: Optional[List[str]] = None,
) -> None:
    """Execute the sweeps of ``stages`` as **one** physical tape traversal.

    All stages must be of one kind (all plan-backed or all fold-backed -
    guaranteed when they come from rounds running under the same engine);
    the logical-pass charge is the sum of the stages' charges, and the
    sweep is tagged with ``owners`` for the scheduler's committed/wasted
    accounting (the speculative window driver tags each shared sweep with
    the rounds whose stages rode it; see
    :meth:`~repro.streams.multipass.PassScheduler.discard_owner`).
    """
    passes = sum(stage.passes for stage in stages)
    if all(stage.plans is not None for stage in stages):
        from .executor import run_plans

        run_plans(
            scheduler,
            [plan for stage in stages for plan in stage.plans],
            chunk_size=engine.chunk_size(),
            passes=passes,
            owners=owners,
            results=False,
        )
        return
    if any(stage.plans is not None for stage in stages):
        raise ValueError("cannot fuse plan-backed and fold-backed stages in one sweep")
    drive_folds(
        scheduler.new_fused_pass(passes, owners=owners),
        [stage.fold for stage in stages],
    )


#: One owner-tagged unit of sweep demand: ``(owner, stage)``.  Stage
#: programs (:func:`repro.core.speculate.window_program`,
#: :func:`repro.core.driver.estimate_program`) yield lists of these; the
#: entity driving the programs decides which batches share a traversal.
TaggedStage = Tuple[str, RoundStage]


def sweep_tagged_stages(scheduler: PassScheduler, tagged: List[TaggedStage]) -> int:
    """Serve a batch of owner-tagged stages in the fewest possible sweeps.

    Unlike :func:`sweep_stages`, the batch may mix plan-backed and
    fold-backed stages (batches merged across independent jobs need not
    come from the same engine decision - chunked engines fall back to
    folds per-stream capability).  Stages are grouped by backing kind and
    each group rides one fused sweep tagged with its stages' owners.
    Returns the number of physical sweeps performed (1, or 2 for a mixed
    batch).
    """
    plan_group = [(owner, stage) for owner, stage in tagged if stage.plans is not None]
    fold_group = [(owner, stage) for owner, stage in tagged if stage.plans is None]
    sweeps = 0
    for group in (plan_group, fold_group):
        if group:
            sweep_stages(
                scheduler,
                [stage for _, stage in group],
                owners=[owner for owner, _ in group],
            )
            sweeps += 1
    return sweeps


def execute_stage(scheduler: PassScheduler, stage: RoundStage):
    """Run one stage as its own sweep and return its result."""
    sweep_stages(scheduler, [stage])
    return stage.finish()
