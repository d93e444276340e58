"""Round stages: every estimator pass as a (request, finish) pair.

A *stage* is one tape sweep a round is waiting on, held in executable
form instead of being run inline against a scheduler: the one
:class:`~repro.core.executor.PassPlan` that
:func:`~repro.core.executor.run_plans` drives through a sweep, plus a
``finish()`` that reads the result once that sweep has executed.

Separating *what a pass needs from the tape* (the stage) from *when the
tape is traversed* (the sweep) is what lets independent rounds compose:
:func:`~repro.core.parallel.drive_round` hands each of one round's stages
to :func:`sweep_stages` as its own sweep, while the k-deep speculative
driver (:mod:`repro.core.speculate`) hands it the same-numbered stages of
any number of rounds, which it serves with a **single** shared
traversal.  Each plan still receives exactly the partials it would have
received alone (the executor's per-plan partial streams and early
stops), so results are bit-identical whether a stage's sweep was private
or shared.  The shared traversal also shares the
membership probes: the plans of one key space probe each block once,
against the union of their keys (see :mod:`repro.core.kernels`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from ..streams.multipass import PassScheduler

if TYPE_CHECKING:
    from ..streams.space import SpaceMeter


class RoundStage:
    """One tape sweep a round is waiting on, in executable form.

    ``plan`` is the pass plan the sweep drives: one logical pass against
    the scheduler budget.  ``finish()`` is only valid after the stage's
    sweep has run.
    """

    __slots__ = ("plan", "_finish")

    def __init__(self, *, plan, finish=None):
        self.plan = plan
        self._finish = finish

    def finish(self):
        """The stage result (valid only after its sweep has executed)."""
        return self._finish() if self._finish is not None else None


#: Minimum table bytes per tracked key of the kernels' membership
#: prefilter (:class:`~repro.core.kernels.KeySet`): 8 bytes per key, four
#: 2-byte slots.
PREFILTER_SLOTS_PER_KEY = 8


def prefilter_bits(num_keys: int) -> int:
    """log2 of the prefilter table's bytes for ``num_keys`` keys (>= 8 per key)."""
    return max(3, (PREFILTER_SLOTS_PER_KEY * num_keys - 1).bit_length())


def charge_prefilter(meter: "SpaceMeter", num_keys: int) -> None:
    """Charge a pass's membership prefilter: one word per 8 table bytes.

    8 bytes per key: four 2-byte slots.  An empty key set charges nothing:
    its kernels return before probing.
    """
    if num_keys:
        meter.allocate((1 << prefilter_bits(num_keys)) // 8, "kernel-prefilter")


def sweep_stages(scheduler: PassScheduler, stages: List[RoundStage]) -> None:
    """Execute the sweeps of ``stages`` as **one** physical tape traversal.

    Each stage charges one logical pass.  Whether the traversal was
    committed or wasted work is booked by the caller that served the
    batch (:func:`repro.core.driver.estimate_program`'s windows, the
    serving layer's per-job counts), never by the scheduler.
    """
    from .executor import run_plans

    run_plans(scheduler, [stage.plan for stage in stages], results=False)


#: One owner-tagged unit of sweep demand: ``(owner, stage)``.  Stage
#: programs (:func:`repro.core.speculate.window_program`,
#: :func:`repro.core.driver.estimate_program`) yield lists of these; the
#: entity driving the programs decides which batches share a traversal.
TaggedStage = Tuple[str, RoundStage]


def sweep_tagged_stages(scheduler: PassScheduler, tagged: List[TaggedStage]) -> None:
    """Serve a batch of owner-tagged stages in one fused sweep.

    Batches merged across independent jobs ride it together.  An empty
    batch sweeps nothing.
    """
    if tagged:
        sweep_stages(scheduler, [stage for _, stage in tagged])
