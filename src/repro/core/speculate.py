"""Speculative round fusion: ``k`` guessing rounds, one set of sweeps.

The driver's geometric guessing loop runs rounds that are **mutually
independent**: round ``i+j``'s plan depends only on its (pre-determined)
guess ``T/2^(i+j)`` and its RNGs derive from the root generator in a fixed
label order, never on any earlier round's outcome.  The only sequential
thing about the loop is its *termination test* - whether a round's median
accepts.  That makes the loop speculable to any depth: pre-draw rounds
``i .. i+k-1`` from checkpointed root-RNG states, drive all ``k`` round
programs in lockstep with each pass-``j`` stage of every live round served
by **one** shared tape sweep, and decide afterwards:

* every round up to (and including) the first acceptance is exactly a
  round the sequential loop would have run - **commit the prefix**.  A
  fully rejected window commits whole and the loop speculates the next
  window, so multi-round estimates consume ~``1/k`` of the physical
  sweeps the sequential loop would have;
* everything *after* the first acceptance is work the sequential loop
  would never have done - **discard the suffix**.  Its results and meters
  are dropped, the root generator is rewound past its speculative spawns
  (to the checkpoint taken before the first discarded round's spawns),
  and the sweeps that served *only* discarded rounds are booked as
  **wasted**.  Every stage is one sweep step, so the window books the
  most stages any committed round rode as committed and the rest as
  wasted.  Sweeps shared with a committed round stay committed - that
  traversal was needed regardless, so acceptance costs no extra
  committed sweeps.  In fact speculation never wastes a whole sweep: an
  accepting round's median is above 0, so one of its instances assigned
  a triangle and the round ran all six passes, which no partner
  outlasts.

:func:`window_program` is the lockstep window as a stage program; the
commit/discard walk and the root rewind live in the guessing loop itself
(:func:`repro.core.driver.estimate_program`), whose every round - a
sequential one too - is a window (of depth 1 at ``speculate_depth=1``).

Bit-identity contract: each round's program
(:func:`~repro.core.parallel.round_program`) folds exactly the per-chunk
sequence it would fold with private sweeps (see
:func:`~repro.core.stages.sweep_stages`, re-exported here as the function
that serves a window's batches), and all randomness is strictly per-round,
so every committed estimate, diagnostic, and logical-pass count is
bit-identical to the sequential loop **at any depth** - at any worker
count.

Failure contract: the driver sends each sweep's outcome back - ``None``,
or the exception the sweep raised - and the window program raises that
exception itself, closing every still-live round program on the way out
so their generator ``finally`` blocks run.  The guessing loop catches it
there and decides whether to retry the window.
"""

from __future__ import annotations

import random
from typing import Generator, List, Optional, Sequence

from ..streams.space import SpaceMeter
from .estimator import SinglePassStackResult
from .parallel import round_program
from .params import ParameterPlan
from .stages import TaggedStage, sweep_stages  # noqa: F401 - serves the windows

#: Owner tags of a window's rounds: position ``0`` is :data:`PRIMARY` and
#: position ``j >= 1`` is ``f"{SPECULATIVE}{j}"``.
PRIMARY = "round"
SPECULATIVE = "speculative"


def _owner_tags(depth: int) -> List[str]:
    return [PRIMARY] + [f"{SPECULATIVE}{j}" for j in range(1, depth)]


def window_program(
    m: int,
    plans: Sequence[ParameterPlan],
    rng_lists: Sequence[List[random.Random]],
    meters: Sequence[SpaceMeter],
    owners: Sequence[str],
) -> Generator[List[TaggedStage], Optional[BaseException], List[List[SinglePassStackResult]]]:
    """The lockstep window as a stage program: yields, never sweeps.

    Drives ``len(plans)`` independent round programs in lockstep, yielding
    at each step the pending owner-tagged stages of every still-running
    round as one batch.  The *caller* executes each batch - as one shared
    sweep (the solo driver), or merged with other windows' batches on a
    shared scheduler (the serving layer) - then resumes the program with
    the sweep's outcome: ``send(None)``, and the program collects each
    stage's ``finish()`` itself, or ``send(exc)``, and the program raises
    ``exc``, closing every still-live round program first.  Returns the
    per-round result lists, aligned with ``owners``.
    """
    depth = len(plans)
    if depth < 1:
        raise ValueError("a speculative window needs at least one round")
    if len(rng_lists) != depth or len(meters) != depth or len(owners) != depth:
        raise ValueError("plans, rng_lists, meters, and owners must align per round")
    programs = {
        owner: round_program(m, plans[j], rng_lists[j], meters[j])
        for j, owner in enumerate(owners)
    }
    stages = {}
    results = {}
    try:
        for owner in owners:
            stages[owner] = next(programs[owner])
        while stages:
            live = [owner for owner in owners if owner in stages]
            failure = yield [(owner, stages[owner]) for owner in live]
            if failure is not None:
                raise failure
            for owner in live:
                try:
                    stages[owner] = programs[owner].send(stages[owner].finish())
                except StopIteration as stop:
                    results[owner] = stop.value
                    del stages[owner]
    finally:
        # Exception safety: a failed shared sweep must not leave round
        # programs suspended mid-stage - closing them runs their cleanup
        # (and is a no-op for programs that already returned).
        for program in programs.values():
            program.close()
    return [results[owner] for owner in owners]
