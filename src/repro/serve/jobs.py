"""Jobs: one in-flight estimate request, with its completion plumbing.

A :class:`Job` owns a live :func:`~repro.core.driver.estimate_program`
generator and the synchronization around it: the scheduler thread
advances the program and calls :meth:`Job.complete` / :meth:`Job.fail`;
waiters (the daemon's request handlers, or a test) block on
:meth:`Job.wait`.  Every stage the program yields is tagged with the
job's owner prefix, ``f"{job_id}/..."``, so a merged batch names its
riders; the scheduler counts the sweeps each job rode and shared.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Generator, Optional

from ..core.driver import ProgramOutcome
from ..core.faults import RecoveryContext


@dataclass(frozen=True)
class JobAccounting:
    """A completed job's slice of the shared tape's physical sweeps.

    ``sweeps_physical`` counts traversals that carried at least one of
    the job's stages; ``sweeps_shared`` those among them that also
    carried another job's (the savings vs. running solo);
    ``sweeps_committed`` / ``sweeps_wasted`` split the physical count by
    the job's own commit/discard verdicts - the result's
    ``sweeps_total`` / ``sweeps_wasted``, since every step the job rode
    is one sweep of its solo run.
    """

    sweeps_physical: int
    sweeps_shared: int
    sweeps_committed: int
    sweeps_wasted: int


class Job:
    """One estimate request in flight on a tape's sweep scheduler."""

    def __init__(self, job_id: str, program: Generator) -> None:
        self.id = job_id
        #: Owner-tag prefix of every stage the program yields.
        self.owner_prefix = f"{job_id}/"
        self.program = program
        #: Sweeps that carried the job's stages, and those shared with
        #: another job (counted by the scheduler).
        self.sweeps_rode = 0
        self.sweeps_shared = 0
        #: Where the job's recovery ladder steps are recorded: its own and
        #: those of the traversals it rode (set at admission).
        self.recovery: Optional[RecoveryContext] = None
        self.outcome: Optional[ProgramOutcome] = None
        self.accounting: Optional[JobAccounting] = None
        self.error: Optional[BaseException] = None
        self._done = threading.Event()

    def complete(self, outcome: ProgramOutcome, accounting: JobAccounting) -> None:
        self.outcome = outcome
        self.accounting = accounting
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self._done.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job completes or fails; True unless timed out."""
        return self._done.wait(timeout)
