"""Multi-pass scheduling with pass budgets and sweep accounting.

:class:`PassScheduler` is the only sanctioned way for an algorithm to read an
:class:`~repro.streams.base.EdgeStream`.  It enforces the constant-pass
discipline of the paper's model:

* passes are strictly sequential - opening a new pass while the previous one
  is still being consumed raises :class:`~repro.errors.StreamError`;
* an optional pass budget turns "constant number of passes" into a checked
  invariant (:class:`~repro.errors.PassBudgetExceeded`);
* the number of passes actually used is recorded for benchmark reports.

The scheduler distinguishes *logical passes* (the unit of the paper's
accounting - what the budget constrains) from *physical tape sweeps* (what
wall-clock time is made of).  A **fused** pass group
(:meth:`new_fused_pass_chunks`) opens several
logical passes at once, all served by a single sweep of the tape: the
budget is charged for every logical pass, while :attr:`sweeps_used` grows
by one.  Plain passes charge one of each, so when every sweep serves one
pass the two counters coincide.

Sweeps can additionally be tagged with the *owners* they serve (the
speculative round-pair driver tags each shared sweep with the rounds whose
plans rode it).  When a speculative owner is later discarded
(:meth:`discard_owner`), the sweeps that served **only** discarded owners
become *wasted* - physically performed, but spent on work the sequential
driver would never have run - while sweeps shared with a committed owner
stay committed (the committed round needed that traversal regardless).
:attr:`sweeps_committed` / :attr:`sweeps_wasted` expose the split;
untagged sweeps are always committed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Set

from ..errors import PassBudgetExceeded, StreamError, StreamReadError
from ..types import Edge
from .base import DEFAULT_CHUNK_EDGES, EdgeStream

if TYPE_CHECKING:  # pragma: no cover - import-time only
    import numpy


def _mid_stage_fault_fires() -> bool:
    # Imported lazily: repro.streams loads during repro.core's own import.
    from ..core import faults

    return faults.fires(faults.SWEEP_MID_STAGE)


@dataclass(frozen=True)
class OwnerSweepReport:
    """Per-owner-group slice of a ledger's sweep accounting.

    ``rode`` counts sweeps that served at least one matching owner;
    ``committed`` those among them still serving a non-discarded matching
    owner; ``wasted`` is the difference.  ``shared`` counts the ridden
    sweeps that also carried a non-matching owner - physical work the
    matching group split with someone else.
    """

    rode: int
    committed: int
    wasted: int
    shared: int


class OwnerLedger:
    """Owner-tagged sweep bookkeeping, independent of any scheduler.

    Records one entry per physical sweep (a frozenset of owner tags, or
    ``None`` for untagged sweeps) plus the set of owners discarded so far.
    :class:`PassScheduler` keeps one for its own sweeps; the estimate
    program in :mod:`repro.core.driver` keeps private ledgers so a job
    riding a *shared* scheduler can still report the sweep counts its solo
    run would have produced.
    """

    def __init__(self) -> None:
        self._sweeps: List[Optional[frozenset]] = []
        self._discarded: Set[str] = set()

    def record(self, owners: Optional[Iterable[str]]) -> None:
        """Record one sweep tagged with ``owners`` (``None`` = untagged)."""
        self._sweeps.append(frozenset(owners) if owners is not None else None)

    def discard(self, owner: str) -> None:
        """Mark ``owner`` discarded; idempotent."""
        self._discarded.add(owner)

    @property
    def sweeps_recorded(self) -> int:
        return len(self._sweeps)

    @property
    def sweeps_wasted(self) -> int:
        """Sweeps whose every owner has been discarded (untagged never waste)."""
        if not self._discarded:
            return 0
        return sum(
            1
            for owners in self._sweeps
            if owners is not None and owners <= self._discarded
        )

    @property
    def sweeps_committed(self) -> int:
        return len(self._sweeps) - self.sweeps_wasted

    def report(self, prefix: str) -> OwnerSweepReport:
        """Accounting for the owner group whose tags start with ``prefix``.

        This is the per-job view of a shared tape: with owners tagged
        ``f"{job}..."``, ``report(job)`` says how many physical sweeps the
        job rode, how many of those it shared with other jobs, and how the
        committed/wasted split looks from its side.
        """
        rode = committed = shared = 0
        for owners in self._sweeps:
            if owners is None:
                continue
            mine = [o for o in owners if o.startswith(prefix)]
            if not mine:
                continue
            rode += 1
            if any(o not in self._discarded for o in mine):
                committed += 1
            if any(not o.startswith(prefix) for o in owners):
                shared += 1
        return OwnerSweepReport(
            rode=rode, committed=committed, wasted=rode - committed, shared=shared
        )


class PassScheduler:
    """Hands out sequential passes over a stream, counting them.

    Parameters
    ----------
    stream:
        The underlying edge stream.
    max_passes:
        Optional hard pass budget; exceeding it raises
        :class:`~repro.errors.PassBudgetExceeded`.
    """

    def __init__(self, stream: EdgeStream, max_passes: Optional[int] = None) -> None:
        if max_passes is not None and max_passes < 1:
            raise StreamError(f"max_passes must be >= 1, got {max_passes}")
        self._stream = stream
        self._max_passes = max_passes
        self._passes_used = 0
        self._sweeps_used = 0
        self._pass_open = False
        #: Whether the currently open sweep dies mid-stage (fault injection).
        self._fault_mid_sweep = False
        #: Owner tags per sweep plus the discarded set (see :class:`OwnerLedger`).
        self._owners = OwnerLedger()

    @property
    def passes_used(self) -> int:
        """Number of logical passes opened so far (the budgeted quantity)."""
        return self._passes_used

    @property
    def sweeps_used(self) -> int:
        """Number of physical tape sweeps started so far.

        Equal to :attr:`passes_used` when every sweep served one pass;
        strictly smaller whenever fused pass groups shared a sweep.
        """
        return self._sweeps_used

    @property
    def sweeps_wasted(self) -> int:
        """Sweeps that served only owners since discarded (speculation waste).

        A sweep counts as wasted when it was tagged with owners and *every*
        one of them has been handed to :meth:`discard_owner`; sweeps shared
        with a committed owner - and untagged sweeps - stay committed.
        """
        return self._owners.sweeps_wasted

    @property
    def sweeps_committed(self) -> int:
        """Physical sweeps net of speculation waste (see :attr:`sweeps_wasted`)."""
        return self._sweeps_used - self.sweeps_wasted

    def discard_owner(self, owner: str) -> None:
        """Mark ``owner``'s speculative work discarded for sweep accounting.

        Sweeps tagged exclusively with discarded owners move from committed
        to wasted; the physical :attr:`sweeps_used` total is unchanged (the
        tape was read either way).  Idempotent.
        """
        self._owners.discard(owner)

    def owner_report(self, prefix: str) -> OwnerSweepReport:
        """Per-owner-group accounting (see :meth:`OwnerLedger.report`).

        On a scheduler shared across jobs - owners tagged ``f"{job}..."`` -
        ``owner_report(job)`` gives that job's slice: sweeps it rode, how
        many it shared with other groups, and its committed/wasted split.
        """
        return self._owners.report(prefix)

    @property
    def num_edges(self) -> int:
        """The stream length ``m``."""
        return len(self._stream)

    @property
    def stream(self) -> EdgeStream:
        """The underlying stream (read-only)."""
        return self._stream

    def new_pass(self) -> Iterator[Edge]:
        """Open the next sequential pass.

        The returned iterator must be consumed (or abandoned) before the next
        call to :meth:`new_pass`; interleaved passes violate the streaming
        model and raise :class:`~repro.errors.StreamError`.
        """
        self._open_passes(1)
        return self._run_pass()

    def new_fused_pass_chunks(
        self,
        chunk_size: int = DEFAULT_CHUNK_EDGES,
        passes: int = 1,
        owners: Optional[Iterable[str]] = None,
    ) -> Iterator["numpy.ndarray"]:
        """Open ``passes`` logical passes served by one shared chunked sweep.

        The caller is asserting that the fused passes are mutually
        independent - each one must produce the result it would have
        produced scanning the tape alone.  Pass accounting charges all
        ``passes`` against the budget; the sweep counter grows by one.
        ``owners`` optionally tags the sweep for the committed/wasted split
        (see :meth:`discard_owner`).
        """
        self._open_passes(passes, owners)
        return self._run_pass_chunks(chunk_size)

    def new_pass_chunk_handles(
        self,
        chunk_size: int = DEFAULT_CHUNK_EDGES,
        passes: int = 1,
        owners: Optional[Iterable[str]] = None,
    ) -> Iterator["numpy.ndarray"]:
        """Former name of :meth:`new_fused_pass_chunks`, kept for callers.

        Every sweep now hands out the zero-copy chunks themselves; the
        executor opens its sweeps through :meth:`new_fused_pass_chunks`.
        """
        return self.new_fused_pass_chunks(chunk_size, passes=passes, owners=owners)

    def _open_passes(self, count: int, owners: Optional[Iterable[str]] = None) -> None:
        if count < 1:
            raise StreamError(f"a pass group must contain at least one pass, got {count}")
        if self._pass_open:
            raise StreamError("previous pass still open; streams cannot be read concurrently")
        if self._max_passes is not None and self._passes_used + count > self._max_passes:
            raise PassBudgetExceeded(
                f"pass budget of {self._max_passes} exhausted "
                f"(attempted pass {self._passes_used + count})"
            )
        self._passes_used += count
        self._sweeps_used += 1
        self._owners.record(owners)
        self._pass_open = True
        # Decided eagerly at sweep open (one fault-plan event per sweep, in
        # sweep order) so injection indexing is independent of how lazily
        # the pass iterator is consumed.
        self._fault_mid_sweep = _mid_stage_fault_fires()

    def _inject_mid_sweep(self, items: Iterable) -> Iterator:
        """Replay ``items`` but die after the first one (injected fault).

        An armed fault fires even when the consumer abandons the sweep
        early (executors stop pulling once every plan is served): closing
        the injector converts the ``GeneratorExit`` into the fault, so a
        scheduled injection can never be silently skipped by dead-tape
        optimisations - injection indexing stays deterministic.
        """
        sweep = self._sweeps_used
        fault = StreamReadError(f"injected fault: sweep.mid_stage (sweep {sweep - 1})")
        try:
            for item in items:
                yield item
                raise fault
            raise fault
        except GeneratorExit:
            raise fault from None

    def _run_pass(self) -> Iterator[Edge]:
        injector: Optional[Iterator] = None
        source: Iterable[Edge] = self._stream
        if self._fault_mid_sweep:
            injector = self._inject_mid_sweep(iter(source))
            source = injector
        try:
            for edge in source:
                yield edge
        finally:
            # Mark the pass closed whether it was fully consumed, abandoned,
            # or aborted by an exception - any of these ends the pass.
            self._pass_open = False
            if injector is not None:
                injector.close()  # raises the armed fault if still pending

    def _run_pass_chunks(self, chunk_size: int) -> Iterator["numpy.ndarray"]:
        injector: Optional[Iterator] = None
        source: Iterable = self._stream.iter_chunks(chunk_size)
        if self._fault_mid_sweep:
            injector = self._inject_mid_sweep(source)
            source = injector
        try:
            for chunk in source:
                yield chunk
        finally:
            self._pass_open = False
            if injector is not None:
                injector.close()
