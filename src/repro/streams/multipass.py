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
pass the two counters coincide.  Which sweeps were spent on discarded
speculation is booked by the code that serves the batches - each window
of :func:`repro.core.driver.estimate_program`, and the serving layer's
:class:`~repro.serve.scheduler.SweepScheduler` per job - not here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from ..errors import PassBudgetExceeded, StreamError, StreamReadError
from ..types import Edge
from .base import DEFAULT_CHUNK_EDGES, EdgeStream

if TYPE_CHECKING:  # pragma: no cover - import-time only
    import numpy


def _mid_stage_fault_fires() -> bool:
    # Imported lazily: repro.streams loads during repro.core's own import.
    from ..core import faults

    return faults.fires(faults.SWEEP_MID_STAGE)


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
    ) -> Iterator["numpy.ndarray"]:
        """Open ``passes`` logical passes served by one shared chunked sweep.

        The caller is asserting that the fused passes are mutually
        independent - each one must produce the result it would have
        produced scanning the tape alone.  Pass accounting charges all
        ``passes`` against the budget; the sweep counter grows by one.
        """
        self._open_passes(passes)
        return self._run_pass_chunks(chunk_size)

    def new_pass_chunk_handles(
        self,
        chunk_size: int = DEFAULT_CHUNK_EDGES,
        passes: int = 1,
    ) -> Iterator["numpy.ndarray"]:
        """Former name of :meth:`new_fused_pass_chunks`, kept for callers.

        Every sweep now hands out the zero-copy chunks themselves; the
        executor opens its sweeps through :meth:`new_fused_pass_chunks`.
        """
        return self.new_fused_pass_chunks(chunk_size, passes=passes)

    def _open_passes(self, count: int) -> None:
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
