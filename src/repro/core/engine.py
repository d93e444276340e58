"""Execution-engine settings: chunk size, threads per sweep, sweep schedule.

Every pass of the estimator stack runs as NumPy plans
(:mod:`repro.core.kernels`): edges arrive in ``(k, 2)`` int64 blocks via
:meth:`~repro.streams.multipass.PassScheduler.new_fused_pass_chunks`, each
pass does its scanning with vectorized array operations, and the sweep
loop (:mod:`repro.core.executor`) runs the kernels on ``workers`` threads,
bit-identical for the same seeds at any thread count.

There is one engine.  ``engine_mode`` still accepts ``"auto"``,
``"chunked"`` and ``"sharded"`` - synonyms, kept so existing configs,
scripts and environments keep working.  The per-edge ``"python"`` engine
was removed: asking for it raises :class:`~repro.errors.ParameterError`
rather than silently running something else (a snapshot that recorded it
resumes on the one engine - see :func:`repro.core.driver.resume_from`).

The worker count defaults to the machine's cores; an explicit count wins,
and ``1`` means the kernels run inline on the sweeping thread.

The chunk size, worker count and sweep schedule (fusion, speculation and
its depth) can be forced globally (:func:`set_engine`), per block
(:func:`engine_overrides` - what the parity suite and benchmarks use), or
at process start via the environment: ``REPRO_WORKERS`` (a positive
integer; ``1`` means serial), ``REPRO_FUSE``, ``REPRO_SPECULATE`` and
``REPRO_SPECULATE_DEPTH``.  ``REPRO_ENGINE`` is read for the mode name.

The policy is **process-global, not thread-local**: ``engine_overrides``
(and therefore per-config engine selection on
:class:`~repro.core.driver.EstimatorConfig`) mutates shared module state,
so concurrently running estimators in one process must use the same
engine settings - run differing configurations in separate processes.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Iterator, Optional

from ..errors import ParameterError
from ..streams.base import DEFAULT_CHUNK_EDGES

#: Accepted ``engine_mode`` names: synonyms of the one engine.
_MODES = ("auto", "chunked", "sharded")

#: The removed per-edge engine's name (rejected, never mapped silently).
RETIRED_MODE = "python"


def check_mode(mode: str) -> None:
    """Reject an engine mode that is not one of :data:`_MODES`."""
    if mode == RETIRED_MODE:
        raise ParameterError(
            f"engine mode {RETIRED_MODE!r} was removed: every pass now runs the NumPy "
            f"plans; use one of {_MODES} (all the same engine)"
        )
    if mode not in _MODES:
        raise ParameterError(f"engine mode must be one of {_MODES}, got {mode!r}")


def _initial_mode() -> str:
    mode = os.environ.get("REPRO_ENGINE", "auto").strip().lower()
    if mode == RETIRED_MODE:
        warnings.warn(
            f"REPRO_ENGINE={RETIRED_MODE}: that engine was removed; using the NumPy plans",
            stacklevel=2,
        )
    return mode if mode in _MODES else "auto"


def _initial_workers() -> Optional[int]:
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if raw.isdigit() and int(raw) >= 1:
        return int(raw)
    return None


def _initial_fuse() -> bool:
    return os.environ.get("REPRO_FUSE", "").strip().lower() in ("1", "true", "on")


#: Four-deep windows are the deepest that beat the sequential loop on
#: every input measured (DESIGN.md's depth table).  The first window has
#: no median for the expected-waste cap to clip, but round ``k`` accepts
#: only a median of at least ``m kappa / 2**k`` while a kappa-degenerate
#: graph has ``T <= m (kappa - 1) / 2``: a median within ``(1 + eps) T``
#: never accepts round 0, nor round 1 when ``eps < 1 / (kappa - 1)``
#: (``kappa <= 4`` at the default ``eps = 0.25``).
DEFAULT_SPECULATE_DEPTH = 4


def _initial_speculate() -> bool:
    """On unless ``REPRO_SPECULATE`` is set to something other than on."""
    raw = os.environ.get("REPRO_SPECULATE", "").strip().lower()
    return raw in ("", "1", "true", "on")


def _initial_speculate_depth() -> int:
    raw = os.environ.get("REPRO_SPECULATE_DEPTH", "").strip()
    return int(raw) if raw.isdigit() and int(raw) >= 2 else DEFAULT_SPECULATE_DEPTH


_mode: str = _initial_mode()
_chunk_size: int = DEFAULT_CHUNK_EDGES
#: ``None`` = never set explicitly (it then defaults to the core count);
#: an explicit ``1`` always means serial.
_workers: Optional[int] = _initial_workers()
#: Fused sweeps: independent pass plans of one round share a physical tape
#: sweep (see :func:`repro.core.executor.run_plans`).  Estimates are
#: seed-for-seed identical either way; fusing trades a little extra
#: speculative space for strictly fewer stream sweeps.
_fuse: bool = _initial_fuse()
#: Speculative round fusion (on by default): the guessing loop runs round
#: ``i`` and up to ``speculate_depth - 1`` pre-drawn later rounds through
#: shared sweeps, committing the prefix up to the first acceptance and
#: discarding the rest (see :mod:`repro.core.speculate`).  Estimates are
#: bit-identical either way, at any depth; ``REPRO_SPECULATE=0`` turns it off.
_speculate: bool = _initial_speculate()
#: How many guessing rounds one speculative window may fuse (>= 2; default
#: 4).  Depth 2 is the original round-pair driver; the driver's
#: expected-waste cap may choose a shallower window per round (see
#: :mod:`repro.core.driver`).  ``REPRO_SPECULATE_DEPTH`` seeds it.
_speculate_depth: int = _initial_speculate_depth()


def engine_mode() -> str:
    """The engine mode name in force: ``auto``, ``chunked`` or ``sharded`` (synonyms)."""
    return _mode


def chunk_size() -> int:
    """Edges per chunk of every sweep."""
    return _chunk_size


def workers() -> int:
    """The explicitly configured thread count per sweep (``1`` when unset)."""
    return _workers if _workers is not None else 1


def fuse() -> bool:
    """Whether rounds should fuse their independent pass plans per sweep."""
    return _fuse


def speculate() -> bool:
    """Whether the guessing loop should fuse speculative round windows."""
    return _speculate


def speculate_depth() -> int:
    """Maximum rounds per speculative window (>= 2; default 4; 2 = round pairs)."""
    return _speculate_depth


def effective_workers() -> int:
    """The thread count the executor should actually use per sweep.

    An explicitly configured count always wins (``1`` = the kernels run
    inline); with no explicit count it is the machine's CPU count.
    """
    if _workers is not None:
        return _workers
    return os.cpu_count() or 1


def _check_chunk(chunk: Optional[int]) -> None:
    if chunk is not None and chunk < 1:
        raise ParameterError(f"chunk size must be >= 1, got {chunk}")


def _check_workers(num_workers: Optional[int]) -> None:
    if num_workers is not None and num_workers < 1:
        raise ParameterError(f"workers must be >= 1, got {num_workers}")


def _check_depth(depth: Optional[int]) -> None:
    if depth is not None and depth < 2:
        raise ParameterError(f"speculate_depth must be >= 2, got {depth}")


def _apply(
    chunk: Optional[int],
    num_workers: Optional[int],
    fused: Optional[bool] = None,
    speculative: Optional[bool] = None,
    depth: Optional[int] = None,
) -> None:
    """Validate *all* settings before committing any (no partial writes)."""
    global _chunk_size, _workers, _fuse, _speculate, _speculate_depth
    _check_chunk(chunk)
    _check_workers(num_workers)
    _check_depth(depth)
    if chunk is not None:
        _chunk_size = chunk
    if num_workers is not None:
        _workers = num_workers
    if fused is not None:
        _fuse = bool(fused)
    if speculative is not None:
        _speculate = bool(speculative)
    elif depth is not None:
        # Asking for a depth is asking to speculate (an explicit
        # ``speculative`` argument - either way - always wins), so the
        # depth knob is never silently inert at this entry point either.
        _speculate = True
    if depth is not None:
        _speculate_depth = depth


def set_engine(
    mode: str,
    chunk: Optional[int] = None,
    num_workers: Optional[int] = None,
    fused: Optional[bool] = None,
    speculative: Optional[bool] = None,
    speculate_depth: Optional[int] = None,
) -> None:
    """Set the global engine policy (and optionally chunk size / workers / fusing).

    ``mode`` is one of the synonyms ``"auto"``, ``"chunked"`` or
    ``"sharded"`` (see :func:`check_mode`).
    ``fused`` toggles the fused-sweep execution of each round's independent
    pass plans (any engine mode; estimates are identical either way);
    ``speculative`` toggles the guessing loop's speculative round fusion
    and ``speculate_depth`` (>= 2) bounds how many rounds one speculative
    window may fuse (see :mod:`repro.core.speculate` - estimates are
    identical either way, at any depth).
    All arguments are validated before any global state changes, so a
    rejected call leaves the policy untouched.
    """
    global _mode
    check_mode(mode)
    _apply(chunk, num_workers, fused, speculative, speculate_depth)
    _mode = mode


@contextmanager
def engine_overrides(
    mode: Optional[str] = None,
    chunk: Optional[int] = None,
    num_workers: Optional[int] = None,
    fused: Optional[bool] = None,
    speculative: Optional[bool] = None,
    speculate_depth: Optional[int] = None,
) -> Iterator[None]:
    """Temporarily override the engine policy, chunk size, workers, fusing,
    and/or speculative round fusion (on/off and window depth).

    Only *explicit* arguments are validated and applied; ``None`` leaves
    the corresponding setting untouched.  Restoration is unconditional.
    """
    global _mode, _chunk_size, _workers, _fuse, _speculate, _speculate_depth
    saved = (_mode, _chunk_size, _workers, _fuse, _speculate, _speculate_depth)
    try:
        if mode is not None:
            set_engine(mode, chunk, num_workers, fused, speculative, speculate_depth)
        else:
            _apply(chunk, num_workers, fused, speculative, speculate_depth)
        yield
    finally:
        (_mode, _chunk_size, _workers, _fuse, _speculate, _speculate_depth) = saved
