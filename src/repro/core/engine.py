"""Execution-engine policy: chunk size, threads per sweep, window depth.

Every pass of the estimator stack runs as NumPy plans
(:mod:`repro.core.kernels`): edges arrive in ``(k, 2)`` int64 blocks via
:meth:`~repro.streams.multipass.PassScheduler.new_fused_pass_chunks`, each
pass does its scanning with vectorized array operations, and the sweep
loop (:mod:`repro.core.executor`) runs the kernels on ``workers`` threads,
bit-identical for the same seeds at any thread count.

There is one engine.  ``engine_mode`` still accepts ``"auto"``,
``"chunked"`` and ``"sharded"`` - synonyms, kept so existing configs,
scripts and environments keep working; it is validated and selects
nothing.  The per-edge ``"python"`` engine was removed: asking for it
raises :class:`~repro.errors.ParameterError` rather than silently running
something else (a snapshot that recorded it resumes on the one engine -
see :func:`repro.core.driver.resume_from`).  ``EstimatorConfig.fuse`` is
accepted the same way and selects nothing: the fused pass-4/5 sweep it
switched on was removed.

Every setting is a per-run execution choice - estimates are bit-identical
under any of them - so the settings form one frozen :class:`Policy` held
in a :class:`contextvars.ContextVar`.  :func:`resolve` lays a config's
engine fields over the policy in force, which outside any scope is the
environment's: ``REPRO_WORKERS`` (a positive integer; default all cores,
``1`` means serial) and ``REPRO_SPECULATE_DEPTH`` (a positive integer;
``1`` runs the sequential loop), read each time and rejected with a
:class:`~repro.errors.ParameterError` naming the variable when malformed.
``REPRO_ENGINE`` only warns when it names the removed engine; the removed
``REPRO_SPECULATE`` and ``REPRO_FUSE`` switches raise when set.
:func:`engine_overrides` runs a block under a resolved policy and restores
the previous one on exit.  Each program driver sweeps inside its own
scope, so estimates running concurrently on different threads each sweep
at their own settings and no setting outlives the run that chose it.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import ParameterError
from ..streams.base import DEFAULT_CHUNK_EDGES
from .knobs import check_count, resolve_int

#: Accepted ``engine_mode`` names: synonyms of the one engine.
_MODES = ("auto", "chunked", "sharded")

#: The removed per-edge engine's name (rejected, never mapped silently).
RETIRED_MODE = "python"

#: Four-deep windows are the deepest that beat the sequential loop on
#: every input measured (DESIGN.md's depth table).  The first window has
#: no median for the expected-waste cap to clip, but round ``k`` accepts
#: only a median of at least ``m kappa / 2**k`` while a kappa-degenerate
#: graph has ``T <= m (kappa - 1) / 2``: a median within ``(1 + eps) T``
#: never accepts round 0, nor round 1 when ``eps < 1 / (kappa - 1)``
#: (``kappa <= 4`` at the default ``eps = 0.25``).
DEFAULT_SPECULATE_DEPTH = 4


def check_mode(mode: str) -> None:
    """Reject an engine mode that is not one of :data:`_MODES`."""
    if mode == RETIRED_MODE:
        raise ParameterError(
            f"engine mode {RETIRED_MODE!r} was removed: every pass now runs the NumPy "
            f"plans; use one of {_MODES} (all the same engine)"
        )
    if mode not in _MODES:
        raise ParameterError(f"engine mode must be one of {_MODES}, got {mode!r}")


def check_settings(
    chunk_size: Optional[int] = None,
    workers: Optional[int] = None,
    speculate_depth: Optional[int] = None,
) -> None:
    """Reject an explicit chunk size, worker count or window depth that is
    not a positive integer."""
    for name, value in (
        ("chunk_size", chunk_size),
        ("workers", workers),
        ("speculate_depth", speculate_depth),
    ):
        if value is not None:
            check_count(name, value)


@dataclass(frozen=True)
class Policy:
    """One run's engine settings (estimates are identical under any of them)."""

    #: Edges per chunk of every sweep.
    chunk_size: int
    #: Threads per sweep; ``1`` runs the kernels inline on the sweeping thread.
    workers: int
    #: Maximum rounds per guessing-loop window: round ``i`` and up to
    #: ``speculate_depth - 1`` pre-drawn later rounds share sweeps, and the
    #: prefix up to the first acceptance is committed (see
    #: :mod:`repro.core.speculate`).  ``1`` is the sequential loop; the
    #: driver's expected-waste cap may choose a shallower window per round.
    speculate_depth: int


_FIELDS = tuple(f.name for f in dataclasses.fields(Policy))

#: The innermost scope's policy; ``None`` outside every scope.
_POLICY: ContextVar[Optional[Policy]] = ContextVar("repro_engine_policy", default=None)


def _environment() -> Policy:
    """The policy the environment selects (read now, not at import)."""
    if os.environ.get("REPRO_ENGINE", "").strip().lower() == RETIRED_MODE:
        warnings.warn(
            f"REPRO_ENGINE={RETIRED_MODE}: that engine was removed; using the NumPy plans",
            stacklevel=3,
        )
    if os.environ.get("REPRO_SPECULATE", "").strip():
        raise ParameterError(
            "REPRO_SPECULATE was removed: the window depth is the one speculation "
            "setting; set REPRO_SPECULATE_DEPTH=1 for the sequential loop, or unset "
            "REPRO_SPECULATE for the default windows"
        )
    if os.environ.get("REPRO_FUSE", "").strip():
        raise ParameterError(
            "REPRO_FUSE was removed: the fused pass-4/5 sweep is gone and every "
            "round runs passes 4 and 5 as separate sweeps; unset REPRO_FUSE"
        )
    return Policy(
        chunk_size=DEFAULT_CHUNK_EDGES,
        workers=resolve_int(None, "REPRO_WORKERS", os.cpu_count() or 1),
        speculate_depth=resolve_int(None, "REPRO_SPECULATE_DEPTH", DEFAULT_SPECULATE_DEPTH),
    )


def policy() -> Policy:
    """The policy in force: the innermost scope's, else the environment's."""
    scoped = _POLICY.get()
    return scoped if scoped is not None else _environment()


def resolve(cfg: object = None, **fields: object) -> Policy:
    """Lay ``cfg``'s engine fields, then the keyword ``fields``, over :func:`policy`.

    ``cfg`` is an :class:`~repro.core.driver.EstimatorConfig` or anything
    carrying its engine field names (``chunk_size``, ``workers``,
    ``speculate_depth``); ``None`` leaves a setting as it is.
    """
    unknown = set(fields).difference(_FIELDS)
    if unknown:
        raise TypeError(f"unknown engine setting(s): {', '.join(sorted(unknown))}")
    given = {name: fields.get(name, getattr(cfg, name, None)) for name in _FIELDS}
    check_settings(given["chunk_size"], given["workers"], given["speculate_depth"])
    return dataclasses.replace(
        policy(), **{name: value for name, value in given.items() if value is not None}
    )


@contextmanager
def engine_overrides(cfg: object = None, **fields: object) -> Iterator[Policy]:
    """Run the block under :func:`resolve`'s policy; the previous one returns on exit."""
    resolved = resolve(cfg, **fields)
    token = _POLICY.set(resolved)
    try:
        yield resolved
    finally:
        _POLICY.reset(token)


def serial_until_scope_exit() -> None:
    """The recovery ladder's ``sharded->serial`` step: one thread per sweep
    for the rest of the enclosing scope (the running estimate's)."""
    _POLICY.set(dataclasses.replace(policy(), workers=1))
