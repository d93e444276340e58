"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the common failure modes (malformed graph input, stream
protocol misuse, infeasible estimator parameters, exhausted space budget).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Raised for structurally invalid graph input.

    Examples: self-loops, negative vertex ids, duplicate edges passed to a
    builder configured to reject them, or queries about vertices that are not
    present in the graph.
    """


class StreamError(ReproError):
    """Raised when the streaming protocol is violated.

    Examples: opening a new pass while another pass is still being consumed,
    exceeding a declared pass budget, or reading from a closed stream.
    """


class PassBudgetExceeded(StreamError):
    """Raised when an algorithm opens more passes than its declared budget."""


class StreamReadError(StreamError):
    """Raised for *transient* failures reading the tape mid-sweep.

    Examples: an I/O error surfacing from a chunked file parse, a tape
    that vanished or changed size mid-run, or an injected ``file.read`` /
    ``sweep.mid_stage`` fault.  Distinct from the protocol violations and
    malformed-input failures that plain :class:`StreamError` covers: a
    read error may succeed on replay, so the recovery layer classifies it
    as retryable, while retrying a malformed file or a budget violation
    cannot help.
    """


class TapeFormatError(StreamReadError):
    """Raised when a binary ``.etape`` tape fails structural validation.

    Examples: bad magic bytes, an unsupported format version, a header
    shorter than the fixed layout, or a payload whose size disagrees with
    the header's edge count (a truncated or corrupt tape).  Subclasses
    :class:`StreamReadError`, so the recovery layer treats a tape damaged
    mid-run (say, truncated underneath a sweep) as a read failure: it
    retries the sweep, and the error propagates once retries and the
    remaining ladder steps run out.
    """


class SnapshotError(ReproError):
    """Base class for failures of the durable-snapshot layer.

    See :mod:`repro.core.snapshot`: the ``.esnap`` container, the
    round-boundary writer, and the resume path all raise subclasses of
    this error so callers can treat "anything snapshot-related" as one
    failure family while the recovery machinery distinguishes the three
    modes below.
    """


class SnapshotFormatError(SnapshotError):
    """Raised when an ``.esnap`` snapshot fails *structural* validation.

    Examples: truncated header or payload, bad magic bytes, a CRC-32
    mismatch, an unsupported (future) format version, or a payload that
    does not decode to the expected document.  Structural damage is a
    property of one file, not of the run, so the loader falls back to
    the previous snapshot in the rotation; only when every rotation
    member is damaged does the error propagate.
    """


class SnapshotMismatchError(SnapshotError):
    """Raised when a structurally valid snapshot belongs to a different run.

    Examples: resuming against a stream whose content fingerprint differs
    from the one recorded at snapshot time, or with a configuration whose
    trajectory-relevant fields (seed, epsilon, repetitions, plan mode and
    constants, ...) hash differently.  Unlike structural damage this is a
    *hard* error - continuing would silently produce estimates that match
    neither the original run nor a fresh one - so there is no fallback.
    """


class SnapshotWriteError(SnapshotError, StreamReadError):
    """Raised for *transient* failures persisting a snapshot to disk.

    Wraps I/O errors from the tmp-write/fsync/rename sequence and the
    injected ``snapshot.write`` fault.  Subclasses
    :class:`StreamReadError` deliberately so the recovery layer classifies
    it as retryable; exhausted retries degrade ``snapshot->skip`` (the
    run continues without further checkpoints) rather than failing the
    estimate - durability is an add-on, never a correctness dependency.
    """


class WorkerCrashError(ReproError):
    """Raised when a threaded sweep task crashed on its worker thread.

    Raised by the injected ``worker.crash`` fault.  The executor reruns
    the task (kernels are pure) and, once the active
    :class:`~repro.core.faults.RetryPolicy` is exhausted, finishes the
    sweep inline; this error never escapes the executor.
    """


class SpaceBudgetExceeded(ReproError):
    """Raised when a :class:`repro.streams.space.SpaceMeter` with a hard
    budget observes an allocation beyond that budget.

    The paper converts expected-space guarantees into worst-case guarantees by
    aborting once space exceeds a constant multiple of the expectation
    (Section 3); this exception is the abort signal.
    """


class ParameterError(ReproError):
    """Raised for infeasible or inconsistent estimator parameters.

    Examples: ``epsilon`` outside ``(0, 1)``, a non-positive triangle-count
    guess, or a degeneracy bound smaller than 1.
    """


class EstimationError(ReproError):
    """Raised when an estimator cannot produce an estimate.

    Example: the geometric guessing loop in the driver exhausting all guesses
    without stabilizing (which indicates the graph has no triangles at all or
    the configuration is pathological).
    """


class ServeError(ReproError):
    """Base class for failures of the estimate-serving layer.

    See :mod:`repro.serve`: the daemon, its wire protocol, and the
    client helpers raise subclasses of this error.
    """


class ProtocolError(ServeError):
    """Raised for malformed or invalid serve requests/responses.

    Examples: a request line that is not a JSON object, an unknown
    ``op``, unknown or non-serializable config fields, or a response
    the client helpers cannot decode.  The daemon converts this (like
    every typed error) into an ``{"ok": false, "error": ...}`` response
    rather than dropping the connection.
    """
