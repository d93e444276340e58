"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``stats <edgelist>``
    Offline ground truth of an edge-list file: n, m, T, kappa, d_E,
    max degree, wedges, transitivity.
``exact <edgelist>``
    One-pass exact triangle count with space/pass accounting.
``estimate <edgelist> --kappa K [--epsilon E] [--seed S] [--repetitions R]
[--engine auto|chunked|sharded] [--chunk-size C] [--workers W]
[--speculate-depth K]``
    The paper's estimator on the file's stream; ``--workers`` sets the
    threads per sweep (default: all cores; seed-for-seed identical at any
    count; ``--engine`` names are synonyms of the one engine), and
    ``--speculate-depth`` sets the guessing loop's round *windows* (up to
    that many rounds, default 4, run alongside round i; the prefix up to
    the first acceptance is committed and the rest discarded; identical
    estimates, ~depth-fold fewer sweeps on multi-round estimates; ``1``
    runs the sequential loop).
    ``--max-retries`` tunes the fault-tolerant execution layer and
    ``--faults`` injects deterministic failures for testing; any tier the
    recovery ladder had to drop is reported as a ``degraded:`` line.
``bounds <edgelist>``
    Table 1 predicted space bounds evaluated on the instance.
``generate <family> --out FILE [--scale tiny|small|medium] [--seed S]``
    Write a workload-suite graph to an edge-list file.
``convert <edgelist> [--out FILE] [--validate]``
    Convert a text edge list to the binary ``.etape`` tape format
    (``--validate`` additionally checksums the payload and replays both
    files to prove the round trip exact).
``tape-info <tape>``
    Dump an ``.etape`` header: version, edge count, vertex bound,
    canonical flag, checksum, and the content fingerprint.
``resume <snapshot-or-dir> <edgelist>``
    Continue an interrupted estimate from a durable ``.esnap`` snapshot
    (or the newest valid one in a checkpoint directory) - bit-identical
    to a run that was never interrupted.  Engine flags may override the
    snapshot's stored selection (results are engine-independent).
``snapshot-info <snapshot-or-dir>``
    Dump an ``.esnap`` header and state summary: version, round index,
    committed rounds, accounting, config hash, stream fingerprint.
``serve [--socket PATH] [--port N] [--cache-size N] [--batch-window S]``
    Run the estimate-serving daemon (:mod:`repro.serve`): concurrent
    estimate requests over the same tape share physical sweeps, and
    repeated identical requests are served from the result cache with
    zero sweeps.  Stops on SIGINT/SIGTERM or a ``shutdown`` request.

``estimate`` (and ``resume``) accept ``--checkpoint-dir``: the driver
then writes an atomic ``.esnap`` snapshot after every committed round
(cadence ``--snapshot-every``, rotation ``--snapshot-keep``), and a
SIGINT mid-run, or SIGTERM (honoured at the next round boundary), flushes
a final snapshot before exiting 130, so the run can be continued with
``repro resume``.

Every command taking an input file auto-detects its format by magic
bytes, so text edge lists and ``.etape`` tapes are interchangeable.

All output is plain text; exit code 0 on success, 2 on usage errors and
on expected input failures (missing/unreadable files, malformed tapes or
snapshots, resume mismatches - reported as one line on stderr, never a
traceback), 130 when interrupted (after flushing a final snapshot if
enabled).
"""

from __future__ import annotations

import argparse
import functools
import os
import signal
import sys
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from . import __version__
from .analysis import format_table, predicted_bounds
from .errors import GraphError, ParameterError, ServeError, SnapshotError, StreamError
from .core import engine
from .core.driver import EstimatorConfig, TriangleCountEstimator, stop_requested
from .core.estimator import PASS_BUDGET_PER_ROUND
from .core.exact_reference import ExactStreamingCounter
from .core.knobs import check_count
from .generators import standard_suite, workload_by_name
from .graph.properties import summary
from .graph.triangles import per_edge_triangle_counts
from .io import read_edgelist, write_edgelist
from .streams.base import DEFAULT_CHUNK_EDGES
from .streams.file import FileEdgeStream
from .streams.tape import (
    MmapEdgeStream,
    is_tape,
    open_edge_stream,
    read_header,
    tape_fingerprint,
    verify_tape,
    write_tape,
)


def _checked(check, convert=int):
    """An argparse ``type`` that converts, then ``check``s: a value the
    library rejects is a usage error (exit 2) naming the option, raised
    before any input is read."""

    def parse(text: str):
        value = convert(text)
        try:
            check(value)
        except ParameterError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value: 'x'"
    return parse


def _field(name: str, convert=int):
    """The ``type`` of an option setting :class:`EstimatorConfig`'s ``name``."""
    return _checked(lambda value: EstimatorConfig(**{name: value}), convert)


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser, by name."""
    # Every parser takes options spelled in full only: with prefix matching,
    # a removed option (``--speculate 1``) would resolve to a longer one.
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Degeneracy-aware streaming triangle counting (Bera-Seshadhri, PODS 2020)",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)

    p_stats = add_command("stats", help="offline ground truth of an edge list")
    p_stats.add_argument("edgelist")

    p_exact = add_command("exact", help="one-pass exact triangle count")
    p_exact.add_argument("edgelist")

    p_est = add_command("estimate", help="run the paper's estimator")
    p_est.add_argument("edgelist")
    p_est.add_argument(
        "--kappa",
        type=_checked(functools.partial(check_count, "kappa")),
        required=True,
        help="degeneracy upper bound (promise)",
    )
    p_est.add_argument("--epsilon", type=_field("epsilon", float), default=0.25)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--repetitions", type=_field("repetitions"), default=5)
    p_est.add_argument(
        "--faults",
        type=_field("faults", str),
        default=None,
        help=(
            "deterministic fault-injection spec, e.g. "
            "'worker.crash@2;sweep.mid_stage@3' (testing/benchmarking aid; "
            "default: REPRO_FAULTS policy)"
        ),
    )
    _add_run_arguments(p_est)

    p_bounds = add_command("bounds", help="Table 1 predicted bounds for an instance")
    p_bounds.add_argument("edgelist")

    p_gen = add_command("generate", help="write a workload graph to a file")
    p_gen.add_argument("family", help="workload name (see `repro generate --list`)")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--scale", default="small", choices=["tiny", "small", "medium"])
    p_gen.add_argument("--seed", type=int, default=0)

    p_conv = add_command(
        "convert", help="convert a text edge list to the binary .etape tape format"
    )
    p_conv.add_argument("edgelist")
    p_conv.add_argument(
        "--out", default=None, help="output tape path (default: <edgelist>.etape)"
    )
    p_conv.add_argument(
        "--chunk-size",
        type=_field("chunk_size"),
        default=DEFAULT_CHUNK_EDGES,
        help="edges per streamed conversion batch (bounded memory)",
    )
    p_conv.add_argument(
        "--validate",
        action="store_true",
        help="after writing, checksum the payload and replay both files to "
        "prove the round trip is exact",
    )

    p_info = add_command("tape-info", help="dump an .etape tape header and stats")
    p_info.add_argument("tape")

    p_resume = add_command(
        "resume", help="continue an interrupted estimate from an .esnap snapshot"
    )
    p_resume.add_argument(
        "snapshot", help=".esnap file, or a checkpoint directory (newest valid snapshot)"
    )
    p_resume.add_argument("edgelist", help="the run's input (fingerprint must match)")
    _add_run_arguments(p_resume)

    p_sinfo = add_command("snapshot-info", help="dump an .esnap snapshot header and state summary")
    p_sinfo.add_argument(
        "snapshot", help=".esnap file, or a checkpoint directory (newest valid snapshot)"
    )

    p_serve = add_command("serve", help="run the estimate-serving daemon (cross-job sweep sharing)")
    p_serve.add_argument(
        "--socket",
        default=None,
        help="unix socket path speaking JSON lines (default: REPRO_SERVE_SOCKET)",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=None,
        help=(
            "localhost TCP port for the HTTP transport, 0 = ephemeral "
            "(default: REPRO_SERVE_PORT)"
        ),
    )
    p_serve.add_argument(
        "--cache-size",
        type=int,
        default=None,
        help="result-cache entries (default: REPRO_SERVE_CACHE_SIZE, 256)",
    )
    p_serve.add_argument(
        "--batch-window",
        type=float,
        default=None,
        help=(
            "seconds an idle tape waits for co-riding requests before its "
            "first sweep (default: REPRO_SERVE_BATCH_WINDOW, 0.05)"
        ),
    )

    return parser, sub.choices


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine, recovery and snapshot options of ``estimate`` and ``resume``."""
    parser.add_argument(
        "--engine",
        default=None,
        type=_field("engine_mode", str),
        metavar="{auto,chunked,sharded}",
        help="engine mode name (synonyms of the one engine)",
    )
    parser.add_argument(
        "--chunk-size", type=_field("chunk_size"), default=None, help="edges per chunk of every sweep"
    )
    parser.add_argument(
        "--workers",
        type=_field("workers"),
        default=None,
        help="threads per sweep (default: all cores; 1 = serial)",
    )
    parser.add_argument(
        "--speculate-depth",
        type=_field("speculate_depth"),
        default=None,
        help=(
            "max guessing rounds per window: round i and up to K-1 pre-drawn "
            "later rounds share each pass's tape sweep; the prefix up to the "
            "first acceptance is committed and the rest discarded (identical "
            "estimates, ~K-fold fewer sweeps on multi-round estimates; 1 = the "
            "sequential loop; default: REPRO_SPECULATE_DEPTH policy, 4)"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=_field("max_retries"),
        default=None,
        help=(
            "retries per failed unit of work before the recovery ladder "
            "degrades a tier (0 = degrade immediately; default: "
            "REPRO_MAX_RETRIES policy, 2)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "write an atomic .esnap snapshot of the estimator state here after "
            "each committed round; a killed run resumes bit-identically with "
            "`repro resume` (default: REPRO_CHECKPOINT_DIR policy, disabled)"
        ),
    )
    parser.add_argument(
        "--snapshot-every",
        type=_field("snapshot_every"),
        default=None,
        help="committed rounds between persisted snapshots (default: REPRO_SNAPSHOT_EVERY, 1)",
    )
    parser.add_argument(
        "--snapshot-keep",
        type=_field("snapshot_keep"),
        default=None,
        help="snapshots retained in the rotation (default: REPRO_SNAPSHOT_KEEP, 3)",
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = read_edgelist(args.edgelist)
    s = summary(graph)
    rows = [[key, value] for key, value in s.items()]
    if is_tape(args.edgelist):
        rows.append(["tape rows", read_header(args.edgelist).width])
    print(format_table(["statistic", "value"], rows, caption=f"stats: {args.edgelist}"))
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    stream = open_edge_stream(args.edgelist)
    result = ExactStreamingCounter().count(stream)
    print(f"triangles: {result.triangles}")
    print(f"passes:    {result.passes_used}")
    print(f"space:     {result.space_words_peak} words")
    return 0


@contextmanager
def _graceful_signals(checkpoint_dir: Optional[str]) -> Iterator[None]:
    """Stop at the next round boundary on SIGTERM while checkpointing.

    The handler only sets :data:`repro.core.driver.stop_requested`; the
    driver reads it at each committed round boundary, flushes a final
    snapshot and raises ``KeyboardInterrupt`` (SIGINT still raises it at
    once, and the driver flushes the retained boundary then too).
    Installed only when a checkpoint dir is in force (there is nothing
    durable to flush otherwise) and only where a handler may be installed
    (the main thread).
    """
    if checkpoint_dir is None:
        yield
        return

    def _terminate(signum, frame):
        stop_requested.set()

    stop_requested.clear()
    try:
        previous = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # pragma: no cover - non-main thread embedding
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
        stop_requested.clear()


def _print_estimate(result) -> None:
    print(f"estimate:  {result.estimate:.1f}")
    print(f"rounds:    {len(result.rounds)}")
    print(
        f"passes:    {result.passes_total} total "
        f"({PASS_BUDGET_PER_ROUND} max per round)"
    )
    if result.sweeps_wasted or result.passes_wasted:
        print(
            f"sweeps:    {result.sweeps_total} tape sweeps "
            f"(+{result.sweeps_wasted} wasted; {result.passes_wasted} "
            "speculative passes discarded)"
        )
    else:
        print(f"sweeps:    {result.sweeps_total} tape sweeps")
    print(f"space:     {result.space_words_peak} words peak per run")
    if result.final_plan is not None:
        plan = result.final_plan
        print(f"plan:      r={plan.r} s={plan.s} t_guess={plan.t_guess:.0f}")
    for report in result.degradations:
        print(
            f"degraded:  {report.action} after {report.attempts} attempt(s) "
            f"at {report.site}: {report.cause}"
        )


def _interrupted(checkpoint_dir: Optional[str]) -> int:
    where = f" (latest snapshot in {checkpoint_dir})" if checkpoint_dir else ""
    print(f"interrupted: final snapshot flushed{where}", file=sys.stderr)
    return 130


def _cmd_estimate(args: argparse.Namespace) -> int:
    from .core.snapshot import resolve_checkpoint_dir

    stream = open_edge_stream(args.edgelist)
    config = EstimatorConfig(
        epsilon=args.epsilon,
        seed=args.seed,
        repetitions=args.repetitions,
        engine_mode=args.engine,
        chunk_size=args.chunk_size,
        workers=args.workers,
        speculate_depth=args.speculate_depth,
        max_retries=args.max_retries,
        faults=args.faults,
        checkpoint_dir=args.checkpoint_dir,
        snapshot_every=args.snapshot_every,
        snapshot_keep=args.snapshot_keep,
    )
    checkpoint_dir = resolve_checkpoint_dir(config.checkpoint_dir)
    try:
        with _graceful_signals(checkpoint_dir):
            result = TriangleCountEstimator(config).estimate(stream, kappa=args.kappa)
    except KeyboardInterrupt:
        return _interrupted(checkpoint_dir)
    _print_estimate(result)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from .core.driver import resume_from
    from .core.snapshot import load_source, resolve_checkpoint_dir

    snap = load_source(args.snapshot)
    stream = open_edge_stream(args.edgelist)
    overrides = {
        field: value
        for field, value in (
            ("engine_mode", args.engine),
            ("chunk_size", args.chunk_size),
            ("workers", args.workers),
            ("speculate_depth", args.speculate_depth),
            ("max_retries", args.max_retries),
            ("checkpoint_dir", args.checkpoint_dir),
            ("snapshot_every", args.snapshot_every),
            ("snapshot_keep", args.snapshot_keep),
        )
        if value is not None
    }
    print(f"resuming:  round {snap.round_index} from {snap.path or '<snapshot>'}")
    checkpoint_dir = resolve_checkpoint_dir(args.checkpoint_dir)
    if checkpoint_dir is None and snap.path is not None:
        checkpoint_dir = os.path.dirname(os.path.abspath(snap.path))
    try:
        with _graceful_signals(checkpoint_dir):
            result = resume_from(snap, stream, overrides=overrides)
    except KeyboardInterrupt:
        return _interrupted(checkpoint_dir)
    _print_estimate(result)
    return 0


def _cmd_snapshot_info(args: argparse.Namespace) -> int:
    from .core.snapshot import load_source

    snap = load_source(args.snapshot)
    payload = snap.payload
    accounting = payload.get("accounting") or {}
    rounds = payload.get("rounds") or []
    config = payload.get("config") or {}
    last_median = rounds[-1]["median_estimate"] if rounds else None
    rows = [
        ["version", snap.version],
        ["next round", snap.round_index],
        ["rounds committed", len(rounds)],
        ["median so far", "-" if last_median is None else f"{last_median:.1f}"],
        ["kappa", payload.get("kappa")],
        ["seed", config.get("seed")],
        ["repetitions", config.get("repetitions")],
        ["passes so far", accounting.get("passes_total")],
        ["sweeps so far", accounting.get("sweeps_total")],
        ["space peak (words)", accounting.get("space_words_peak")],
        ["degradations", len(payload.get("degradations") or [])],
        ["config hash", snap.config_hash_hex[:16]],
        ["fingerprint", snap.fingerprint_hex[:16]],
    ]
    print(
        format_table(
            ["field", "value"], rows, caption=f"snapshot: {snap.path or '<snapshot>'}"
        )
    )
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    graph = read_edgelist(args.edgelist)
    s = summary(graph)
    if s["T"] == 0:
        print("graph is triangle-free; bounds are undefined (T = 0)")
        return 0
    max_te = max(per_edge_triangle_counts(graph).values(), default=0)
    rows = predicted_bounds(
        int(s["n"]),
        int(s["m"]),
        float(s["T"]),
        kappa=int(s["kappa"]),
        max_degree=int(s["max_degree"]),
        max_te=int(max_te),
    )
    print(
        format_table(
            ["algorithm", "source", "formula", "passes", "predicted words"],
            [[r.name, r.source, r.formula, r.passes, r.value] for r in rows],
            caption=f"Table 1 bounds for {args.edgelist} "
            f"(n={int(s['n'])} m={int(s['m'])} T={int(s['T'])} kappa={int(s['kappa'])})",
        )
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        workload = workload_by_name(args.family, scale=args.scale)
    except Exception:
        names = ", ".join(w.name for w in standard_suite(args.scale))
        print(f"unknown family {args.family!r}; available: {names}", file=sys.stderr)
        return 2
    graph = workload.instantiate(seed=args.seed)
    write_edgelist(
        graph,
        args.out,
        header=[
            f"family={workload.name} scale={args.scale} seed={args.seed}",
            f"kappa_bound={workload.kappa_bound}",
            workload.description,
        ],
    )
    print(f"wrote {graph.num_edges} edges ({graph.num_vertices} vertices) to {args.out}")
    print(f"degeneracy promise: kappa <= {workload.kappa_bound}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    out = args.out if args.out is not None else f"{args.edgelist}.etape"
    header = write_tape(args.edgelist, out, chunk_size=args.chunk_size)
    print(f"wrote {header.num_edges} edges to {out}")
    print(f"rows: {header.width}")
    print(f"fingerprint: {tape_fingerprint(out)}")
    if args.validate:
        verify_tape(out)  # full-payload CRC against the header
        # The source as written, not open_edge_stream's private tape of it.
        edgelist = args.edgelist
        source = MmapEdgeStream(edgelist) if is_tape(edgelist) else FileEdgeStream(edgelist)
        tape = MmapEdgeStream(out)
        mismatch = _first_mismatch(source, tape, args.chunk_size)
        if mismatch is not None:
            print(f"round-trip MISMATCH at edge {mismatch}", file=sys.stderr)
            return 1
        print(f"validated: checksum and {header.num_edges}-edge round trip exact")
    return 0


def _first_mismatch(source, tape, chunk_size: int) -> Optional[int]:
    """Index of the first differing edge between two streams, or ``None``."""
    import itertools

    import numpy as np

    at = 0
    for a, b in itertools.zip_longest(source.iter_chunks(chunk_size), tape.iter_chunks(chunk_size)):
        if a is None or b is None or len(a) != len(b):
            return at + (0 if a is None or b is None else min(len(a), len(b)))
        if not np.array_equal(a, b):
            return at + int(np.flatnonzero((np.asarray(a) != np.asarray(b)).any(axis=1))[0])
        at += len(a)
    return None


def _cmd_tape_info(args: argparse.Namespace) -> int:
    header = read_header(args.tape)
    rows = [
        ["version", header.version],
        ["edges (m)", header.num_edges],
        ["max vertex id", header.max_vertex_id],
        ["vertex bound (n)", header.num_vertices_upper],
        ["canonical", str(header.canonical).lower()],
        ["rows", header.width],
        ["payload bytes", header.payload_bytes],
        ["checksum (crc32)", f"{header.checksum:#010x}"],
        ["fingerprint", tape_fingerprint(args.tape)],
    ]
    print(format_table(["field", "value"], rows, caption=f"tape: {args.tape}"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.daemon import serve_forever

    return serve_forever(
        socket_path=args.socket,
        port=args.port,
        cache_size=args.cache_size,
        batch_window=args.batch_window,
    )


_COMMANDS = {
    "stats": _cmd_stats,
    "exact": _cmd_exact,
    "estimate": _cmd_estimate,
    "bounds": _cmd_bounds,
    "generate": _cmd_generate,
    "convert": _cmd_convert,
    "tape-info": _cmd_tape_info,
    "resume": _cmd_resume,
    "snapshot-info": _cmd_snapshot_info,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Expected failure modes - missing or unreadable inputs, malformed
    text, tapes and snapshots, mismatched resume state, serve
    misconfiguration - exit 2 with a one-line ``repro <command>:
    <message>`` on stderr instead of a traceback.  An option value the
    library would reject exits 2 from argparse, naming the option, before
    any input is read (see :func:`_checked`).  Genuinely unexpected
    exceptions - a :class:`~repro.errors.ParameterError` included - still
    propagate: a traceback is the right interface for a bug.
    """
    parser, commands = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # Report with the chosen subcommand's usage, which lists its options.
        commands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return _COMMANDS[args.command](args)
    except (StreamError, SnapshotError, GraphError, ServeError, OSError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
