"""In-memory span tracer installed from outside the program under test.

The benchmark records spans around the calls into each layer's public
callables by patching the name where the caller looks it up (a module
attribute or a class attribute).  Nothing under ``src/`` changes, and with
tracing off none of these wrappers is installed.

A span is ``(id, parent, name, start, end, op, thread)``.  Parents come
from a per-thread stack, so spans on the serving daemon's sweep thread and
on its request threads never adopt each other.  Spans stay in memory and
are written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

#: Plans whose kernel time is reported one by one (``kernels.<Plan>.s``).
KERNEL_PLANS = (
    "PositionCollectPlan",
    "DegreeCountPlan",
    "NeighborPositionPlan",
    "WatchKeyPlan",
    "IncidentCollectPlan",
    "PackedKeyCountPlan",
)

#: SpaceMeter categories the estimator charges (``space.<category>.words``).
SPACE_CATEGORIES = (
    "R",
    "degrees",
    "draws",
    "neighbor-reservoirs",
    "closure-watch",
    "fused-incident-buffer",
    "assignment-reservoirs",
    "assignment-degrees",
    "assignment-watch",
)


SPAN_FIELDS = ("id", "parent", "name", "start", "end", "op", "thread")


class Tracer:
    """Spans plus named counters, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.meters: List = []
        self.outcomes: List = []
        self.submitted: Dict[str, float] = {}
        self.admit_waits: List[float] = []
        self.op: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: Optional[str] = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = parent[4] if parent is not None else self.op
        span = [next(self._ids), parent[0] if parent is not None else None, name,
                time.perf_counter(), op]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((span[0], span[1], span[2], span[3], end, span[4],
                           threading.get_ident()))

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def read_jsonl(path: str) -> List[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)[k] for k in SPAN_FIELDS) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# wrappers


def _spanned(tracer: Tracer, name: str, fn: Callable, before=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        span = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)

    return wrapper


def _timed_iter(tracer: Tracer, inner, rows_of) -> Iterable:
    """Re-yield ``inner``, with one ``streams.read`` span per item fetched."""
    try:
        while True:
            span = tracer.begin("streams.read")
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.end(span)
            tracer.add("streams.rows", rows_of(item))
            yield item
    finally:
        inner.close()


def _sweep_opener(tracer: Tracer, fn: Callable, rows_of) -> Callable:
    """Wrap a ``PassScheduler`` method that opens one sweep of ``passes`` passes."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        passes = kwargs.get("passes", args[1] if len(args) > 1 else 1)
        tracer.add("streams.sweeps", 1)
        tracer.add("streams.passes", passes)
        return _timed_iter(tracer, fn(self, *args, **kwargs), rows_of)

    return wrapper


class _ProgramProxy:
    """Generator stand-in timing each step of an ``estimate_program``."""

    def __init__(self, tracer: Tracer, program, op: str) -> None:
        self._tracer = tracer
        self._program = program
        self._op = op

    def __next__(self):
        return self.send(None)

    def send(self, value):
        span = self._tracer.begin("rounds.step", op=self._op)
        try:
            return self._program.send(value)
        except StopIteration as stop:
            self._tracer.outcomes.append(stop.value.result)
            raise
        finally:
            self._tracer.end(span)

    def close(self) -> None:
        self._program.close()


def install(tracer: Tracer, kernels: bool = True, serve: bool = False) -> Callable[[], None]:
    """Install every wrapper; returns a function that removes them again.

    ``kernels=False`` leaves the plan kernels alone: sharded runs pickle
    the kernel by reference into worker processes, so kernel spans are
    serial-only.
    """
    from repro.core import driver, executor, snapshot, speculate, stages
    from repro.core import kernels as kernels_module
    from repro.streams.multipass import PassScheduler
    from repro.streams.space import SpaceMeter

    saved = []

    def patch(owner, attr, value) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    patch(driver.TriangleCountEstimator, "estimate",
          _spanned(tracer, "rounds.estimate", driver.TriangleCountEstimator.estimate))
    sweep = _spanned(tracer, "stages.sweep", stages.sweep_stages)
    patch(stages, "sweep_stages", sweep)
    patch(speculate, "sweep_stages", sweep)

    def count_plans(scheduler, plans, *args, **kwargs) -> None:
        tracer.add("executor.calls", 1)
        tracer.add("executor.plans", len(plans))

    patch(executor, "run_plans",
          _spanned(tracer, "executor.run_plans", executor.run_plans, before=count_plans))
    patch(PassScheduler, "new_fused_pass_chunks",
          _sweep_opener(tracer, PassScheduler.new_fused_pass_chunks, len))
    patch(PassScheduler, "new_pass_chunk_handles",
          _sweep_opener(tracer, PassScheduler.new_pass_chunk_handles, lambda h: h.rows))

    for cls in vars(kernels_module).values():
        if not (isinstance(cls, type) and issubclass(cls, executor.PassPlan)):
            continue
        if cls is executor.PassPlan:
            continue
        patch(cls, "absorb", _spanned(tracer, "kernels.absorb", cls.__dict__["absorb"]))
        if kernels:
            kernel = cls.__dict__["kernel"].__func__

            def count_rows(spec, start_row, rows):
                tracer.add("kernels.calls", 1)
                tracer.add("kernels.rows", len(rows))

            patch(cls, "kernel", staticmethod(
                _spanned(tracer, f"kernels.{cls.__name__}", kernel, before=count_rows)))

    patch(snapshot.SnapshotWriter, "boundary",
          _spanned(tracer, "snapshot.boundary", snapshot.SnapshotWriter.boundary))

    def count_bytes(path, data) -> None:
        tracer.add("snapshot.writes", 1)
        tracer.add("snapshot.bytes", len(data))

    patch(snapshot, "atomic_write_bytes",
          _spanned(tracer, "snapshot.write", snapshot.atomic_write_bytes, before=count_bytes))

    meter_init = SpaceMeter.__init__

    def register_meter(self, *args, **kwargs):
        meter_init(self, *args, **kwargs)
        tracer.meters.append(self)

    patch(SpaceMeter, "__init__", register_meter)

    if serve:
        _install_serve(tracer, patch)

    def restore() -> None:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return restore


def _install_serve(tracer: Tracer, patch) -> None:
    from repro.serve import daemon, scheduler

    program = daemon.estimate_program

    def traced_program(stream, kappa, config=None, owner_prefix=""):
        return _ProgramProxy(tracer, program(stream, kappa, config, owner_prefix), owner_prefix)

    patch(daemon, "estimate_program", traced_program)

    submit = scheduler.SweepScheduler.submit

    def traced_submit(self, job):
        with tracer._lock:
            tracer.submitted[job.owner_prefix] = time.perf_counter()
        return submit(self, job)

    patch(scheduler.SweepScheduler, "submit", traced_submit)

    sweep = scheduler.sweep_tagged_stages

    def traced_sweep(pass_scheduler, tagged):
        now = time.perf_counter()
        riders = sorted({owner.split("/", 1)[0] + "/" for owner, _ in tagged})
        with tracer._lock:
            for prefix in riders:
                submitted = tracer.submitted.pop(prefix, None)
                if submitted is not None:
                    tracer.admit_waits.append(now - submitted)
        span = tracer.begin("serve.sweep", op=",".join(riders))
        try:
            return sweep(pass_scheduler, tagged)
        finally:
            tracer.end(span)

    patch(scheduler, "sweep_tagged_stages", traced_sweep)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: List[tuple]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span[3]
        for child in sorted(children.get(span[0], ()), key=lambda s: s[3]):
            start = max(child[3], cursor)
            end = min(child[4], span[4])
            if end > start:
                covered += end - start
                cursor = end
        result[span[0]] = (span[4] - span[3]) - covered
    return result


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(spans: List[tuple]) -> Dict[str, float]:
    """Total self time per layer (the span name's first component)."""
    totals: Dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for span in spans:
        totals[layer_of(span[2])] += selfs[span[0]]
    return dict(totals)


def check_spans(spans: List[tuple]) -> List[str]:
    """Structural checks: children inside parents, self times add up."""
    problems = []
    by_id = {span[0]: span for span in spans}
    selfs = self_times(spans)
    for span in spans:
        if selfs[span[0]] < -1e-9:
            problems.append(f"negative self time in {span[2]}")
        parent = by_id.get(span[1]) if span[1] is not None else None
        if span[1] is not None and parent is None:
            problems.append(f"{span[2]} has a parent that was never closed")
        elif parent is not None and not (parent[3] <= span[3] and span[4] <= parent[4]):
            problems.append(f"{span[2]} lies outside its parent {parent[2]}")
    roots: Dict[int, int] = {}
    for span in spans:
        root = span
        while root[1] is not None and root[1] in by_id:
            root = by_id[root[1]]
        roots[span[0]] = root[0]
    sums: Dict[int, float] = defaultdict(float)
    for span in spans:
        sums[roots[span[0]]] += selfs[span[0]]
    for root_id, total in sums.items():
        root = by_id[root_id]
        if abs(total - (root[4] - root[3])) > 1e-6:
            problems.append(f"self times under {root[2]} sum to {total}, not its duration")
    return problems


def _total(spans: List[tuple], predicate) -> float:
    return sum(span[4] - span[3] for span in spans if predicate(span[2]))


def layer_metrics(
    spans: List[tuple],
    counters: Dict[str, float],
    results: List[dict],
    meters_peak: Dict[str, int],
    ops: int,
    edges: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run, per op where a rate applies.

    ``results`` holds one summary per computed estimate (see
    ``run.summarize``): round, candidate and waste counts come from there.
    """
    ops = max(ops, 1)
    c = lambda key: float(counters.get(key, 0.0))  # noqa: E731
    selfs = self_times(spans)
    sweeps = c("streams.sweeps")
    rows = c("streams.rows")
    estimate_s = _total(spans, lambda n: n == "rounds.estimate")
    steps_s = _total(spans, lambda n: n == "rounds.step")
    sweep_s = _total(spans, lambda n: n == "stages.sweep")
    kernel_s = {plan: _total(spans, lambda n, p=plan: n == f"kernels.{plan}")
                for plan in KERNEL_PLANS}
    passes_total = sum(r["passes_total"] for r in results)
    passes_wasted = sum(r["passes_wasted"] for r in results)
    metrics = {
        "streams.sweeps": sweeps / ops,
        "streams.passes": c("streams.passes") / ops,
        "streams.read_s": _total(spans, lambda n: n == "streams.read") / ops,
        "streams.rows": rows / ops,
        "streams.row_frac": rows / (sweeps * edges) if sweeps and edges else 0.0,
        "kernels.s": _total(spans, lambda n: n.startswith("kernels.") and n != "kernels.absorb") / ops,
    }
    for plan in KERNEL_PLANS:
        metrics[f"kernels.{plan}.s"] = kernel_s[plan] / ops
    metrics.update({
        "kernels.absorb_s": _total(spans, lambda n: n == "kernels.absorb") / ops,
        "kernels.calls": c("kernels.calls") / ops,
        "kernels.rows": c("kernels.rows") / ops,
        "executor.s": _total(spans, lambda n: n == "executor.run_plans") / ops,
        "executor.self_s": sum(selfs[s[0]] for s in spans if s[2] == "executor.run_plans") / ops,
        "executor.calls": c("executor.calls") / ops,
        "executor.plans_per_call": c("executor.plans") / c("executor.calls") if c("executor.calls") else 0.0,
        "rounds.python_s": (estimate_s - sweep_s if estimate_s else steps_s) / ops,
        "rounds.committed": sum(r["rounds"] for r in results) / ops,
        "rounds.candidates": sum(r["candidates"] for r in results) / ops,
        "rounds.wedges_closed": sum(r["wedges_closed"] for r in results) / ops,
        "driver.sweeps_wasted": sum(r["sweeps_wasted"] for r in results) / ops,
        "driver.passes_wasted": passes_wasted / ops,
        "driver.useful_frac": (passes_total / (passes_total + passes_wasted)
                               if passes_total + passes_wasted else 0.0),
        "snapshot.writes": c("snapshot.writes") / ops,
        "snapshot.write_s": _total(spans, lambda n: n == "snapshot.write") / ops,
        "snapshot.bytes": c("snapshot.bytes") / ops,
        "faults.degradations": sum(r["degradations"] for r in results) / ops,
    })
    for category in SPACE_CATEGORIES:
        metrics[f"space.{category}.words"] = float(meters_peak.get(category, 0))
    return metrics


def meter_peaks(meters: Iterable) -> Dict[str, int]:
    """Per-category peak words, maximised over every meter of the run."""
    peaks: Dict[str, int] = {}
    for meter in meters:
        for category, words in meter.peak_breakdown().items():
            peaks[category] = max(peaks.get(category, 0), words)
    return peaks
