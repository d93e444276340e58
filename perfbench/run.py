"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload solo-tape --seed 1 --seconds 25 --trace 0

Workloads are ``solo-tape``, ``robust-grid`` and ``serve-text``;
``BENCHMARK.json`` says why each exists and lists every metric with its
unit.  The inputs and the estimator seeds follow from ``--seed`` (see
``inputs.py``) and are cached under ``perfbench/.work`` (untimed).
``--trace 0`` prints the end-to-end metrics, measured with no tracing
wrapper installed:

* ``estimate_s``: median wall time of one computed estimate, after an
  untimed warm-up call on the tapes (on
  ``serve-text``, of the requests the cache did not answer);
* ``job_latency_s``: median time from sending a request to its result,
  cache hits included (on the tapes, one estimate call);
* ``jobs_per_s``: completed requests (estimate calls) over the measured
  wall time;
* ``setup_s``: the program's own set-up, median of several: ``write_tape``
  plus open, plus the pool start on ``robust-grid``; daemon spawn to the
  first answered ping on ``serve-text``;
* ``peak_rss_mb``: peak RSS of the working processes: the estimating
  process, plus its pool workers on ``robust-grid``; the daemon on
  ``serve-text``;
* ``space_words``: ``space_words_peak``, the paper's metered space, max
  over ops.

``--trace 1`` prints the per-layer metrics of a traced run (``metrics.py``
says what each should move), the per-layer self times, and writes the span
file.  Every op's output is checked against a solo reference; the last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import inputs
import tracer as tracing
from tape_worker import SETUP_REPEATS, WORKERS, vm_hwm_mb

SERVE_CLIENTS = 2
#: Worker processes (robust-grid) or client threads (serve-text) per workload.
PARALLELISM = {"solo-tape": 1, "robust-grid": WORKERS, "serve-text": SERVE_CLIENTS}
#: Seconds allowed for one served request or one daemon start.
REQUEST_TIMEOUT = 150.0


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def child_env() -> dict:
    """The environment of every process the benchmark starts: no REPRO_* knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def declared_units() -> dict:
    """``{trace: {metric: unit}}`` as ``BENCHMARK.json`` declares them."""
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def ensure_inputs(workload: str, size: str, seed: int) -> dict:
    meta = inputs.load(workload, size, seed)
    if meta is None:
        subprocess.run(
            [sys.executable, "perfbench/inputs.py", workload, size, str(seed)],
            env=child_env(),
            check=True,
            timeout=600,
        )
        meta = inputs.load(workload, size, seed)
    return meta


def check_op(op: dict, reference: dict, triangles: int) -> list:
    """Why one op failed; empty when it reproduced its reference."""
    if op.get("error"):
        return [op["error"]]
    problems = []
    if op["digest"] != reference["digest"]:
        problems.append(f"estimate {op['estimate']} differs from reference {reference['estimate']}")
    if abs(op["estimate"] - triangles) > inputs.EPSILON * triangles:
        problems.append(f"estimate {op['estimate']} outside (1 +- {inputs.EPSILON}) * {triangles}")
    if op.get("degradations"):
        problems.append(f"{op['degradations']} degradations")
    if op.get("root_rng_sha256") != reference["root_rng_sha256"]:
        problems.append("root RNG digest differs from the solo reference")
    return problems


def judge(ops: list, reference_of, triangles: int) -> tuple:
    """``(failed ops, their problems)`` over ``ops``."""
    verdicts = [check_op(op, reference_of(op), triangles) for op in ops]
    return sum(1 for v in verdicts if v), [p for v in verdicts for p in v]


# ---------------------------------------------------------------------------
# tape workloads


def run_tape(args, meta: dict, work: str) -> dict:
    reference = meta["references"][0]
    out = os.path.join(work, f"{args.workload}-{args.seed}-{os.getpid()}.json")
    trace_file = os.path.join(work, f"trace-{args.workload}-{args.seed}.jsonl")
    subprocess.run(
        [
            sys.executable, "perfbench/tape_worker.py",
            "--workload", args.workload,
            "--input", inputs.entry_dir(args.workload, args.size, args.seed),
            "--est-seed", str(reference["est_seed"]),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--trace-file", trace_file,
            "--out", out,
        ],
        env=child_env(),
        check=True,
        timeout=170,
    )
    with open(out, encoding="utf-8") as handle:
        doc = json.load(handle)
    os.remove(out)

    ops, traced = doc["ops"], doc["traced_ops"]
    every = doc["warmup_ops"] + ops + traced
    failed, failures = judge(every, lambda op: reference, meta["triangles"])
    problems = []
    if doc["fingerprint"] != meta["fingerprint"]:
        problems.append("converted tape fingerprint differs from the reference tape")

    times = [op["seconds"] for op in ops]
    median = statistics.median(times)
    pool_start = statistics.median(doc["pool_start_s"])
    report = {
        "attempted": len(every),
        "failed": failed,
        "samples": times,
        "problems": problems + failures,
    }
    if not args.trace:
        report["metrics"] = {
            "estimate_s": median,
            "job_latency_s": median,
            "jobs_per_s": len(times) / sum(times),
            "setup_s": statistics.median(doc["setup_s"]) + pool_start,
            "peak_rss_mb": doc["peak_rss_mb"],
            "space_words": float(max(op.get("space_words", 0) for op in ops)),
        }
        return report

    spans = tracing.read_jsonl(trace_file)
    peaks = {}
    for op in traced:
        for category, words in op.get("space_peaks", {}).items():
            peaks[category] = max(peaks.get(category, 0), words)
    layer = tracing.layer_metrics(
        spans, doc["counters"], [op for op in traced if "error" not in op],
        peaks, len(traced), meta["edges"],
    )
    traced_median = statistics.median(op["seconds"] for op in traced)
    layer.update({name: 0.0 for name in declared_units()[1] if name.startswith("serve.")})
    layer.update({
        "executor.pool_start_s": pool_start,
        "trace.overhead_s": traced_median - median,
        "trace.overhead_frac": (traced_median - median) / median,
        "trace.spans": len(spans) / len(traced),
    })
    if {op.get("digest") for op in ops} != {op.get("digest") for op in traced}:
        problems.append("traced and untraced estimates differ")
    report.update(metrics=layer, spans=spans, span_ops=len(traced), trace_file=trace_file)
    report["problems"] = problems + failures + tracing.check_spans(spans)
    return report


# ---------------------------------------------------------------------------
# serve-text


class Daemon:
    """One serving daemon process, started and stopped by the benchmark."""

    def __init__(self, work: str, index: int, traced: bool) -> None:
        from repro.serve.protocol import request_unix

        self._request = request_unix
        # Relative: a checkout path can exceed the unix socket path limit.
        self.socket = os.path.relpath(os.path.join(work, f"d{os.getpid()}-{index}.sock"))
        self.trace_file = os.path.join(work, f"trace-serve-{os.getpid()}-{index}.jsonl")
        self.summary = os.path.join(work, f"summary-serve-{os.getpid()}-{index}.json")
        if traced:
            command = [sys.executable, "perfbench/serve_launcher.py", "--socket", self.socket,
                       "--trace-file", self.trace_file, "--summary", self.summary]
        else:
            command = [sys.executable, "-m", "repro", "serve", "--socket", self.socket]
        self._log_path = os.path.join(work, f"daemon-{os.getpid()}-{index}.log")
        self._log = open(self._log_path, "wb")
        start = time.perf_counter()
        self.process = subprocess.Popen(command, env=child_env(), stdout=self._log,
                                        stderr=subprocess.STDOUT)
        try:
            while True:
                if self.process.poll() is not None:
                    raise RuntimeError(f"daemon exited with {self.process.returncode} "
                                       f"before answering; see {self._log_path}")
                if time.perf_counter() - start > REQUEST_TIMEOUT:
                    raise RuntimeError("daemon did not answer a ping")
                try:
                    if self.request({"op": "ping"}, timeout=5.0).get("ok"):
                        break
                except OSError:
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - start

    def request(self, document: dict, timeout: float = REQUEST_TIMEOUT) -> dict:
        return self._request(self.socket, document, timeout=timeout)

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.request({"op": "shutdown"}, timeout=10.0)
                self.process.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self._log.close()
        if self.process.returncode == 0 and os.path.exists(self._log_path):
            os.remove(self._log_path)
        if os.path.exists(self.socket):
            os.remove(self.socket)


def client_round(daemon: Daemon, path: str, kappa: int, refs: list) -> tuple:
    """Two closed-loop clients, four requests each; the 4th repeats the 1st."""
    plans = [[refs[3 * c], refs[3 * c + 1], refs[3 * c + 2], refs[3 * c]]
             for c in range(SERVE_CLIENTS)]
    records = [[] for _ in plans]
    barrier = threading.Barrier(SERVE_CLIENTS + 1)

    def client(index: int) -> None:
        barrier.wait()
        for ref in plans[index]:
            start = time.perf_counter()
            try:
                response = daemon.request({
                    "op": "estimate", "path": path, "kappa": kappa,
                    "config": {"seed": ref["est_seed"]},
                })
            except Exception as exc:  # noqa: BLE001 - a failed request is a measurement
                response = {"ok": False, "error": {"message": f"{type(exc).__name__}: {exc}"}}
            records[index].append((time.perf_counter() - start, ref, response))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, [r for rs in records for r in rs]


def serve_op(latency: float, response: dict) -> dict:
    if not response.get("ok"):
        return {"error": str(response.get("error")), "seconds": latency}
    return {
        "seconds": latency,
        "cached": response["cached"],
        "estimate": response["estimate"],
        "digest": inputs.digest(response["estimate"], response["rounds"], response["passes_total"]),
        "root_rng_sha256": response["root_rng_sha256"],
        "space_words": response["space_words_peak"],
        "sweeps_total": response["sweeps_total"],
        "degradations": response.get("degradations"),
    }


def serve_round(args, meta: dict, work: str, index: int, traced: bool) -> dict:
    """One round of requests on a daemon of its own, so no round is answered
    from an earlier round's cache."""
    path = os.path.join(inputs.entry_dir(args.workload, args.size, args.seed), "edges.txt")
    daemon = Daemon(work, index, traced)
    try:
        wall, records = client_round(daemon, path, meta["kappa"], meta["references"])
        stats = daemon.request({"op": "stats"})
        rss = vm_hwm_mb(daemon.process.pid)
    finally:
        daemon.stop()
    ops = [dict(serve_op(latency, response), ref=ref) for latency, ref, response in records]
    return {"daemon": daemon, "wall": wall, "ops": ops, "stats": stats, "rss": rss}


def run_serve(args, meta: dict, work: str) -> dict:
    if args.trace:
        plain = serve_round(args, meta, work, 0, traced=False)
        rounds = [serve_round(args, meta, work, 1, traced=True)]
    else:
        # Another round only while it, taking as long as the last, ends in time.
        rounds = []
        while not rounds or sum(r["wall"] for r in rounds) + rounds[-1]["wall"] <= args.seconds:
            rounds.append(serve_round(args, meta, work, len(rounds), traced=False))
        setups = [r["daemon"].start_s for r in rounds]
        while len(setups) < SETUP_REPEATS:
            daemon = Daemon(work, SETUP_REPEATS + len(setups), traced=False)
            daemon.stop()
            setups.append(daemon.start_s)

    ops = [op for r in rounds for op in r["ops"]]
    checked = ops + (plain["ops"] if args.trace else [])
    failed, failures = judge(checked, lambda op: op["ref"], meta["triangles"])
    latencies = [op["seconds"] for op in ops]
    computed = [op for op in ops if "error" not in op and not op["cached"]] or ops
    report = {"attempted": len(checked), "failed": failed, "samples": latencies,
              "problems": failures}
    if not args.trace:
        report["metrics"] = {
            "estimate_s": statistics.median(op["seconds"] for op in computed),
            "job_latency_s": statistics.median(latencies),
            "jobs_per_s": len(ops) / sum(r["wall"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["rss"] for r in rounds),
            "space_words": float(max(op.get("space_words", 0) for op in ops)),
        }
        return report

    session = rounds[0]
    daemon = session["daemon"]
    spans = tracing.read_jsonl(daemon.trace_file)
    with open(daemon.summary, encoding="utf-8") as handle:
        summary = json.load(handle)
    # Served responses carry no degradations; the traced daemon's results do.
    degraded = sum(1 for result in summary["results"] if result["degradations"])
    if degraded:
        report["failed"] = min(failed + degraded, len(checked))
        failures.append(f"{degraded} served jobs recorded degradations")
    n = len(ops)
    layer = tracing.layer_metrics(spans, summary["counters"], summary["results"],
                                  summary["space_peaks"], n, meta["edges"])
    stats = session["stats"]
    tape = stats["tapes"][0] if stats.get("tapes") else {}
    cache = stats.get("cache", {})
    solo = sum(op.get("sweeps_total", 0) for op in computed)
    physical = tape.get("sweeps_physical", 0)
    untraced = statistics.median(op["seconds"] for op in plain["ops"])
    traced = statistics.median(latencies)
    waits = summary["admit_waits"]
    layer.update({
        "executor.pool_start_s": 0.0,
        "serve.sweeps_physical": physical / n,
        "serve.sweeps_solo": solo / n,
        "serve.coride_ratio": solo / physical if physical else 0.0,
        "serve.cache_hits": cache.get("hits", 0) / n,
        "serve.cache_misses": cache.get("misses", 0) / n,
        "serve.admit_wait_s": sum(waits) / len(waits) if waits else 0.0,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_frac": (traced - untraced) / untraced,
        "trace.spans": len(spans) / n,
    })
    plain_digests = {(op["ref"]["est_seed"], op.get("digest")) for op in plain["ops"]}
    traced_digests = {(op["ref"]["est_seed"], op.get("digest")) for op in ops}
    if plain_digests != traced_digests:
        failures.append("traced and untraced served estimates differ")
    report.update(metrics=layer, spans=spans, span_ops=n, trace_file=daemon.trace_file,
                  problems=failures + tracing.check_spans(spans))
    return report


# ---------------------------------------------------------------------------


def print_self_times(spans: list, ops: int) -> None:
    totals = tracing.layer_self_times(spans)
    whole = sum(totals.values()) or 1.0
    print("self time per layer (s/op, share of traced time):")
    for layer, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {seconds / max(ops, 1):10.4f}  {100 * seconds / whole:5.1f}%")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARALLELISM))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(inputs.SPECS), default="full")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run.py: no src/repro here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    env = environment()
    print(json.dumps({"env": env}))
    if PARALLELISM[args.workload] > env["nproc"]:
        print(f"run.py: {args.workload} needs {PARALLELISM[args.workload]} processors, "
              f"this machine offers {env['nproc']}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    work = os.path.join(inputs.WORK_DIR, "runs")
    os.makedirs(work, exist_ok=True)
    meta = ensure_inputs(args.workload, args.size, args.seed)
    runner = run_serve if args.workload == "serve-text" else run_tape
    report = runner(args, meta, work)

    units = declared_units()[args.trace]
    if args.trace:
        print_self_times(report["spans"], report["span_ops"])
        print(f"span file: {report['trace_file']}")
    # ``samples``: the timed ops behind each median (too few for a tail percentile).
    print(json.dumps({"ops": report["attempted"], "ops_failed": report["failed"],
                      "samples": len(report["samples"]),
                      "sample_s": [round(t, 4) for t in report["samples"]],
                      "problems": list(dict.fromkeys(report["problems"]))[:20]}))
    for name, value in report["metrics"].items():
        print(f"{name:<32} {value:.6g} {units[name]}")
    correct = report["failed"] == 0 and not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
