"""Self-test of the benchmark at a tiny size (a few seconds per workload).

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it runs ``run.py --size tiny`` untraced and traced and
checks that

* every metric ``BENCHMARK.json`` names is printed, with its unit, and
  the interaction table of ``metrics.py`` covers every per-layer metric;
* the traced and the untraced ops reproduce the same estimates and digests
  (``run.py`` compares them and reports any difference as a failure);
* every child span lies inside its parent;
* self times are non-negative and sum to their root span.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import tracer as tracing
from metrics import MOVES
from run import declared_units

SEED = 3
SECONDS = "2"


def run(workload: str, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=600,
    )
    if out.returncode:
        raise SystemExit(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    declared = declared_units()
    problems = [f"metrics.py has no interaction row for {name}"
                for name in declared[1] if name not in MOVES]

    for workload in workloads:
        for trace in (0, 1):
            lines, result = run(workload, trace)
            label = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct: {lines[-2] if len(lines) > 1 else ''}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared[trace]:
                missing = sorted(set(declared[trace]) - set(printed))
                problems.append(f"{label}: metrics or units differ from BENCHMARK.json {missing}")
            if trace:
                span_file = next(line.split(": ", 1)[1] for line in lines
                                 if line.startswith("span file: "))
                spans = tracing.read_jsonl(span_file)
                if not spans:
                    problems.append(f"{label}: empty span file")
                problems += [f"{label}: {p}" for p in tracing.check_spans(spans)]
                os.remove(span_file)
            print(f"{label}: {result['attempted']} ops checked", flush=True)

    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
