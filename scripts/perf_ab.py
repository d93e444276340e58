#!/usr/bin/env python
"""Paired A/B runs of the repository benchmark: a base tree against a change.

Usage, from anywhere::

    python scripts/perf_ab.py --base BASE_DIR --change CHANGE_DIR \\
        --workload solo-tape --pairs 10 [--seed 1] [--seconds 25] [--trace]

Each ``DIR`` is a source tree holding ``src/``, ``perfbench/`` and
``BENCHMARK.json`` (a parent tree comes from ``git archive <rev> | tar -x
-C DIR``).  A pair runs the tree's own, unchanged ``perfbench/run.py``
once per side, each in a fresh process, and the side that goes first
alternates from pair to pair, so drift on a shared machine falls on both
sides alike.  ``--trace`` runs ``--trace 1``, whose metrics are the
per-layer ones (``streams.read_s``, ``kernels.s``, ...).

For every metric both sides report, it prints each side's median and
quartiles, how many pairs the change won (lower or higher is better as
``BENCHMARK.json`` declares), and a two-sided sign-test p over the pairs
that were not ties.  It also checks the results: every run must report
``correct``, and both trees' solo references (the estimate digest and the
root-RNG digest per estimator seed, which each run checks its ops
against) must be equal.  The last line of output is one JSON record.

Timing never fails a run: the exit status is 1 only when a run failed or
the two trees' results differ.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SIDES = ("base", "change")


def pair_order(index: int) -> Tuple[str, str]:
    """The sides of pair ``index`` in the order they run: base first on even
    pairs, change first on odd ones."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact sign-test p of ``wins`` against ``losses`` (ties dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values`` (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_pairs(pairs: int, run_side: Callable[[str], dict]) -> List[Dict[str, dict]]:
    """``pairs`` records ``{"base": run, "change": run}``, each side run by
    ``run_side(side)`` in :func:`pair_order`."""
    records = []
    for index in range(pairs):
        record = {}
        for side in pair_order(index):
            record[side] = run_side(side)
        records.append(record)
    return records


def summarize(records: Sequence[Dict[str, dict]], better: Dict[str, str]) -> Dict[str, dict]:
    """Per metric both sides report in every pair: each side's quartiles,
    the change's wins, losses and ties, and the sign-test p."""
    names = None
    for record in records:
        for side in SIDES:
            present = set(record[side].get("metrics", {}))
            names = present if names is None else names & present
    report = {}
    for name in sorted(names or ()):
        values = {
            side: [record[side]["metrics"][name]["value"] for record in records] for side in SIDES
        }
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        deltas = [sign * (c - b) for b, c in zip(values["base"], values["change"])]
        wins = sum(1 for d in deltas if d > 0)
        losses = sum(1 for d in deltas if d < 0)
        entry = {side: dict(zip(("q1", "median", "q3"), quartiles(values[side]))) for side in SIDES}
        entry.update(
            unit=records[0]["change"]["metrics"][name].get("unit", ""),
            better=better.get(name, "lower"),
            wins=wins,
            losses=losses,
            ties=len(deltas) - wins - losses,
            p=sign_test_p(wins, losses),
        )
        report[name] = entry
    return report


def reference_problems(base: Optional[dict], change: Optional[dict]) -> List[str]:
    """Why the two trees' solo references differ (empty when they agree).

    A reference is the ``meta.json`` each tree's ``perfbench/inputs.py``
    wrote: its graph facts and, per estimator seed, the estimate digest
    and the root-RNG digest its runs' ops are checked against."""
    if base is None or change is None:
        return ["a tree wrote no input reference"]

    def facts(meta: dict) -> tuple:
        refs = [
            (ref["est_seed"], ref["digest"], ref["root_rng_sha256"]) for ref in meta["references"]
        ]
        return meta["edges"], meta["triangles"], refs

    if facts(base) != facts(change):
        return ["the trees' solo references differ (edges, triangles or digests)"]
    return []


def _better(tree: str) -> Dict[str, str]:
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def _run_benchmark(tree: str, args: argparse.Namespace) -> dict:
    """One fresh-process run of ``tree``'s ``perfbench/run.py``: its last
    JSON line, or ``{"correct": False, "error": ...}``."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if args.trace else "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        return {"correct": False, "error": (done.stderr or done.stdout).strip()[-2000:]}
    return json.loads(lines[-1])


def _reference(tree: str, args: argparse.Namespace) -> Optional[dict]:
    """The input reference ``tree``'s runs were checked against."""
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import inputs; "
        f"print(inputs.entry_dir({args.workload!r}, 'full', {args.seed}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tree, capture_output=True, text=True, check=True
    )
    path = os.path.join(tree, done.stdout.strip(), "meta.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _print_report(report: Dict[str, dict], pairs: int) -> None:
    print(f"{'metric':<36} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30}  wins  p")
    for name, entry in report.items():
        cells = [
            f"{entry[side]['median']:.4g} [{entry[side]['q1']:.4g}, {entry[side]['q3']:.4g}]"
            for side in SIDES
        ]
        print(
            f"{name:<36} {cells[0]:>30} {cells[1]:>30}  "
            f"{entry['wins']:>2}/{pairs}  {entry['p']:.3g}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the base source tree")
    parser.add_argument("--change", required=True, help="the changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", action="store_true", help="run the traced per-layer metrics")
    args = parser.parse_args(argv)
    trees = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}

    def run_side(side: str) -> dict:
        run = _run_benchmark(trees[side], args)
        print(f"{side:<6} correct={run.get('correct')} {run.get('error', '')}", flush=True)
        return run

    records = run_pairs(args.pairs, run_side)
    report = summarize(records, _better(trees["change"]))
    problems = [
        f"pair {index} {side}: run not correct"
        for index, record in enumerate(records)
        for side in SIDES
        if not record[side].get("correct")
    ]
    problems += reference_problems(_reference(trees["base"], args), _reference(trees["change"], args))
    _print_report(report, args.pairs)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pairs": args.pairs,
        "results_equal": not problems,
        "problems": problems,
        "metrics": report,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
