"""Workload inputs: generated from the seed, cached, never timed.

Each workload's input comes from a public generator in
``repro.generators``, shuffled with ``repro.streams.transforms.shuffled``
(the paper's arbitrary-order model) and written as a text edge list.  The
builder also writes a reference ``.etape`` copy and records its
fingerprint, counts the exact ``T`` with ``repro.graph.count_triangles``
and computes solo ``run_estimate_program`` references on that tape (which
is deleted afterwards, to keep the cache small).

Estimator seeds come from the fixed table ``est_seeds.json``: the run's
``--seed`` picks slot ``seed % len(table)``, which names the input seed and
each workload's estimator seeds.  The estimator is randomised, so both its
accuracy and its number of guessing rounds vary with the seed, and a round
more or less moves an op's time by 10-30 %.  The table holds seeds that,
on the commit that defined the benchmark, land within ``(1 +- eps) T`` in
the workload's usual number of rounds (9 on the planted inputs, 4 on the
grid).  Every commit therefore times the same work, and an op whose
estimate leaves ``(1 +- eps) T`` fails.  The table is kept short (six
rows): runs on many seeds then share a few inputs, so their times differ
by little more than the machine's noise, and most runs find their input
already built.

The cache lives under ``perfbench/.work``, one directory per (workload,
size, input seed, source digest): a change under ``src/repro`` gets fresh
inputs and references instead of reusing another commit's.

Run as a script to build one cache entry (used by ``run.py`` so that the
large generated graph never inflates the measuring process)::

    python3 perfbench/inputs.py <workload> <size> <seed>
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import shutil
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

EPSILON = 0.25
WORK_DIR = os.path.join("perfbench", ".work")
SEED_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "est_seeds.json")


@dataclass(frozen=True)
class Spec:
    family: str  # "planted" or "grid"
    args: tuple
    kappa: int


SPECS: Dict[str, Dict[str, Spec]] = {
    "full": {
        "solo-tape": Spec("planted", (929_976, 30_000, 4), 4),
        "robust-grid": Spec("grid", (577, 577), 3),
        "serve-text": Spec("planted", (310_000, 10_000, 4), 4),
    },
    # The self-test's size: same families and code paths, seconds to run.
    "tiny": {
        "solo-tape": Spec("planted", (6_000, 300, 4), 4),
        "robust-grid": Spec("grid", (60, 60), 3),
        "serve-text": Spec("planted", (4_000, 200, 4), 4),
    },
}


def slot(size: str, seed: int) -> dict:
    """The seed table's row for ``seed``: input seed plus estimator seeds."""
    with open(SEED_TABLE, encoding="utf-8") as handle:
        rows = json.load(handle)[size]
    return rows[seed % len(rows)]


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """Digest of every file under ``src/repro``: the code the cache depends on."""
    sha = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join("src", "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            sha.update(path.encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                sha.update(handle.read())
    return sha.hexdigest()[:12]


def entry_dir(workload: str, size: str, seed: int) -> str:
    input_seed = slot(size, seed)["input_seed"]
    name = f"{workload}-{size}-{input_seed}-{source_digest()}"
    return os.path.join(WORK_DIR, "inputs", name)


def trajectory(rounds) -> List[dict]:
    """Rounds in the serving protocol's shape, so every path digests alike."""
    return [
        {
            "t_guess": r.t_guess,
            "median_estimate": r.median_estimate,
            "accepted": r.accepted,
            "runs": [run.estimate for run in r.runs],
        }
        for r in rounds
    ]


def digest(estimate: float, rounds: List[dict], passes_total: int) -> str:
    """Digest of everything an estimate must reproduce bit for bit."""
    text = json.dumps([estimate, rounds, passes_total], separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _graph(spec: Spec, seed: int):
    from repro.generators import planted_triangles_graph, triangulated_grid_graph

    if spec.family == "planted":
        base, triangles, clique = spec.args
        return planted_triangles_graph(
            base, triangles, kappa_clique=clique, rng=random.Random(seed)
        )
    return triangulated_grid_graph(*spec.args)


def _reference(tape: str, kappa: int, est_seed: int) -> dict:
    from repro.core.driver import EstimatorConfig, run_estimate_program
    from repro.serve.protocol import root_rng_digest
    from repro.streams import MmapEdgeStream

    outcome = run_estimate_program(MmapEdgeStream(tape), kappa, EstimatorConfig(seed=est_seed))
    result = outcome.result
    rounds = trajectory(result.rounds)
    return {
        "est_seed": est_seed,
        "estimate": result.estimate,
        "rounds": len(result.rounds),
        "digest": digest(result.estimate, rounds, result.passes_total),
        "root_rng_sha256": root_rng_digest(outcome.root_state),
    }


def build(workload: str, size: str, seed: int) -> dict:
    """Create the cache entry unless it exists; returns its metadata."""
    meta = load(workload, size, seed)
    if meta is not None:
        return meta
    from repro.graph import count_triangles
    from repro.streams import InMemoryEdgeStream, tape_fingerprint, write_tape
    from repro.streams.transforms import shuffled

    spec = SPECS[size][workload]
    row = slot(size, seed)
    input_seed = row["input_seed"]
    directory = entry_dir(workload, size, seed)
    staging = directory + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    graph = _graph(spec, input_seed)
    triangles = count_triangles(graph)
    edges = shuffled(graph, random.Random(input_seed * 7919 + 1))
    del graph
    with open(os.path.join(staging, "edges.txt"), "w", encoding="ascii") as out:
        out.write("".join(f"{u} {v}\n" for u, v in edges))
    tape = os.path.join(staging, "reference.etape")
    write_tape(InMemoryEdgeStream(edges), tape)
    meta = {
        "workload": workload,
        "size": size,
        "input_seed": input_seed,
        "source_digest": source_digest(),
        "edges": len(edges),
        "kappa": spec.kappa,
        "triangles": triangles,
        "fingerprint": tape_fingerprint(tape),
    }
    del edges
    meta["references"] = [_reference(tape, spec.kappa, s) for s in row[workload]]
    os.remove(tape)
    with open(os.path.join(staging, "meta.json"), "w", encoding="utf-8") as out:
        json.dump(meta, out, indent=1)
    shutil.rmtree(directory, ignore_errors=True)
    os.replace(staging, directory)
    return meta


def load(workload: str, size: str, seed: int) -> Optional[dict]:
    path = os.path.join(entry_dir(workload, size, seed), "meta.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        meta = json.load(handle)
    # An entry made for other estimator seeds (an edited table) is rebuilt.
    if [ref["est_seed"] for ref in meta["references"]] != slot(size, seed)[workload]:
        return None
    return meta


if __name__ == "__main__":
    sys.path.insert(0, "src")
    name, size_arg, seed_arg = sys.argv[1:4]
    build(name, size_arg, int(seed_arg))
