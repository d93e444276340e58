"""Golden digests: the estimator's pinned output at every worker count.

Every value below was recorded with the per-edge reference passes (the
folds of ``tests/reference_passes.py``), so the NumPy plans that run
every pass must reproduce them bit for bit - serially and on two threads:

* **estimate level** - the parity matrix's graph families, each under the
  default schedule and sequentially (``speculate_depth=1``):
  the estimate, the number of guessing rounds, a digest of the whole
  rounds trajectory (every run's diagnostics), ``passes_total``,
  ``space_words_peak`` and the root generator's final state;
* **single runner** - :func:`run_single_estimate` on the kernel-parity
  families at seeds 0-2: every :class:`SinglePassStackResult` field and
  the instance generator's final state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

import repro.core.driver as driver_module
from repro.core import engine, executor
from repro.core.driver import EstimatorConfig, TriangleCountEstimator
from repro.core.estimator import run_single_estimate
from repro.core.params import ParameterPlan
from repro.generators import (
    barabasi_albert_graph,
    complete_graph,
    erdos_renyi_gnp,
    planted_triangles_graph,
    rmat_graph,
    star_graph,
    wheel_graph,
)
from repro.graph import count_triangles, degeneracy
from repro.serve.protocol import root_rng_digest
from repro.streams import InMemoryEdgeStream
from repro.streams.transforms import shuffled

WORKERS = [1, 2]

#: The parity matrix's fast-tier families: (graph builder, seed).
ESTIMATE_GRAPHS = {
    "erdos-renyi": (lambda: erdos_renyi_gnp(90, 0.09, random.Random(11)), 5),
    "power-law": (lambda: barabasi_albert_graph(140, 4, random.Random(7)), 3),
    "star": (lambda: star_graph(80), 1),
    "clique": (lambda: complete_graph(18), 9),
}

#: Schedules: ``speculate_depth``, pinned explicitly so no ambient
#: ``REPRO_*`` setting leaks in.
SCHEDULES = {
    "default": engine.DEFAULT_SPECULATE_DEPTH,
    "sequential": 1,
}

#: The kernel-parity families for the single runner.
SINGLE_GRAPHS = {
    "wheel": lambda: wheel_graph(150),
    "rmat": lambda: rmat_graph(9, 6, random.Random(5)),
    "planted": lambda: planted_triangles_graph(200, 80, kappa_clique=6, rng=random.Random(7)),
}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode("ascii")).hexdigest()


def estimate_digest(name: str, schedule: str, workers: int, mode: str = "chunked") -> dict:
    """Run one estimate-level case and reduce it to its golden fields."""
    build, seed = ESTIMATE_GRAPHS[name]
    depth = SCHEDULES[schedule]
    graph = build()
    stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(seed)))
    config = EstimatorConfig(
        seed=seed,
        repetitions=3,
        engine_mode=mode,
        chunk_size=64,
        workers=workers,
        speculate_depth=depth,
    )
    roots = []
    real_make_rng = driver_module.make_rng

    def recording_make_rng(root_seed):
        roots.append(real_make_rng(root_seed))
        return roots[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "TASK_ROWS_FLOOR", 32)  # several tasks per sweep
        patch.setattr(driver_module, "make_rng", recording_make_rng)
        result = TriangleCountEstimator(config).estimate(stream, kappa=max(1, degeneracy(graph)))
    # The digests were recorded when every run also reported a trailing
    # ``sweeps_used``, which always equalled ``passes_used``; the field
    # is rebuilt from ``passes_used`` so the recorded digests still bind.
    trajectory = [
        (
            r.t_guess,
            r.median_estimate,
            r.accepted,
            [dict(run.to_state(), sweeps_used=run.passes_used) for run in r.runs],
        )
        for r in result.rounds
    ]
    return {
        "estimate": result.estimate,
        "rounds": len(result.rounds),
        "trajectory": _sha(trajectory),
        "passes_total": result.passes_total,
        "space_words_peak": result.space_words_peak,
        "root_rng": root_rng_digest(roots[-1].getstate()),
    }


def single_digest(family: str, seed: int, workers: int) -> dict:
    """Run one single-runner case: its result fields plus the generator digest."""
    graph = SINGLE_GRAPHS[family]()
    stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(11)))
    kappa = max(1, degeneracy(graph))
    t = float(max(1, count_triangles(graph)))
    plan = ParameterPlan.build(graph.num_vertices, graph.num_edges, kappa, t, 0.25)
    rng = random.Random(seed)
    with engine.engine_overrides(chunk_size=257, workers=workers):
        result = run_single_estimate(stream, plan, rng)
    return dict(dataclasses.asdict(result), rng=root_rng_digest(rng.getstate()))


ESTIMATE_GOLDEN = {
    ("erdos-renyi", "default"): dict(
        estimate=84.56275826446281,
        rounds=6,
        trajectory="92aa2bd3dbb8dde334f0b5d5d59fbd68f9de78283fca7476b35474a55e6e7f0d",
        passes_total=36,
        space_words_peak=469117,
        root_rng="15b7d93a1013fec146aa0c5c336e4852b4edbf604222ecc44bab917e3740695c",
    ),
    ("erdos-renyi", "sequential"): dict(
        estimate=84.56275826446281,
        rounds=6,
        trajectory="92aa2bd3dbb8dde334f0b5d5d59fbd68f9de78283fca7476b35474a55e6e7f0d",
        passes_total=36,
        space_words_peak=469117,
        root_rng="15b7d93a1013fec146aa0c5c336e4852b4edbf604222ecc44bab917e3740695c",
    ),
    ("power-law", "default"): dict(
        estimate=246.26886397737766,
        rounds=5,
        trajectory="e8e746f19c6663b98d304a56821e2bdabdee1a6371a08ca5055a741d9f741144",
        passes_total=30,
        space_words_peak=284522,
        root_rng="f6c1e88b4f9f11e2ada4944e5f3f16f24a801244f36075112d714af16f9e7bac",
    ),
    ("power-law", "sequential"): dict(
        estimate=246.26886397737766,
        rounds=5,
        trajectory="e8e746f19c6663b98d304a56821e2bdabdee1a6371a08ca5055a741d9f741144",
        passes_total=30,
        space_words_peak=284522,
        root_rng="f6c1e88b4f9f11e2ada4944e5f3f16f24a801244f36075112d714af16f9e7bac",
    ),
    ("star", "default"): dict(
        estimate=0.0,
        rounds=8,
        trajectory="9a7d2a75096a94c5c0a75438ea58ec104b90827788a7bf5121f23a7239d71205",
        passes_total=32,
        space_words_peak=5155,
        root_rng="182efd36011b8f40cbf03db5ce6ecbeb8724f7e26092c2640694da926ffd59c7",
    ),
    ("star", "sequential"): dict(
        estimate=0.0,
        rounds=8,
        trajectory="9a7d2a75096a94c5c0a75438ea58ec104b90827788a7bf5121f23a7239d71205",
        passes_total=32,
        space_words_peak=5155,
        root_rng="182efd36011b8f40cbf03db5ce6ecbeb8724f7e26092c2640694da926ffd59c7",
    ),
    ("clique", "default"): dict(
        estimate=731.53125,
        rounds=3,
        trajectory="01fd715019c8432f4b2c7c5ef688c92d5c1917f0c9237060674e09c73f3c158d",
        passes_total=18,
        space_words_peak=40431,
        root_rng="af7d4a75a56050276f2bc1aa5504b9b0788c0ee00f89fcc2cb9e3358d8e90974",
    ),
    ("clique", "sequential"): dict(
        estimate=731.53125,
        rounds=3,
        trajectory="01fd715019c8432f4b2c7c5ef688c92d5c1917f0c9237060674e09c73f3c158d",
        passes_total=18,
        space_words_peak=40431,
        root_rng="af7d4a75a56050276f2bc1aa5504b9b0788c0ee00f89fcc2cb9e3358d8e90974",
    ),
}

SINGLE_GOLDEN = {
    ("wheel", 0): dict(
        estimate=155.20833333333334,
        r=288,
        ell=288,
        d_r=864.0,
        wedges_closed=134,
        assigned_hits=50,
        distinct_candidate_triangles=75,
        passes_used=6,
        space_words_peak=73504,
        rng="d4738a3174d4ea5b7958d3b8932b352d32dc8d1e1b6a502a3d7608221c083eba",
    ),
    ("wheel", 1): dict(
        estimate=176.93750000000003,
        r=288,
        ell=288,
        d_r=864.0,
        wedges_closed=164,
        assigned_hits=57,
        distinct_candidate_triangles=96,
        passes_used=6,
        space_words_peak=85656,
        rng="77e364b9fb2143e18e6eece9907126e33bab31ec0d7f72505c1c12e9ae61c19c",
    ),
    ("wheel", 2): dict(
        estimate=149.0,
        r=288,
        ell=288,
        d_r=864.0,
        wedges_closed=144,
        assigned_hits=48,
        distinct_candidate_triangles=78,
        passes_used=6,
        space_words_peak=74508,
        rng="31278d9dc13e5255c4cbaa62ce83bacdea7db665f001457880679c3534e7009c",
    ),
    ("rmat", 0): dict(
        estimate=11914.268218003674,
        r=284,
        ell=276,
        d_r=6080.0,
        wedges_closed=146,
        assigned_hits=50,
        distinct_candidate_triangles=142,
        passes_used=6,
        space_words_peak=147344,
        rng="d4738a3174d4ea5b7958d3b8932b352d32dc8d1e1b6a502a3d7608221c083eba",
    ),
    ("rmat", 1): dict(
        estimate=11911.004386977602,
        r=284,
        ell=305,
        d_r=6717.0,
        wedges_closed=161,
        assigned_hits=50,
        distinct_candidate_triangles=157,
        passes_used=6,
        space_words_peak=157179,
        rng="77e364b9fb2143e18e6eece9907126e33bab31ec0d7f72505c1c12e9ae61c19c",
    ),
    ("rmat", 2): dict(
        estimate=14552.436812656764,
        r=284,
        ell=292,
        d_r=6440.0,
        wedges_closed=150,
        assigned_hits=61,
        distinct_candidate_triangles=148,
        passes_used=6,
        space_words_peak=145320,
        rng="31278d9dc13e5255c4cbaa62ce83bacdea7db665f001457880679c3534e7009c",
    ),
    ("planted", 0): dict(
        estimate=141.17162765629814,
        r=955,
        ell=408,
        d_r=2447.0,
        wedges_closed=147,
        assigned_hits=59,
        distinct_candidate_triangles=77,
        passes_used=6,
        space_words_peak=268239,
        rng="d4738a3174d4ea5b7958d3b8932b352d32dc8d1e1b6a502a3d7608221c083eba",
    ),
    ("planted", 1): dict(
        estimate=110.1109947643979,
        r=955,
        ell=396,
        d_r=2376.0,
        wedges_closed=132,
        assigned_hits=46,
        distinct_candidate_triangles=79,
        passes_used=6,
        space_words_peak=276410,
        rng="77e364b9fb2143e18e6eece9907126e33bab31ec0d7f72505c1c12e9ae61c19c",
    ),
    ("planted", 2): dict(
        estimate=117.24411541479604,
        r=955,
        ell=407,
        d_r=2441.0,
        wedges_closed=148,
        assigned_hits=49,
        distinct_candidate_triangles=81,
        passes_used=6,
        space_words_peak=263742,
        rng="31278d9dc13e5255c4cbaa62ce83bacdea7db665f001457880679c3534e7009c",
    ),
}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("case", sorted(ESTIMATE_GOLDEN), ids=lambda case: "/".join(case))
def test_estimate_matches_golden(case, workers):
    name, schedule = case
    assert estimate_digest(name, schedule, workers) == ESTIMATE_GOLDEN[case]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize(
    "case", sorted(SINGLE_GOLDEN), ids=lambda case: f"{case[0]}/seed{case[1]}"
)
def test_single_runner_matches_golden(case, workers):
    family, seed = case
    assert single_digest(family, seed, workers) == SINGLE_GOLDEN[case]
