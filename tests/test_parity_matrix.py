"""Randomized cross-mode parity matrix: one estimator, every execution mode.

The engine has enough independent execution knobs - thread count and
speculative round windows - that hand-picked parity cases cannot cover
the cross products.  This suite runs seeded random graphs
(Erdos-Renyi, power-law preferential attachment, and star/clique
pathologies) through the full knob matrix and pins the three contracts
every mode must honor against the sequential loop run on the per-edge
reference passes (``tests/reference_passes.py``):

* **bit-identical estimates**: the final estimate, the whole guessing
  trajectory (every round's guess, median, verdict), and every per-run
  sampling diagnostic are equal - not approximately, exactly;
* **identical RNG consumption**: the root generator ends in the identical
  state (speculative spawns are rewound on discard), and every committed
  round's per-repetition child generator performs the identical number of
  draws;
* **pass/sweep invariants**: logical passes (the paper's budgeted
  quantity) are constant across all modes; physical sweeps depend only on
  the window depth - equal to passes at depth 1 (the sequential loop),
  never more above it - and ``sweeps_wasted`` is zero at depth 1.

The **tape-format axis** extends the same contract across the storage
substrate: the identical edge sequence read from a text edge list
(:class:`FileEdgeStream`) and from its binary ``.etape`` conversion
(:class:`MmapEdgeStream`) must agree bit-for-bit - estimate, trajectory,
pass totals, and final root RNG state - at every point of the knob
matrix, because the storage format is below the sampling layer and must
be invisible to it.

A small representative subset runs in the fast tier; the full matrix is
marked ``slow`` (deselected by default - run with ``pytest -m slow``).
"""

from __future__ import annotations

import random

import pytest

import repro.core.driver as driver_module
from reference_passes import reference_engine
from repro.core import executor
from repro.core.driver import EstimatorConfig, TriangleCountEstimator
from repro.generators import (
    barabasi_albert_graph,
    complete_graph,
    erdos_renyi_gnp,
    star_graph,
)
from repro.graph import count_triangles, degeneracy
from repro.io import write_edgelist
from repro.streams import FileEdgeStream, InMemoryEdgeStream, MmapEdgeStream, write_tape
from repro.streams.transforms import shuffled

REPETITIONS = 3

#: (name, graph builder, seed) - seeded random families plus pathologies.
GRAPHS = [
    ("erdos-renyi", lambda: erdos_renyi_gnp(90, 0.09, random.Random(11)), 5),
    ("power-law", lambda: barabasi_albert_graph(140, 4, random.Random(7)), 3),
    ("star", lambda: star_graph(80), 1),
    ("clique", lambda: complete_graph(18), 9),
]

#: (engine_mode, workers) execution substrates.
SUBSTRATES = [
    ("chunked", 1),
    ("chunked", 2),
    ("chunked", 4),
]

#: The window-depth tiers; depth 1 is the sequential loop.  Every tier
#: runs in both the fast and the slow tier (which adds substrates).
DEPTHS = (1, 2, 3, 4)


class CountingRandom(random.Random):
    """A stdlib generator that counts its primitive draws."""

    def __init__(self) -> None:
        super().__init__(0)
        self.draws = 0

    def getrandbits(self, k: int) -> int:
        self.draws += 1
        return super().getrandbits(k)

    def random(self) -> float:
        self.draws += 1
        return super().random()


def _run_instrumented(monkeypatch, stream, kappa, config):
    """One estimate with root-state capture and per-child draw counting."""
    roots = []
    real_make_rng = driver_module.make_rng
    real_spawn = driver_module.spawn
    children = {}

    def recording_make_rng(seed):
        rng = real_make_rng(seed)
        roots.append(rng)
        return rng

    def counting_spawn(parent, label):
        child = real_spawn(parent, label)
        counting = CountingRandom()
        counting.setstate(child.getstate())
        children[label] = counting
        return counting

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver_module, "make_rng", recording_make_rng)
        patch.setattr(driver_module, "spawn", counting_spawn)
        result = TriangleCountEstimator(config).estimate(stream, kappa=kappa)
    committed_labels = {
        f"round{i}/rep{rep}"
        for i in range(len(result.rounds))
        for rep in range(config.repetitions)
    }
    child_draws = {
        label: children[label].draws
        for label in sorted(committed_labels)
        if label in children
    }
    return result, roots[-1].getstate(), child_draws


def _sampling_fields(run):
    """Statistical fields only: the accounting fields are pinned per depth
    tier separately."""
    return (
        run.estimate,
        run.r,
        run.ell,
        run.d_r,
        run.wedges_closed,
        run.assigned_hits,
        run.distinct_candidate_triangles,
    )


def _trajectory(result, accounting=False):
    return [
        (
            r.t_guess,
            r.median_estimate,
            r.accepted,
            [
                _sampling_fields(run)
                + (
                    (run.passes_used, run.space_words_peak)
                    if accounting
                    else ()
                )
                for run in r.runs
            ],
        )
        for r in result.rounds
    ]


def _config(mode, workers, depth, seed):
    return EstimatorConfig(
        seed=seed,
        repetitions=REPETITIONS,
        engine_mode=mode,
        chunk_size=64,
        workers=workers,
        speculate_depth=depth,
    )


def _check_matrix(monkeypatch, graph_name, build_graph, seed, substrates):
    monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 32)
    graph = build_graph()
    kappa = max(1, degeneracy(graph))
    stream = InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(seed)))
    exact = count_triangles(graph)

    with reference_engine():
        reference, ref_root_state, ref_child_draws = _run_instrumented(
            monkeypatch, stream, kappa, _config("chunked", 1, 1, seed)
        )
    ref_trajectory = _trajectory(reference)
    tier_accounting = {}

    for mode, workers in substrates:
        for depth in DEPTHS:
            result, root_state, child_draws = _run_instrumented(
                monkeypatch,
                stream,
                kappa,
                _config(mode, workers, depth, seed),
            )
            label = f"{graph_name}/{mode}/w{workers}/d{depth}"

            # Bit-identical estimates and statistical trajectory.
            assert result.estimate == reference.estimate, label
            assert _trajectory(result) == ref_trajectory, label

            # Identical RNG consumption: final root state (speculative
            # spawns rewound) and committed child draw counts.
            assert root_state == ref_root_state, label
            assert child_draws == ref_child_draws, label

            # Accounting depends only on the depth tier, never on the
            # substrate (engine / workers): the first run of each tier pins
            # passes, sweeps, waste, space, and the per-run accounting
            # trajectory for every other substrate.
            accounting = (
                result.passes_total,
                result.sweeps_total,
                result.sweeps_wasted,
                result.passes_wasted,
                result.space_words_peak,
                _trajectory(result, accounting=True),
            )
            if depth in tier_accounting:
                assert accounting == tier_accounting[depth], label
            else:
                tier_accounting[depth] = accounting
            if depth == 1:
                # The sequential loop reads the tape once per pass.
                assert result.sweeps_wasted == 0, label
                assert result.passes_wasted == 0, label
                assert result.sweeps_total == result.passes_total, label
                assert result.passes_total == reference.passes_total, label

    # Speculation never changes the logical-pass total (it commits exactly
    # the rounds the sequential loop would run) and never loses to the
    # sequential loop on committed sweeps - at any depth.
    sequential = tier_accounting[1]
    for depth in DEPTHS:
        assert tier_accounting[depth][0] == sequential[0], (graph_name, depth)
        assert tier_accounting[depth][1] <= sequential[1], (graph_name, depth)
    # Multi-round estimates are where speculation must actually pay, even
    # counting the physically-performed wasted sweeps.
    if len(reference.rounds) > 1:
        for depth in DEPTHS[1:]:
            tier = tier_accounting[depth]
            assert tier[1] + tier[2] < sequential[1], (graph_name, depth)
    # Sanity: the estimator still estimates (star walks the guess to 0).
    if exact == 0:
        assert reference.estimate == 0.0


@pytest.mark.parametrize("name,build,seed", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_parity_matrix_fast_tier(monkeypatch, name, build, seed):
    """Representative subset: serial and one threaded substrate, every
    depth."""
    fast_substrates = [("chunked", 1), ("chunked", 2)]
    _check_matrix(monkeypatch, name, build, seed, fast_substrates)


@pytest.mark.slow
@pytest.mark.parametrize("name,build,seed", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_parity_matrix_full(monkeypatch, name, build, seed):
    """The full matrix: workers {1,2,4} x depth {1,2,3,4}."""
    _check_matrix(monkeypatch, name, build, seed, SUBSTRATES)


def _check_format_parity(monkeypatch, tmp_path, name, build_graph, seed, substrates):
    """Text vs ``.etape``: bit-identical at every point of the knob matrix."""
    monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 32)
    graph = build_graph()
    kappa = max(1, degeneracy(graph))
    txt = tmp_path / f"{name}.txt"
    write_edgelist(graph, txt)
    tape = tmp_path / f"{name}.etape"
    header = write_tape(txt, tape)
    assert header.num_edges == graph.num_edges

    for mode, workers in substrates:
        for depth in DEPTHS:
            config = _config(mode, workers, depth, seed)
            text_result, text_root, text_draws = _run_instrumented(
                monkeypatch, FileEdgeStream(txt), kappa, config
            )
            tape_result, tape_root, tape_draws = _run_instrumented(
                monkeypatch, MmapEdgeStream(tape), kappa, config
            )
            label = f"{name}/{mode}/w{workers}/d{depth}"
            assert tape_result.estimate == text_result.estimate, label
            assert _trajectory(tape_result, accounting=True) == _trajectory(
                text_result, accounting=True
            ), label
            assert tape_result.passes_total == text_result.passes_total, label
            assert tape_result.sweeps_total == text_result.sweeps_total, label
            assert tape_root == text_root, label
            assert tape_draws == text_draws, label


#: Tape-axis fast tier: serial plus a threaded substrate, at every depth.
FORMAT_SUBSTRATES_FAST = [
    ("chunked", 1),
    ("chunked", 2),
]

#: The fast tier samples two graph families; the full product runs slow.
FORMAT_GRAPHS_FAST = [g for g in GRAPHS if g[0] in ("erdos-renyi", "power-law")]


@pytest.mark.parametrize(
    "name,build,seed", FORMAT_GRAPHS_FAST, ids=[g[0] for g in FORMAT_GRAPHS_FAST]
)
def test_tape_format_parity_fast_tier(monkeypatch, tmp_path, name, build, seed):
    """Text vs binary tape, representative substrates, every depth."""
    _check_format_parity(monkeypatch, tmp_path, name, build, seed, FORMAT_SUBSTRATES_FAST)


@pytest.mark.slow
@pytest.mark.parametrize("name,build,seed", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_tape_format_parity_full(monkeypatch, tmp_path, name, build, seed):
    """Text vs binary tape over the full knob product: workers {1,2,4} x
    depth {1,2,3,4}."""
    _check_format_parity(monkeypatch, tmp_path, name, build, seed, SUBSTRATES)


@pytest.mark.slow
def test_parity_matrix_random_orders(monkeypatch):
    """Randomized stream orders: fresh seeds each combination, every depth."""
    for order_seed in range(4):
        graph = erdos_renyi_gnp(70, 0.1, random.Random(100 + order_seed))
        _check_matrix(
            monkeypatch,
            f"er-order{order_seed}",
            lambda g=graph: g,
            order_seed,
            [("chunked", 1), ("chunked", 2)],
        )
