"""Array-valued round state: one round logic, whatever ran the sweeps.

Between sweeps a round holds NumPy arrays - ``R`` as ``(k, r, 2)``, its
endpoints' pass-2 degrees in the same shape, draws, owners, owner degrees
and apexes (``-1``: no apex), the deduplicated closure watch.  The per-edge reference
passes of ``tests/reference_passes.py`` (the ``python`` cases below)
finish into the same arrays as the NumPy plans, so estimates,
trajectories, passes, metered space and the root RNG state must be
bit-identical between them, across worker counts and fusion.
"""

from __future__ import annotations

import bisect
import contextlib
import random
from collections import Counter

import numpy as np
import pytest

import repro.core.driver as driver_module
from kernel_scans import collect_stream_positions, scan_watch_keys
from reference_passes import reference_engine
from repro.core import engine, executor, kernels
from repro.core.driver import EstimatorConfig, TriangleCountEstimator
from repro.core.assignment import SampleSource
from repro.core.estimator import (
    NO_APEX,
    draw_weighted_edges,
    stage_closure,
    stage_pass1,
    stage_pass3,
)
from repro.core.parallel import run_parallel_estimates
from repro.core.params import ParameterPlan
from repro.core.stages import sweep_stages
from repro.errors import GraphError
from repro.generators import (
    barabasi_albert_graph,
    planted_triangles_graph,
    triangulated_grid_graph,
)
from repro.sampling import CumulativeSampler
from repro.streams import InMemoryEdgeStream, PassScheduler, SpaceMeter
from repro.streams.transforms import shuffled
from repro.types import canonical_edge, canonical_triangle


@pytest.fixture(autouse=True)
def _small_task_batches(monkeypatch):
    """Force multi-task sweeps even on tiny test streams."""
    monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 32)


def _passes(mode):
    """``python``: every pass on the per-edge reference folds."""
    return reference_engine() if mode == "python" else contextlib.nullcontext()


def _estimate(edges, kappa, config, mode="chunked"):
    """One ``estimate()`` over ``edges`` and its root generator's final state."""
    roots = []
    real_make_rng = driver_module.make_rng

    def recording_make_rng(seed):
        roots.append(real_make_rng(seed))
        return roots[-1]

    with pytest.MonkeyPatch.context() as patch, _passes(mode):
        patch.setattr(driver_module, "make_rng", recording_make_rng)
        result = TriangleCountEstimator(config).estimate(InMemoryEdgeStream(edges), kappa=kappa)
    return result, roots[0].getstate()


def _facts(outcome):
    result, root = outcome
    return (
        result.estimate,
        result.rounds,
        result.passes_total,
        result.space_words_peak,
        root,
    )


INPUTS = {
    "planted": (lambda: planted_triangles_graph(600, 120, rng=random.Random(4)), 3),
    "ba": (lambda: barabasi_albert_graph(250, 4, random.Random(1)), 4),
    "grid": (lambda: triangulated_grid_graph(18, 18), 3),
}


def _edges(graph, seed=5):
    return shuffled(graph, random.Random(seed))


class TestEngineParity:
    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_python_engine_matches_chunked(self, name):
        build, kappa = INPUTS[name]
        edges = _edges(build())
        base = dict(seed=7, repetitions=3, chunk_size=97)
        python = _facts(_estimate(edges, kappa, EstimatorConfig(workers=1, **base), "python"))
        assert len(python[1]) > 1  # multi-round: the default windows ran
        for workers in (1, 2):
            chunked = _estimate(
                edges, kappa, EstimatorConfig(engine_mode="chunked", workers=workers, **base)
            )
            assert _facts(chunked) == python, workers

    def test_ids_beyond_the_packing(self):
        """Vertex ids past 2^32 take the row-wise dedupe and the per-row
        watch fallback; plans and reference passes still agree bit for bit."""
        build, kappa = INPUTS["planted"]
        shift = (1 << 32) + 5
        edges = [(u + shift, v + shift) if u % 2 else (u, v + shift) for u, v in _edges(build())]
        edges = [(min(u, v), max(u, v)) for u, v in edges]
        base = dict(seed=3, repetitions=3, chunk_size=61)
        python = _facts(_estimate(edges, kappa, EstimatorConfig(workers=1, **base), "python"))
        assert python[0] > 0
        for workers in (1, 2):
            chunked = _estimate(
                edges, kappa, EstimatorConfig(engine_mode="chunked", workers=workers, **base)
            )
            assert _facts(chunked) == python, workers



class _EllPlan:
    """The one ``ParameterPlan`` method the draws read, with a varied ``ell``."""

    @staticmethod
    def ell(d_r):
        return 8 + int(d_r) % 29


class TestLoopReference:
    """The array steps against the per-edge loops they replaced: Python
    running sums, ``bisect`` draws, the owner rule, and the dict-keyed
    closure watch."""

    K, R = 3, 40

    def _round(self, seed):
        rng = random.Random(seed)
        edges = sorted(
            {canonical_edge(a, b) for a, b in ((rng.randrange(50), rng.randrange(50)) for _ in range(300)) if a != b}
        )
        degree = Counter(v for edge in edges for v in edge)
        sampled = np.array(
            [[edges[rng.randrange(len(edges))] for _ in range(self.R)] for _ in range(self.K)],
            dtype=np.int64,
        )
        degrees = np.vectorize(degree.__getitem__, otypes=[np.int64])(sampled)
        return rng, edges, degree, sampled, degrees

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_draws_match_the_running_sum_loop(self, seed):
        _, _, degree, sampled, degrees = self._round(seed)
        meter = SpaceMeter()
        sources = [SampleSource(np.random.default_rng(s)) for s in range(self.K)]
        draws, owners, owner_degrees, ells, d_rs = draw_weighted_edges(
            sampled, degrees, _EllPlan, sources, meter
        )
        reference_sources = [SampleSource(np.random.default_rng(s)) for s in range(self.K)]
        for j, instance in enumerate(sampled.tolist()):
            cumulative, total = [], 0.0
            for u, v in instance:
                total += float(min(degree[u], degree[v]))
                cumulative.append(total)
            ell = _EllPlan.ell(total)
            slots = [
                min(bisect.bisect_right(cumulative, x * total), len(instance) - 1)
                for x in reference_sources[j].uniforms(ell).tolist()
            ]
            drawn = [tuple(instance[slot]) for slot in slots]
            assert type(d_rs[j]) is float and d_rs[j] == total
            assert ells[j] == ell
            assert list(map(tuple, draws[j].tolist())) == drawn
            assert owners[j].tolist() == [u if degree[u] < degree[v] else v for u, v in drawn]
            assert owner_degrees[j].tolist() == [min(degree[u], degree[v]) for u, v in drawn]
        assert meter.peak_breakdown()["draws"] == 2 * sum(ells)

    @pytest.mark.parametrize("mode", ["python", "chunked"])
    def test_closure_matches_the_watch_table(self, mode):
        rng, edges, degree, sampled, _ = self._round(3)
        present = set(edges)
        neighbors = {}
        for u, v in edges:
            neighbors.setdefault(u, []).append(v)
            neighbors.setdefault(v, []).append(u)
        draws, owners, apexes = [], [], []
        for instance in sampled.tolist():
            owner = [u if degree[u] < degree[v] else v for u, v in instance]
            apex = [
                NO_APEX if rng.random() < 0.1 else rng.choice(neighbors[o]) for o in owner
            ]
            draws.append(np.array(instance, dtype=np.int64))
            owners.append(np.array(owner, dtype=np.int64))
            apexes.append(np.array(apex, dtype=np.int64))
        meter = SpaceMeter()
        closures = _run(lambda: stage_closure(draws, owners, apexes, meter), edges, mode)
        watch = {}
        for j in range(self.K):
            expected = []
            for i, ((u, v), o, w) in enumerate(
                zip(sampled[j].tolist(), owners[j].tolist(), apexes[j].tolist())
            ):
                other = v if o == u else u
                if w == NO_APEX or w == other:
                    expected.append(None)
                    continue
                missing = canonical_edge(other, w)
                watch.setdefault(missing, []).append((j, i))
                expected.append(canonical_triangle(u, v, w) if missing in present else None)
            triangles, closed = closures[j]
            got = [tuple(t) if c else None for t, c in zip(triangles.tolist(), closed.tolist())]
            assert got == expected
        assert any(t is not None for t in got)
        watchers = sum(len(keys) for keys in watch.values())
        assert meter.peak_breakdown()["closure-watch"] == 2 * len(watch) + watchers

class TestSelfLoopApex:
    """On an unvalidated stream a self-loop can be sampled as a draw's apex
    (the owner itself); the wedge is then no triangle and the round raises
    :class:`~repro.errors.GraphError`, as ``canonical_triangle`` does."""

    EDGES = [(0, 1), (0, 0)] + [(1, v) for v in range(2, 8)]

    @pytest.mark.parametrize("mode", ["python", "chunked"])
    def test_raises_on_every_engine(self, mode):
        stream = InMemoryEdgeStream(self.EDGES, validate=False)
        plan = ParameterPlan.build(8, len(self.EDGES), 2, 1.0, 0.25)
        with _passes(mode), engine.engine_overrides(chunk_size=3, workers=1):
            with pytest.raises(GraphError, match="distinct"):
                run_parallel_estimates(stream, plan, [random.Random(s) for s in range(3)])

    def test_stage_names_the_wedge(self):
        draws = [np.array([[0, 1], [1, 2]], dtype=np.int64)]
        owners = [np.array([1, 1], dtype=np.int64)]
        apexes = [np.array([2, 1], dtype=np.int64)]  # apex 1 is the owner
        with pytest.raises(GraphError, match=r"\(1, 2, 1\)"):
            stage_closure(draws, owners, apexes, SpaceMeter())


class _FixedSource:
    """A sample source replaying fixed uniforms (forces duplicate requests)."""

    def __init__(self, *batches):
        self._batches = [np.asarray(batch, dtype=np.float64) for batch in batches]

    def uniforms(self, n):
        batch = self._batches.pop(0)
        assert len(batch) == n
        return batch


def _run(stage_of, edges, mode):
    scheduler = PassScheduler(InMemoryEdgeStream(edges, validate=False))
    with _passes(mode), engine.engine_overrides(chunk_size=4, workers=2):
        stage = stage_of()
        sweep_stages(scheduler, [stage])
        return stage.finish()


class TestDuplicateRequests:
    EDGES = [(i, i + 1) for i in range(40)]

    @pytest.mark.parametrize("mode", ["python", "chunked"])
    def test_pass1_duplicate_positions_across_blocks(self, mode):
        # Positions 3, 3, 19, 19, 20, 39, 39 in two instances of r = 4, and
        # 0 / 39 at both ends: every duplicate is served.
        m = len(self.EDGES)
        uniforms = [np.array([3, 19, 3, 39]) / m, np.array([20, 19, 39, 0]) / m + 1e-9]
        rows = _run(
            lambda: stage_pass1(4, m, [_FixedSource(u) for u in uniforms], SpaceMeter()),
            self.EDGES,
            mode,
        )
        assert rows.shape == (2, 4, 2)
        expected = [[self.EDGES[p] for p in (3, 19, 3, 39)], [self.EDGES[p] for p in (20, 19, 39, 0)]]
        assert rows.tolist() == [[list(e) for e in instance] for instance in expected]

    @pytest.mark.parametrize("mode", ["python", "chunked"])
    def test_pass3_duplicate_requests_across_blocks(self, mode):
        # Vertex 0 is on every other edge; owner 0 is asked for occurrence 0
        # three times (two instances) and for its last occurrence twice.
        edges = [(0, 100 + i) if i % 2 == 0 else (200 + i, 300 + i) for i in range(40)]
        owners = [np.array([0, 0, 0], dtype=np.int64), np.array([0, 5, 0], dtype=np.int64)]
        degrees = [np.array([20, 20, 20], dtype=np.int64), np.array([20, 1, 20], dtype=np.int64)]
        sources = lambda: [  # noqa: E731
            _FixedSource(np.array([0.0, 0.99, 0.0])),
            _FixedSource(np.array([0.0, 0.0, 0.99])),
        ]
        apexes = _run(
            lambda: stage_pass3(owners, degrees, sources(), SpaceMeter()),
            edges,
            mode,
        )
        assert [a.tolist() for a in apexes] == [[100, 138, 100], [100, -1, 138]]


class TestSortedUnique:
    @pytest.mark.parametrize(
        "values",
        [
            np.array([], dtype=np.int64),
            np.array([], dtype=np.uint64),
            np.array([5, -3, 5, 9, 0, -3, 9, 9], dtype=np.int64),
            np.array([2**63 + 7, 1, 2**63 + 7, 2**40, 1], dtype=np.uint64),
            np.random.default_rng(0).integers(0, 500, size=5000),
        ],
    )
    def test_equals_np_unique(self, values):
        got = kernels.sorted_unique(values)
        want = np.unique(values)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
        unique, inverse = kernels.sorted_unique(values, return_inverse=True)
        assert unique.tolist() == want.tolist()
        assert unique[inverse].tolist() == values.tolist()

    def test_edge_rows_pack_or_fall_back(self):
        rows = np.array([[3, 9], [1, 2], [3, 9], [1, 4]], dtype=np.int64)
        for shift in (0, 1 << 33):
            shifted = rows + shift
            unique, inverse = kernels.unique_edge_rows(shifted)
            assert unique.tolist() == np.unique(shifted, axis=0).tolist()
            assert unique[inverse].tolist() == shifted.tolist()


class TestCumulativeSamplerArrays:
    def test_array_and_list_inputs_agree(self):
        weights = [3.0, 0.0, 1.0, 6.0]
        from_list = CumulativeSampler(weights)
        from_array = CumulativeSampler(np.array([3, 0, 1, 6], dtype=np.int64))
        assert from_list.total_weight == from_array.total_weight == 10.0
        uniforms = np.random.default_rng(1).random(200)
        assert (
            from_list.draw_many_from_uniforms(uniforms).tolist()
            == from_array.draw_many_from_uniforms(uniforms).tolist()
        )
        rng_a, rng_b = random.Random(4), random.Random(4)
        assert from_list.draw_many(rng_a, 50) == from_array.draw_many(rng_b, 50)

    def test_total_is_the_running_sum(self):
        weights = [0.1 * i for i in range(1, 200)]
        total = 0.0
        for w in weights:
            total += w
        assert CumulativeSampler(weights).total_weight == total

    @pytest.mark.parametrize(
        "weights, message",
        [
            (np.array([], dtype=np.float64), "weights must be non-empty"),
            (np.array([1.0, -2.0, -1.0]), "negative weight -2.0 at index 1"),
            (np.zeros(3), "all weights are zero"),
        ],
    )
    def test_array_validation_messages(self, weights, message):
        with pytest.raises(ValueError, match=message):
            CumulativeSampler(weights)


def test_plan_results_keep_their_public_forms():
    """``collect_stream_positions`` still returns tuples and
    ``scan_watch_keys`` a set, over the plans' array state."""
    edges = [(i, i + 1) for i in range(30)]
    scheduler = PassScheduler(InMemoryEdgeStream(edges))
    positions = np.array([29, 4, 4], dtype=np.int64)
    assert collect_stream_positions(scheduler, positions, 8) == [(29, 30), (4, 5), (4, 5)]
    found = scan_watch_keys(scheduler, np.array([[4, 5], [0, 9], [4, 5]]), 8)
    assert found == {(4, 5)}

