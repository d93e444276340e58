"""Shared probes: plans that share a sweep probe each block once per key space.

When two or more active plans of one :func:`~repro.core.executor.run_plans`
sweep probe the same key space (vertex ids, or packed canonical edges),
the sweep probes each task's block once against the union of their keys
and every plan keeps its own hits (:class:`repro.core.kernels.Probe`).
Every plan must still see exactly the ``(positions, ranks)`` its own
``KeySet`` would report, so a shared sweep of ``N`` plans returns what
``N`` solo :func:`~repro.core.executor.run_plan` sweeps return - at any
worker count, for overlapping, disjoint, identical and empty key sets,
beside plans of the other key space or of none (pass-1 positions and
a watch whose keys overflow the 32-bit packing, which share sweeps with
their own kind in speculative windows too), when a member stops early,
on tapes whose ids overflow the packing, and when a task crashes and is
retried or finished inline.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine, executor, faults, kernels
from repro.core.kernels import (
    DegreeCountPlan,
    IncidentEdgePlan,
    NeighborPositionPlan,
    PositionCollectPlan,
    WatchKeyPlan,
)
from repro.core.stages import PREFILTER_SLOTS_PER_KEY, prefilter_bits
from repro.streams import InMemoryEdgeStream, PassScheduler

CHUNK = 37
NUM_IDS = 300
KINDS = ["positions", "degree", "neighbor", "first-neighbor", "incident", "watch", "watch-index"]
KEY_SETS = ["overlapping", "disjoint", "identical", "empty"]


@pytest.fixture(autouse=True)
def _small_task_batches(monkeypatch):
    """Force many tasks per sweep even on a small tape."""
    monkeypatch.setattr(executor, "TASK_ROWS_FLOOR", 64)


def _tape(seed=1, m=2500, big=False):
    """Distinct canonical edges in random order; ``big`` adds >32-bit ids."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(NUM_IDS), rng.randrange(NUM_IDS)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    if big:
        edges += [(u, (1 << 33) + u) for u in range(0, NUM_IDS, 7)]
    rng.shuffle(edges)
    return edges


def _id_sets(mode, count, rng):
    """``count`` sorted vertex-id sets (some ids absent from the tape)."""
    universe = list(range(NUM_IDS + 20))
    if mode == "identical":
        ids = rng.sample(universe, 40)
        return [sorted(ids)] * count
    if mode == "disjoint":
        picked = rng.sample(universe, 30 * count)
        return [sorted(picked[30 * i : 30 * (i + 1)]) for i in range(count)]
    if mode == "empty":
        return [[] if i % 2 == 0 else sorted(rng.sample(universe, 35)) for i in range(count)]
    return [sorted(rng.sample(universe, rng.randrange(10, 60))) for _ in range(count)]


def _edge_sets(mode, count, rng, edges):
    """``count`` sorted canonical edge-key sets (some absent from the tape)."""
    absent = [(u, u + NUM_IDS) for u in range(200)]
    universe = sorted(set(rng.sample(edges, 400) + absent))
    if mode == "identical":
        keys = rng.sample(universe, 60)
        return [sorted(keys)] * count
    if mode == "disjoint":
        picked = rng.sample(universe, 50 * count)
        return [sorted(picked[50 * i : 50 * (i + 1)]) for i in range(count)]
    if mode == "empty":
        return [[] if i % 2 == 0 else sorted(rng.sample(universe, 45)) for i in range(count)]
    return [sorted(rng.sample(universe, rng.randrange(10, 120))) for _ in range(count)]


def _plan(kind, keys, seed):
    """A fresh plan of ``kind`` over ``keys`` plus its result normalizer."""
    if kind == "positions":  # keys read as stream positions, drawn in any order
        positions = list(keys)
        random.Random(seed).shuffle(positions)
        return PositionCollectPlan(np.asarray(positions, dtype=np.int64)), list
    if kind == "degree":
        return DegreeCountPlan(np.asarray(keys, dtype=np.int64)), np.ndarray.tolist
    if kind == "neighbor":
        rng = random.Random(seed)
        requests = len(keys) * 2  # none for an empty owner set
        owner_index = np.asarray([rng.randrange(len(keys)) for _ in range(requests)], dtype=np.int64)
        positions = np.asarray([rng.randrange(12) for _ in range(requests)], dtype=np.int64)
        plan = NeighborPositionPlan(np.asarray(keys, dtype=np.int64), owner_index, positions)
        return plan, np.ndarray.tolist
    if kind == "incident":  # s = 4: offers cross the points 32 and 64
        flushes = []
        plan = IncidentEdgePlan(
            np.asarray(keys, dtype=np.int64), 4,
            lambda rank, offers, seen: flushes.append((rank, offers.tolist(), seen)),
        )
        return plan, lambda degrees: (
            flushes, degrees.tolist(), [part.tolist() for part in plan.tails()]
        )
    if kind == "first-neighbor":  # each owner's first incident edge: served early
        owners = np.asarray(keys, dtype=np.int64)
        first = np.zeros(len(owners), dtype=np.int64)
        return NeighborPositionPlan(owners, np.arange(len(owners)), first), np.ndarray.tolist
    if kind == "watch-index":  # a key past the packing: the keyless per-row path
        keys = sorted([*keys, (1, 1 << 40)])
    return WatchKeyPlan(np.asarray(keys, dtype=np.int64)), np.ndarray.tolist


def _key_sets(kind, mode, count, seed, edges):
    rng = random.Random(seed)
    if kind.startswith("watch"):
        return _edge_sets(mode, count, rng, edges)
    id_sets = _id_sets(mode, count, rng)
    if kind == "first-neighbor":  # owners on the tape: the plan finishes mid-sweep
        return [[i for i in ids if i < NUM_IDS] for ids in id_sets]
    return id_sets


def _shared_and_solo(edges, specs, workers):
    """Results of one shared sweep over ``specs`` and of one sweep per spec."""
    stream = InMemoryEdgeStream(edges, validate=False)
    built = [_plan(kind, keys, seed) for kind, keys, seed in specs]
    shared = executor.run_plans(
        PassScheduler(stream), [plan for plan, _ in built], chunk_size=CHUNK, workers=workers
    )
    got = [norm(result) for (_, norm), result in zip(built, shared)]
    solo = []
    for kind, keys, seed in specs:
        plan, norm = _plan(kind, keys, seed)
        solo.append(norm(executor.run_plan(PassScheduler(stream), plan, chunk_size=CHUNK, workers=1)))
    return got, solo


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("count", [1, 2, 3, 5])
@pytest.mark.parametrize("mode", KEY_SETS)
@pytest.mark.parametrize("kind", KINDS)
def test_shared_sweep_matches_solo_sweeps(kind, mode, count, workers):
    edges = _tape()
    key_sets = _key_sets(kind, mode, count, 7, edges)
    specs = [(kind, keys, 100 + i) for i, keys in enumerate(key_sets)]
    got, solo = _shared_and_solo(edges, specs, workers)
    assert got == solo


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_mixed_key_spaces_in_one_sweep(workers):
    edges = _tape(seed=2)
    rng = random.Random(3)
    positions = np.asarray(sorted(rng.sample(range(len(edges)), 50)), dtype=np.int64)
    ids = _id_sets("overlapping", 4, rng)
    keys = _edge_sets("overlapping", 3, rng, edges)
    specs = [
        ("degree", ids[0], 0),
        ("neighbor", ids[1], 1),
        ("watch", keys[0], 2),
        ("incident", ids[2], 3),
        ("watch-index", keys[1], 4),
        ("incident", ids[3], 5),
        ("watch", keys[2], 6),
    ]
    got, solo = _shared_and_solo(edges, specs, workers)
    assert got == solo
    # A position plan (no key space) rides the same sweep unchanged.
    stream = InMemoryEdgeStream(edges, validate=False)
    built = [_plan(kind, keys, seed) for kind, keys, seed in specs]
    results = executor.run_plans(
        PassScheduler(stream),
        [PositionCollectPlan(positions)] + [plan for plan, _ in built],
        chunk_size=CHUNK,
        workers=workers,
    )
    assert results[0] == [edges[p] for p in positions.tolist()]
    assert [norm(r) for (_, norm), r in zip(built, results[1:])] == solo


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_members_that_stop_early(workers):
    """A neighbor plan served early and a position plan past its stop row
    leave the sweep; the remaining members still match solo."""
    edges = _tape(seed=4)
    rng = random.Random(5)
    early_owners = sorted({u for edge in edges[:5] for u in edge})  # served in the first block
    ids = _id_sets("overlapping", 2, rng)
    late_keys = _edge_sets("overlapping", 1, rng, edges)[0]
    specs = [
        ("first-neighbor", early_owners, 0),
        ("degree", ids[0], 1),
        ("watch", late_keys, 2),
        ("neighbor", ids[1], 3),
    ]
    got, solo = _shared_and_solo(edges, specs, workers)
    assert got == solo
    assert got[0] == [
        next(v if u == owner else u for u, v in edges if owner in (u, v)) for owner in early_owners
    ]
    stream = InMemoryEdgeStream(edges, validate=False)
    built = [_plan(kind, keys, seed) for kind, keys, seed in specs]
    positions = np.asarray([3, 40, 90], dtype=np.int64)
    results = executor.run_plans(
        PassScheduler(stream),
        [PositionCollectPlan(positions)] + [plan for plan, _ in built],
        chunk_size=CHUNK,
        workers=workers,
    )
    assert results[0] == [edges[p] for p in positions.tolist()]
    assert [norm(r) for (_, norm), r in zip(built, results[1:])] == solo


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_overflowing_ids_beside_the_key_index_fallback(workers):
    """On a tape with >32-bit ids, a watch whose keys overflow the packing
    (the per-row ``key_index`` fallback, no key space) rides beside
    packable edge plans and vertex plans that do share."""
    edges = _tape(seed=6, big=True)
    rng = random.Random(7)
    big_keys = [edge for edge in edges if edge[1] >= 1 << 32][:6] + [(1, (1 << 40) + 1)]
    keys = _edge_sets("overlapping", 3, rng, [e for e in edges if e[1] < 1 << 32])
    ids = _id_sets("overlapping", 2, rng) + [[5, 9, (1 << 33) + 7, (1 << 33) + 14]]
    specs = [
        ("watch", sorted(big_keys), 0),
        ("watch", keys[0], 1),
        ("watch", keys[1], 2),
        ("watch", keys[2], 3),
        ("degree", ids[0], 4),
        ("incident", ids[1], 5),
        ("degree", ids[2], 6),
    ]
    got, solo = _shared_and_solo(edges, specs, workers)
    assert got == solo
    on_tape = set(edges)
    assert got[0] == [int(key in on_tape) for key in sorted(big_keys)]


def _counting(monkeypatch, cls):
    """Count constructions of ``cls``."""
    built = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_one_table_per_key_space(monkeypatch):
    """Three vertex plans and two edge plans build two union tables and no
    table of their own; a lone plan builds its own table and no union."""
    edges = _tape()
    rng = random.Random(8)
    ids = _id_sets("overlapping", 3, rng)
    keys = _edge_sets("overlapping", 2, rng, edges)
    plans = [
        DegreeCountPlan(np.asarray(ids[0], dtype=np.int64)),
        IncidentEdgePlan(np.asarray(ids[1], dtype=np.int64), 4, lambda *flush: None),
        DegreeCountPlan(np.asarray(ids[2], dtype=np.int64)),
        WatchKeyPlan(keys[0]),
        WatchKeyPlan(keys[1]),
    ]
    unions = _counting(monkeypatch, kernels.SharedProbe)
    stream = InMemoryEdgeStream(edges, validate=False)
    executor.run_plans(PassScheduler(stream), plans, chunk_size=CHUNK, workers=2)
    assert sorted(union.space.name for union in unions) == ["edge", "vertex"]
    assert all(plan.probe()._own is None for plan in plans)
    assert all(plan.probe().shared is None for plan in plans)  # unbound after the sweep
    solo = DegreeCountPlan(np.asarray(ids[0], dtype=np.int64))
    executor.run_plan(PassScheduler(stream), solo, chunk_size=CHUNK, workers=2)
    assert len(unions) == 2
    assert solo.probe()._own is not None


@pytest.mark.parametrize("sizes", [(4, 1), (1, 1), (3, 3), (5, 9, 2), (240, 479, 960), (1, 1000)])
def test_union_table_is_the_members_tables(sizes):
    """The union's table has exactly the slots the members' ``kernel-prefilter``
    charges account for - at least 8 per union key - and finds exactly."""
    rng = random.Random(sum(sizes))
    probes = [
        kernels.Probe(kernels.VERTEX, np.asarray(sorted(rng.sample(range(5000), n)), dtype=np.int64))
        for n in sizes
    ]
    kernels.VERTEX.share(probes)
    union = probes[0].shared
    assert all(probe.shared is union for probe in probes)
    table = union._keyset.table
    assert table.nbytes == sum(1 << prefilter_bits(n) for n in sizes)
    assert table.nbytes >= PREFILTER_SLOTS_PER_KEY * len(union.keys)
    values = np.arange(6000, dtype=np.int64)
    positions, ranks = union.find(0, values.reshape(-1, 2))
    assert positions.tolist() == np.flatnonzero(np.isin(values, union.keys)).tolist()
    assert union.keys[ranks].tolist() == values[positions].tolist()


@st.composite
def _members(draw):
    """A sorted union of 1-300 keys (crossing the 64-key bitmap words) and
    2-6 member key sets over it: the whole union, a single key, and
    arbitrary non-empty subsets."""
    size = draw(st.integers(min_value=1, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    union = np.unique(rng.choice(10_000, size=size, replace=False)).astype(np.int64)
    members = [union, union[[draw(st.integers(0, size - 1))]]]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        picked = rng.random(size) < draw(st.sampled_from([0.02, 0.3, 0.5, 0.9]))
        picked[draw(st.integers(0, size - 1))] = True
        members.append(union[picked])
    order = draw(st.permutations(range(len(members))))
    return union, [members[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(_members())
def test_bitmap_rerank_matches_searchsorted(drawn):
    """Each member's rank bitmap keeps exactly the union hits that are its
    keys and ranks them as ``searchsorted`` against its own keys does."""
    union_keys, members = drawn
    probes = [kernels.Probe(kernels.VERTEX, keys) for keys in members]
    kernels.VERTEX.share(probes)
    union = probes[0].shared
    assert np.array_equal(union.keys, union_keys)
    rng = np.random.default_rng(len(union_keys))
    every = np.arange(len(union_keys))
    some = np.sort(rng.choice(len(union_keys), size=len(union_keys) // 2 + 1))
    # One block for every member: the union memoises it by start row.
    rows = rng.integers(0, 10_050, size=(500, 2), dtype=np.int64)
    rows[::7, 0] = rng.choice(union_keys, size=len(rows[::7]))
    for probe in probes:
        for union_ranks in (every, some):
            positions = union_ranks * 3 + 1  # any ascending positions
            got_positions, got_ranks = union.rerank(probe, positions, union_ranks)
            values = union_keys[union_ranks]
            mine = np.flatnonzero(np.isin(values, probe.keys))
            assert np.array_equal(got_positions, positions[mine])
            assert np.array_equal(got_ranks, np.searchsorted(probe.keys, values[mine]))
        # And end to end, against the member's own table.
        found = probe.find(0, rows)
        own = kernels.KeySet(probe.keys).find(rows.reshape(-1))
        assert np.array_equal(found[0], own[0]) and np.array_equal(found[1], own[1])


class TestFaults:
    """``worker.crash`` in a shared-probe sweep: retried or finished inline,
    bit-identical, and no block ever reads another block's memoised probe."""

    @pytest.fixture(autouse=True)
    def _checked_memo(self, monkeypatch):
        """Check every union probe against a fresh probe of the same block."""
        find = kernels.SharedProbe.find

        def checked(self, start_row, rows):
            positions, ranks = find(self, start_row, rows)
            fresh = kernels.KeySet(self.keys).find(self.space.values(rows))
            assert positions.tolist() == fresh[0].tolist()
            assert ranks.tolist() == fresh[1].tolist()
            return positions, ranks

        monkeypatch.setattr(kernels.SharedProbe, "find", checked)

    SPECS_SEED = 11

    def _specs(self, edges):
        rng = random.Random(self.SPECS_SEED)
        ids = _id_sets("overlapping", 3, rng)
        keys = _edge_sets("overlapping", 2, rng, edges)
        return [
            ("degree", ids[0], 0),
            ("neighbor", ids[1], 1),
            ("incident", ids[2], 2),
            ("watch", keys[0], 3),
            ("watch-index", keys[1], 4),
        ]

    def _sweep(self, edges, specs):
        built = [_plan(kind, keys, seed) for kind, keys, seed in specs]
        stream = InMemoryEdgeStream(edges, validate=False)
        results = executor.run_plans(
            PassScheduler(stream), [plan for plan, _ in built], chunk_size=CHUNK, workers=2
        )
        return [norm(result) for (_, norm), result in zip(built, results)]

    @pytest.mark.parametrize("spec", ["worker.crash@1", "worker.crash@0,3,4"])
    def test_crash_is_retried_bit_identically(self, spec):
        edges = _tape(seed=9)
        specs = self._specs(edges)
        clean = self._sweep(edges, specs)
        policy = faults.RetryPolicy(max_attempts=3, backoff_base=0)
        with faults.recovery_scope(policy=policy, plan=spec) as recovery:
            faulted = self._sweep(edges, specs)
        assert faulted == clean
        assert recovery.reports == []

    def test_exhausted_retries_degrade_to_serial(self):
        edges = _tape(seed=9)
        specs = self._specs(edges)
        clean = self._sweep(edges, specs)
        policy = faults.RetryPolicy(max_attempts=1, backoff_base=0)
        # The engine scope unwinds the serial tier the degradation applies.
        with engine.engine_overrides(chunk_size=CHUNK, workers=2):
            with faults.recovery_scope(policy=policy, plan="worker.crash@2") as recovery:
                faulted = self._sweep(edges, specs)
        assert faulted == clean
        assert [report.action for report in recovery.reports] == [faults.ACTION_SERIAL]
        assert recovery.reports[0].site == faults.WORKER_CRASH

