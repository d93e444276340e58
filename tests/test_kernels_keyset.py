"""The scan kernels' membership prefilter (:class:`repro.core.kernels.KeySet`).

``KeySet.find`` - the one membership primitive of the scan kernels - must
agree exactly with a plain ``np.searchsorted`` membership test whatever
the hash table says: a set slot only admits a value to the exact search,
never decides it.  Checked on int64 vertex ids and on uint64 packed edge
keys (including values at and above 2^63, where the signed and unsigned
orders differ), on empty and single-key sets, and on blocks that hit
every key or none; and across the slot-rank table's layouts: rank blocks
of 1, 2, 4 and 8 keys (65,534 to 300k keys), slots several keys share,
and sets whose every occupied slot is collided.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import KeySet
from repro.core.stages import PREFILTER_SLOTS_PER_KEY, charge_prefilter
from repro.streams import SpaceMeter

INT64 = st.integers(min_value=0, max_value=(1 << 63) - 1)
UINT64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
HIGH_UINT64 = st.integers(min_value=1 << 63, max_value=(1 << 64) - 1)


def _reference(keys: np.ndarray, values: np.ndarray):
    """Plain binary-search membership: ``(found mask, rank per value)``."""
    if len(keys) == 0:
        return np.zeros(len(values), dtype=bool), np.zeros(len(values), dtype=np.int64)
    ranks = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
    return keys[ranks] == values, ranks


def _check(keys: np.ndarray, values: np.ndarray) -> None:
    keyset = KeySet(keys)
    found, ranks = _reference(keys, values)
    positions, got_ranks = keyset.find(values)
    assert positions.tolist() == np.flatnonzero(found).tolist()
    assert got_ranks.tolist() == ranks[found].tolist()


def _keys(raw, dtype) -> np.ndarray:
    return np.unique(np.asarray(raw, dtype=dtype))


@settings(max_examples=200, deadline=None)
@given(st.lists(INT64, max_size=300), st.lists(INT64, max_size=300), st.data())
def test_vertex_ids_match_searchsorted(raw_keys, raw_values, data):
    keys = _keys(raw_keys, np.int64)
    # Mix in real hits so both outcomes are exercised.
    hits = data.draw(st.lists(st.sampled_from(keys.tolist()), max_size=50)) if len(keys) else []
    _check(keys, np.asarray(raw_values + hits, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(UINT64, HIGH_UINT64), max_size=300),
    st.lists(st.one_of(UINT64, HIGH_UINT64), max_size=300),
    st.data(),
)
def test_packed_keys_match_searchsorted(raw_keys, raw_values, data):
    keys = _keys(raw_keys, np.uint64)
    hits = data.draw(st.lists(st.sampled_from(keys.tolist()), max_size=50)) if len(keys) else []
    _check(keys, np.asarray(raw_values + hits, dtype=np.uint64))


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_empty_set_finds_nothing(dtype):
    values = np.arange(1000, dtype=dtype)
    _check(np.empty(0, dtype=dtype), values)
    assert len(KeySet(np.empty(0, dtype=dtype))) == 0


@pytest.mark.parametrize("key", [0, 7, (1 << 32) + 5, (1 << 63) + 3, (1 << 64) - 1])
def test_single_key(key):
    dtype = np.uint64 if key >= 1 << 63 else np.int64
    keys = np.asarray([key], dtype=dtype)
    values = np.asarray([key, key ^ 1, key, 0, 1], dtype=dtype)
    _check(keys, values)


def test_all_hit_and_no_hit_blocks():
    rng = np.random.default_rng(3)
    keys = np.unique(rng.integers(0, 1 << 40, size=5000, dtype=np.int64))
    all_hit = rng.choice(keys, size=20_000)
    _check(keys, all_hit)
    assert len(KeySet(keys).find(all_hit)[0]) == len(all_hit)
    no_hit = keys[:-1] + 1  # strictly between consecutive distinct keys, or past them
    no_hit = no_hit[~np.isin(no_hit, keys)]
    _check(keys, no_hit)
    assert len(KeySet(keys).find(no_hit)[0]) == 0


def test_probes_on_a_strided_column():
    # The incident kernel probes each endpoint column of a (k, 2) block.
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 5000, size=(4096, 2), dtype=np.int64)
    keys = np.unique(rng.integers(0, 5000, size=300, dtype=np.int64))
    for column in (rows[:, 0], rows[:, 1]):
        _check(keys, column)


@pytest.mark.parametrize("n", [1, 2, 3, 100, 1000, 59_518])
def test_table_size_and_space_charge(n):
    keyset = KeySet(np.arange(n, dtype=np.int64) * 7919)
    slots = len(keyset.table)
    assert slots & (slots - 1) == 0  # a power of two
    assert PREFILTER_SLOTS_PER_KEY * n <= keyset.table.nbytes < 2 * PREFILTER_SLOTS_PER_KEY * n
    meter = SpaceMeter()
    charge_prefilter(meter, n)
    assert meter.peak_breakdown() == {"kernel-prefilter": keyset.table.nbytes // 8}


def test_empty_set_charges_nothing():
    meter = SpaceMeter()
    charge_prefilter(meter, 0)
    assert meter.peak_words == 0


def _check_exact(keyset: KeySet, values: np.ndarray) -> None:
    """``keyset.find`` against the plain binary search, array for array."""
    found, ranks = _reference(keyset.keys, values)
    positions, got_ranks = keyset.find(values)
    assert np.array_equal(positions, np.flatnonzero(found))
    assert np.array_equal(got_ranks, ranks[found])


def _random_keys(rng, n: int, dtype) -> np.ndarray:
    """``n`` sorted distinct keys: int64 ids, or uint64 keys at and above 2^63."""
    if dtype is np.int64:
        raw = rng.integers(0, 1 << 62, size=2 * n, dtype=np.int64)
    else:
        raw = rng.integers(1 << 63, 1 << 64, size=2 * n, dtype=np.uint64)
    return np.unique(raw)[:n]


def _probe_values(rng, keys: np.ndarray, count: int) -> np.ndarray:
    """Half real keys, half their neighbours (mostly absent), shuffled."""
    hits = rng.choice(keys, size=count // 2)
    near = rng.choice(keys, size=count - count // 2) + keys.dtype.type(1)
    values = np.concatenate([hits, near])
    rng.shuffle(values)
    return values


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("n", [65_534, 65_535, 140_000, 300_000])
def test_large_sets_match_searchsorted(n, dtype):
    """An entry names ranks up to 0xFFFD; the slots of keys ranked 0xFFFE
    and above read as collided, and ``find`` still returns every key's
    exact rank."""
    rng = np.random.default_rng(n)
    keys = _random_keys(rng, n, dtype)
    keyset = KeySet(keys)
    assert int(keyset.table.max()) == 0xFFFF  # collided slots exist
    assert int(keyset.table[keyset.table != 0xFFFF].max()) <= min(n, 0xFFFE)
    assert (keyset.table[keyset._slots(keys[0xFFFE:])] == 0xFFFF).all()
    _check_exact(keyset, _probe_values(rng, keys, 200_000))
    _check_exact(keyset, keys)  # every key at once


def _colliding_keys(n: int, per_slot: int, dtype) -> np.ndarray:
    """``n // per_slot`` rows of ``per_slot`` keys, each row's keys sharing
    one slot of an ``n``-key table."""
    rng = np.random.default_rng(n * per_slot)
    candidates = _random_keys(rng, max(8 * n, 4096), dtype)
    slots = KeySet(candidates[:n])._slots(candidates)  # an n-key table's hash
    order = np.argsort(slots, kind="stable")
    slots, candidates = slots[order], candidates[order]
    starts = np.flatnonzero(np.r_[True, slots[1:] != slots[:-1]])
    sizes = np.diff(np.r_[starts, len(slots)])
    groups = starts[sizes >= per_slot][: n // per_slot]
    assert len(groups) == n // per_slot
    return candidates[groups[:, None] + np.arange(per_slot)]


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("n, per_slot", [(16, 2), (16, 16), (65_536, 2), (300, 3)])
def test_every_slot_collided(n, per_slot, dtype):
    """Sets whose every occupied slot several keys share: each hit goes
    through the exact search, and finds the same ranks."""
    keys = np.sort(_colliding_keys(n, per_slot, dtype).reshape(-1))
    keyset = KeySet(keys)
    occupied = keyset.table[keyset.table != 0]
    assert len(occupied) == n // per_slot and (occupied == 0xFFFF).all()
    rng = np.random.default_rng(1)
    _check_exact(keyset, _probe_values(rng, keys, 20_000))
    _check_exact(keyset, keys)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_some_keys_share_a_slot(dtype):
    """Five keys in one slot beside keys that own theirs."""
    shared = _colliding_keys(16, 5, dtype)[0]
    rng = np.random.default_rng(7)
    others = _random_keys(rng, 11, dtype)
    keys = np.unique(np.concatenate([shared, others]))
    assert len(keys) == 16
    keyset = KeySet(keys)
    assert (keyset.table == 0xFFFF).sum() >= 1
    assert len(np.unique(keyset._slots(shared))) == 1
    _check_exact(keyset, _probe_values(rng, keys, 5_000))
    _check_exact(keyset, keys)
