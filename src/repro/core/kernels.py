"""Vectorized pass kernels, as executor plans: every pass of the estimator.

The six passes of Algorithm 2 (plus Algorithm 3's two assignment passes)
share a common shape: a tiny amount of per-run state (samples, watch
tables, counters) is updated by a full scan of the edge tape.  A per-edge
implementation pays one interpreter iteration *per edge* for that scan; at
a million edges the interpreter, not the algorithm, dominates.

Each pass here is a :class:`~repro.core.executor.PassPlan`: a read-only
*spec*, a pure *kernel* over ``(spec, start_row, rows)`` blocks, and an
ordered *absorb* fold - which is exactly the decomposition the executor
needs to run one pass's blocks on several threads while staying
bit-identical to the serial scan (see :mod:`repro.core.executor`).  Every
caller - serial or threaded - runs the plans through the executor
(:func:`~repro.core.executor.run_plans`), one execution spine.

Every tracked-set test is *prefiltered*: each plan that asks "which block
values are tracked keys?" holds its sorted keys in a :class:`Probe` of one
:class:`KeySpace` - block endpoints (:data:`VERTEX`) or packed canonical
edges (:data:`EDGE`) - and hands it out as (part of) its spec.  Probing
builds a :class:`KeySet`: the keys plus a hashed slot-rank table of four
2-byte slots per key (8 bytes per key).  The kernels hash the whole block
and gather from the table; a value whose entry names a key's rank is
checked against that key directly, and only values in collided slots run
the exact ``searchsorted``.  The table is charged to the round's meter as
``kernel-prefilter`` words by the stage that builds the plan
(:func:`~repro.core.stages.charge_prefilter`).

Co-riders share probes: when two or more active plans of one sweep probe
the same key space (speculative rounds, co-served jobs), the executor
binds them to one :class:`SharedProbe` over the union of their keys.
Each task then probes its block once per key space, and every plan keeps
the hits on its own keys, re-ranked among them through its rank bitmap
over the union - the exact ``(positions, ranks)`` its own table would
give, so partials and results are unchanged.  A plan alone in its key
space probes its own table exactly as before.  The union table has
exactly the bytes of the members' tables together, so the per-plan
charges still account for it.

Plan-to-pass map (Algorithm 2 / Algorithm 3 of the paper):

====================================  =====================================
plan                                  pass it accelerates
====================================  =====================================
:class:`PositionCollectPlan`          pass 1 - collect the ``r`` pre-drawn
                                      uniform positions of the sample ``R``
                                      (sorted positions + ``searchsorted``;
                                      merge is one fancy-index store into
                                      the ``(r, 2)`` rows, keyed by the
                                      sorted rank, so shard order is
                                      irrelevant)
:class:`DegreeCountPlan`              pass 2 - degrees of the endpoints of
                                      ``R`` (id remap via the prefiltered
                                      vertex :class:`Probe` + ``bincount``;
                                      merge sums the per-shard count
                                      tables)
:class:`IncidentEdgePlan`             pass 5 - each tracked vertex's
                                      offers (far endpoints of its edges,
                                      found via the prefiltered vertex
                                      :class:`Probe`) and degree; merge
                                      counts offers per vertex and, at the
                                      per-vertex flush points
                                      (:func:`flush_points`), hands the
                                      held offers to a callback in stream
                                      order
:class:`NeighborPositionPlan`         pass 3 - the neighbor at each
                                      requested (owner, occurrence) event
                                      (owners found via the prefiltered
                                      vertex :class:`Probe`); shards report
                                      per-batch occurrence counts and
                                      hits, merged in stream-offset order
                                      (matched request ranges expanded
                                      with ``np.repeat``, duplicates
                                      included)
:class:`WatchKeyPlan`                 passes 4 and 6 - closure watches:
                                      how often each watched closing edge
                                      occurs on the tape (packed 64-bit
                                      keys in a prefiltered edge
                                      :class:`Probe`; merge sums the
                                      aligned count vectors); pass 4 reads
                                      presence, pass 6 weights the counts
====================================  =====================================

Seed-for-seed parity with the per-edge reference folds of
``tests/reference_passes.py`` is a hard invariant, enforced by
``tests/test_kernels_parity.py`` and pinned end to end by
``tests/test_engine_golden.py``: the kernels consume no randomness at all
(all RNG draws happen either before the scan, or in pass 5's ordered
absorb at the flush points, in the stream order of the offers that reach
them), so estimates, diagnostics, pass counts, and space accounting are
bit-identical at any chunk size and worker count.

Blocks arrive in the tape's row width: int64, or int32 from a narrow
tape (every id in ``[0, 2^31)``).  No kernel widens a block: narrow ids
hash to the slots of their int64 keys (:meth:`KeySet.find`), pack
straight into edge keys (:func:`_packed_block`), and only hit-sized
outputs (offers, neighbours) are widened to int64, so every table,
union, charge and partial is the same at either width.

Edge keys are packed into 64 bits when their ids fit in unsigned 32 bits;
a watch counts its keys that do not fit by per-row lookups in a
key -> rank index, made only for the tape rows holding such an id, and
tape rows with larger ids never match a packed key.  Only this module
handles ids past the packing.

Dedupes go through :func:`sorted_unique` (a sort plus a neighbour mask,
equal to ``np.unique``), for edge rows :func:`unique_edge_rows`, and for
other rows (triangles) :func:`unique_rows`.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..types import Edge, Vertex
from .executor import PassPlan
from .stages import prefilter_bits

#: Vertex ids in ``[0, PACK_LIMIT)`` pack into 32-bit halves of an edge
#: key; other ids (negative ones on unvalidated streams too) never match a
#: packed key, and watched keys holding one take a per-row index.
PACK_LIMIT = 1 << 32


#: Fibonacci-hashing multiplier (2^64 / golden ratio, odd).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

#: Slot-rank table entries: an empty slot, and a slot whose values take the
#: exact search (two or more keys own it, or its key is ranked 0xFFFE or above).
_EMPTY, _COLLIDED = 0, 0xFFFF


class KeySet:
    """A plan's tracked keys: sorted unique keys plus a slot-rank table.

    The table is a power-of-two ``uint16`` array of ``2^(bits - 1)``
    entries for ``bits = prefilter_bits(len(keys))``: four 2-byte slots
    per key, the same bytes as eight 1-byte slots
    (:data:`~repro.core.stages.PREFILTER_SLOTS_PER_KEY`).  A key's slot is
    the multiplicative hash ``(key * 0x9E3779B97F4A7C15) >> (65 - bits)``
    over its 64-bit pattern.  Given an explicit ``slots`` count (a
    :class:`SharedProbe`'s union, counted in 1-byte slots), the table has
    ``slots // 2`` entries and the hash's top 32 bits are scaled to them:
    ``(h >> 32) * entries >> 32`` (``entries`` below 2^32).

    An entry is ``0`` for an empty slot, ``0xFFFF`` for a slot two or more
    keys own, and ``1 + rank`` for a slot one key of rank below 0xFFFE owns;
    the slot of a key ranked 0xFFFE or above also reads ``0xFFFF``.
    ``find`` therefore runs no binary search on a value whose entry names a
    rank: it compares the value with that key, and only values in
    ``0xFFFF`` slots go through ``searchsorted``.  Keys may be int64 vertex
    ids or uint64 packed edge keys; probes share the keys' dtype, except
    that int64 keys also take int32 probes (a narrow tape's ids), which
    hash to the same slots and compare equal without a widening copy.

    A built set is never mutated, so every sweep thread probes the same
    instance concurrently.
    """

    __slots__ = ("keys", "table", "_shift", "_range")

    def __init__(self, keys: np.ndarray, slots: Optional[int] = None) -> None:
        self.keys = keys
        if slots is None:
            bits = prefilter_bits(len(keys)) - 1
            self._shift, self._range = np.uint64(64 - bits), None
            entries = 1 << bits
        else:
            entries = slots // 2
            self._shift, self._range = np.uint64(32), np.uint64(entries)
        key_slots = self._slots(keys)
        owners = np.arange(1, len(keys) + 1, dtype=np.uint32)
        np.minimum(owners, _COLLIDED, out=owners)
        self.table = np.zeros(entries, dtype=np.uint16)
        self.table[key_slots] = owners
        # A slot two keys hash to is equal neighbours in the sorted slots.
        key_slots.sort()
        self.table[key_slots[1:][key_slots[1:] == key_slots[:-1]]] = _COLLIDED

    def __len__(self) -> int:
        return len(self.keys)

    def _slots(self, values: np.ndarray) -> np.ndarray:
        if values.dtype.itemsize == 8:
            slots = values.view(np.uint64) * _HASH_MULTIPLIER
        else:
            # Narrow (int32) ids hash as the uint64 pattern of their int64
            # value, so they find the slots of the int64 keys.
            slots = values.astype(np.uint64)
            slots *= _HASH_MULTIPLIER
        slots >>= self._shift
        if self._range is not None:
            slots *= self._range
            slots >>= np.uint64(32)
        # Every slot is below the table length, so the int64 view is exact;
        # indexing with it skips NumPy's uint64 -> intp copy.
        return slots.view(np.int64)

    def find(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, ranks)``: where ``values`` hold a key, and its index."""
        entries = self.table[self._slots(values)]
        # ``flatnonzero`` of the uint16 entries themselves is far slower.
        survivors = np.flatnonzero(entries != _EMPTY)
        entries = entries[survivors]
        probes = values[survivors]
        keys = self.keys
        ranks = entries.astype(np.int64)
        ranks -= 1
        collided = np.flatnonzero(entries == _COLLIDED)
        if len(collided):
            exact = np.searchsorted(keys, probes[collided])
            np.minimum(exact, len(keys) - 1, out=exact)
            ranks[collided] = exact
        # Indices, not a boolean mask: the mask's compress is several
        # times slower on these sparse hits.
        hit = np.flatnonzero(keys[ranks] == probes)
        return survivors[hit], ranks[hit]


def packable(rows: np.ndarray) -> np.ndarray:
    """Mask of the ``(n, 2)`` rows whose ids all lie in ``[0, PACK_LIMIT)``."""
    return ((rows >= 0) & (rows < PACK_LIMIT)).all(axis=1)


def pack_canonical_rows(rows: np.ndarray) -> Optional[np.ndarray]:
    """Pack canonical ``(u, v)`` rows into uint64 keys, or ``None`` when an
    id lies outside ``[0, PACK_LIMIT)``."""
    # Unsigned, a negative id lies past PACK_LIMIT too: one reduction
    # checks both ends, and the same view packs.
    unsigned = rows.astype(np.int64, copy=False).view(np.uint64)
    if len(rows) and int(unsigned.max()) >= PACK_LIMIT:
        return None
    packed = unsigned[:, 0] << np.uint64(32)
    packed |= unsigned[:, 1]
    return packed


def sorted_unique(values: np.ndarray, return_inverse: bool = False):
    """``np.unique`` of a 1-D array by a sort and a neighbour mask.

    Same values and dtype as ``np.unique(values)`` (which takes a slower
    hash path for integer inputs when no inverse is asked for); with
    ``return_inverse`` also each value's index in the result.
    """
    order = np.argsort(values) if return_inverse else None
    ordered = values[order] if return_inverse else np.sort(values)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    unique = ordered[first]
    if not return_inverse:
        return unique
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return unique, inverse


def unique_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique rows of a 2-D array (in the order of their tuples), and
    each row's index among them."""
    unique, inverse = np.unique(rows, axis=0, return_inverse=True)
    return unique, inverse.reshape(-1)


def unique_edge_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique ``(u, v)`` rows of an ``(n, 2)`` array, and each row's
    index among them: by packed keys, or row-wise when an id lies outside
    ``[0, PACK_LIMIT)``."""
    packed = pack_canonical_rows(rows)
    if packed is None:
        return unique_rows(rows)
    keys, inverse = sorted_unique(packed, return_inverse=True)
    unique = np.empty((len(keys), 2), dtype=np.int64)
    unique[:, 0] = keys >> np.uint64(32)
    unique[:, 1] = keys & np.uint64(PACK_LIMIT - 1)
    return unique, inverse


def _packed_block(rows: np.ndarray) -> np.ndarray:
    """The block's packed edge keys; rows with ids outside the packing are
    dropped (they cannot match any packed key).

    Narrow (int32) rows come from a tape whose ids all lie in ``[0, 2^31)``:
    each id is stored straight into its 32-bit half of the little-endian
    key, with no widening copy and no range check.
    """
    if rows.dtype.itemsize == 4:
        packed = np.empty(len(rows), dtype="<u8")
        halves = packed.view("<u4").reshape(-1, 2)
        halves[:, 0] = rows[:, 1]
        halves[:, 1] = rows[:, 0]
        return packed
    packed = pack_canonical_rows(rows)
    if packed is None:
        packed = pack_canonical_rows(rows[packable(rows)])
    return packed


class KeySpace:
    """What a block's rows are probed as: its endpoints, or its packed edges.

    Probes of one space see the same values for the same block, so the
    executor lets the plans of a sweep that probe one space share one
    union probe (:meth:`share`).
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str, values: Callable[[np.ndarray], np.ndarray]) -> None:
        self.name = name
        self.values = values

    def share(self, probes: Sequence["Probe"]) -> None:
        """Bind one sweep's non-empty probes of this space for the sweep.

        A lone probe builds its own table and probes exactly as it would
        outside a sweep; two or more are bound to one
        :class:`SharedProbe` over the union of their keys.  The union's
        table has exactly the bytes of the members' own tables together -
        at least 8 per union key, since each member has at least 8 per key -
        so the members' ``kernel-prefilter`` charges are exactly the union's
        size.  Each member also gets a rank bitmap: its keys among the
        union's, as ``uint64`` words plus each word's int64 count of member
        keys before it, 2 bits per (member, union key).
        """
        if len(probes) == 1:
            probes[0].own()
            return
        keys = sorted_unique(np.concatenate([probe.keys for probe in probes]))
        slots = sum(1 << prefilter_bits(len(probe)) for probe in probes)
        union = SharedProbe(self, keys, slots, probes)
        for probe in probes:
            probe.shared = union


#: Vertex-keyed plans probe every endpoint of the block.
VERTEX = KeySpace("vertex", lambda rows: rows.reshape(-1))
#: Edge-keyed plans probe the block's packed canonical edges.
EDGE = KeySpace("edge", _packed_block)


def _rank_bitmap(union: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``keys`` (a subset of the sorted ``union``) as a bitmap over the
    union's ranks: ``uint64`` words (bit ``u & 63`` of word ``u >> 6`` set
    for union rank ``u``) and each word's count of keys before it."""
    ranks = np.searchsorted(union, keys)
    mask = np.zeros(-(-len(union) // 64) * 64, dtype=bool)
    mask[ranks] = True
    words = np.packbits(mask, bitorder="little").view("<u8").astype(np.uint64)
    before = np.searchsorted(ranks, np.arange(0, len(mask), 64))
    return words, before


class SharedProbe:
    """The union of several plans' keys in one key space, for one sweep.

    ``find`` probes a block once per task: the first plan's kernel of the
    task computes it and the task's other kernels reuse it.  The memo
    holds one block per thread, keyed by the task's ``start_row`` (a
    task's block is fixed for the sweep, and a retried task reruns the
    same block), and lives with this object, so it never outlives the
    sweep.  So do the members' rank bitmaps (:meth:`rerank`).
    """

    __slots__ = ("space", "keys", "_keyset", "_memo", "_bitmaps")

    def __init__(
        self, space: KeySpace, keys: np.ndarray, slots: int, members: Sequence["Probe"]
    ) -> None:
        self.space = space
        self.keys = keys
        self._keyset = KeySet(keys, slots)
        self._memo = threading.local()
        self._bitmaps = {member: _rank_bitmap(keys, member.keys) for member in members}

    def find(self, start_row: int, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The union's ``(positions, ranks)`` for the block at ``start_row``."""
        memo = self._memo
        if getattr(memo, "start_row", None) != start_row:
            memo.hits = self._keyset.find(self.space.values(rows))
            memo.start_row = start_row
        return memo.hits

    def rerank(
        self, member: "Probe", positions: np.ndarray, union_ranks: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The union hits that are ``member``'s keys, ranked among them."""
        words, before = self._bitmaps[member]
        index = union_ranks >> 6
        # Shift each hit's bit to the top of its word: the top bit says
        # whether it is a member key, the bits left count those below it.
        shifted = words[index]
        shifted <<= (~union_ranks & 63).view(np.uint64)
        mine = np.flatnonzero(shifted.view(np.int64) < 0)
        ranks = before[index[mine]]
        ranks += np.bitwise_count(shifted[mine])
        ranks -= 1
        return positions[mine], ranks


class Probe:
    """One plan's membership test: its sorted keys in one :class:`KeySpace`.

    A plan holds its keys, not a table: probed alone, the probe builds the
    plan's own :class:`KeySet` (at sweep start, or on first use); bound to
    a sweep's :class:`SharedProbe` by :meth:`KeySpace.share`, it reads the
    union's hits and keeps those that are its own keys, re-ranked among
    them by its rank bitmap (:meth:`SharedProbe.rerank`).  Either way
    ``find`` returns what the plan's own ``KeySet.find`` would: the
    ascending positions of its keys in the block's probe values and their
    ranks among its keys.
    """

    __slots__ = ("space", "keys", "shared", "_own")

    def __init__(self, space: KeySpace, keys: np.ndarray) -> None:
        self.space = space
        self.keys = keys
        self.shared: Optional[SharedProbe] = None
        self._own: Optional[KeySet] = None

    def __len__(self) -> int:
        return len(self.keys)

    def own(self) -> KeySet:
        """The plan's own table, built on first use."""
        if self._own is None:
            self._own = KeySet(self.keys)
        return self._own

    def find(self, start_row: int, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, ranks)`` of the plan's keys among the block's probe values."""
        shared = self.shared
        if shared is None:
            return self.own().find(self.space.values(rows))
        return shared.rerank(self, *shared.find(start_row, rows))


# ---------------------------------------------------------------------------
# pass 1 - pre-drawn uniform stream positions


def _positions_kernel(spec: np.ndarray, start_row: int, rows: np.ndarray):
    """Rows at the requested (sorted) stream positions inside this block."""
    sorted_positions = spec
    lo = int(np.searchsorted(sorted_positions, start_row, side="left"))
    hi = int(np.searchsorted(sorted_positions, start_row + len(rows), side="left"))
    if hi == lo:
        return None
    return lo, rows[sorted_positions[lo:hi] - start_row]


class PositionCollectPlan(PassPlan):
    """Pass-1 plan: fetch the edge at each requested stream position.

    ``positions`` holds the pre-drawn uniform positions (duplicates allowed,
    order preserved in the result); the pass is abandoned as soon as the
    largest requested position has been served.  Merge is order-free: each
    partial carries its rank range into the sorted position array, and a
    stream position lives in exactly one block.  :meth:`rows` is the
    ``(r, 2)`` array of collected edges; :meth:`result` the same edges as
    tuples.
    """

    name = "pass1/positions"
    kernel = staticmethod(_positions_kernel)

    def __init__(self, positions: np.ndarray) -> None:
        self._r = len(positions)
        self._order = np.argsort(positions, kind="stable")
        self._sorted = positions[self._order]
        self._rows = np.empty((self._r, 2), dtype=np.int64)
        self._served = 0

    def spec(self) -> np.ndarray:
        return self._sorted

    def absorb(self, partial) -> None:
        lo, rows = partial
        self._rows[self._order[lo : lo + len(rows)]] = rows
        self._served = max(self._served, lo + len(rows))

    def finished(self) -> bool:
        return self._served >= self._r

    def stop_row(self) -> Optional[int]:
        return int(self._sorted[-1]) + 1 if self._r else 0

    def rows(self) -> np.ndarray:
        """The edge at each requested position, as an ``(r, 2)`` array."""
        if self._served < self._r:
            raise ValueError(
                f"stream ended with unserved sample positions "
                f"(max requested {int(self._sorted[-1]) if self._r else -1})"
            )
        return self._rows

    def result(self) -> List[Edge]:
        return list(map(tuple, self.rows().tolist()))


# ---------------------------------------------------------------------------
# pass 2 - tracked-vertex degree counting


def _degree_kernel(spec: Probe, start_row: int, rows: np.ndarray):
    """Per-block ``bincount`` of tracked-endpoint occurrences."""
    tracked = spec
    if len(tracked) == 0:
        return None
    ranks = tracked.find(start_row, rows)[1]
    if not len(ranks):
        return None
    return np.bincount(ranks, minlength=len(tracked))


class DegreeCountPlan(PassPlan):
    """Pass-2 plan: degree of every tracked vertex id (merge: summed tables).

    ``tracked_ids`` must be sorted and unique; the result is the aligned
    int64 count vector.  Also serves Algorithm 3's heavy-edge degree
    counters when given the candidate-triangle endpoints.
    """

    name = "pass2/degrees"
    kernel = staticmethod(_degree_kernel)

    def __init__(self, tracked_ids: np.ndarray) -> None:
        self._ids = Probe(VERTEX, tracked_ids)
        self._counts = np.zeros(len(tracked_ids), dtype=np.int64)

    def spec(self) -> Probe:
        return self._ids

    def probe(self) -> Probe:
        return self._ids

    def absorb(self, partial) -> None:
        self._counts += partial

    def finished(self) -> bool:
        return len(self._ids) == 0

    def result(self) -> np.ndarray:
        return self._counts


# ---------------------------------------------------------------------------
# pass 5 - offers to tracked vertices, resolved at per-vertex flush points


def flush_points(s: int, upto: int) -> np.ndarray:
    """A vertex's flush points through ``upto``, for ``s`` samples per bundle.

    Algorithm 3's sample bundles on a vertex resolve the offers they hold
    when the vertex's offer count reaches a flush point: ``p0 = 0`` and
    ``p(i+1) = p(i) + max(32, min(p(i), max(s, 1024)))``.  The step doubles
    from 32 (a vertex with fewer offers resolves once, at the end of the
    pass) and is capped at ``max(s, 1024)``, so a vertex never holds more
    offers than that between points.
    """
    cap = max(s, 1024)
    points = []
    point = 0
    while point < upto:
        point += max(32, min(point, cap))
        points.append(point)
    return np.asarray(points, dtype=np.int64)


def _incident_kernel(spec: Probe, start_row: int, rows: np.ndarray):
    """The block's offers in stream order: ``(tracked ranks, far endpoints)``.

    Each tracked endpoint of a row is offered the row's other endpoint; a
    row's first endpoint comes first, and a self-loop offers twice.
    """
    tracked = spec
    if len(tracked) == 0:
        return None
    positions, ranks = tracked.find(start_row, rows)
    if not len(positions):
        return None
    # The far endpoint of flattened endpoint 2i + j is 2i + (1 - j).
    return ranks, rows.reshape(-1)[positions ^ 1].astype(np.int64, copy=False)


class IncidentEdgePlan(PassPlan):
    """Pass-5 plan: every tracked vertex's offers, resolved at its flush points.

    ``tracked_ids`` must be sorted and unique.  The plan counts each
    vertex's offers and holds them until the count reaches a flush point
    (:func:`flush_points` for ``s``); it then calls ``flush(rank, offers,
    seen)`` with the vertex's rank, its offers since its previous point
    (a fresh array, in stream order) and that point's count ``seen``.
    Flushes run in the stream order of the offers that reach the points,
    on the sweeping thread, so a caller's sequential RNG draws happen in
    the same order at any chunk size and worker count.  Resolved offers
    are dropped: a vertex holds fewer than ``max(s, 1024)`` offers plus a
    block's.  :meth:`result` is the offer count (degree) of every vertex;
    :meth:`tails` the offers still held at the end of the pass.
    """

    name = "pass5/incident"
    kernel = staticmethod(_incident_kernel)

    def __init__(
        self, tracked_ids: np.ndarray, s: int, flush: Callable[[int, np.ndarray, int], None]
    ) -> None:
        self._ids = Probe(VERTEX, tracked_ids)
        self._s = s
        self._flush = flush
        self._points = flush_points(s, 1)
        self._counts = np.zeros(len(tracked_ids), dtype=np.int64)
        # Each vertex's last flush point reached and its next one, and the
        # offers held since the last (blocks of ``(ranks, offers)``, in
        # stream order).
        self._flushed = np.zeros(len(tracked_ids), dtype=np.int64)
        self._next = np.full(len(tracked_ids), self._points[0], dtype=np.int64)
        self._held: List[Tuple[np.ndarray, np.ndarray]] = []

    def spec(self) -> Probe:
        return self._ids

    def probe(self) -> Probe:
        return self._ids

    def absorb(self, partial) -> None:
        ranks = partial[0]
        self._held.append(partial)
        before = self._counts
        added = np.bincount(ranks, minlength=len(before))
        self._counts = after = before + added
        vertices = np.flatnonzero(after >= self._next)
        if not len(vertices):
            return
        top = int(after[vertices].max())
        if self._points[-1] <= top:
            self._points = flush_points(self._s, 2 * top)
        points = self._points
        # The points each flushing vertex reaches in this block: one event
        # per point, with its vertex, the point and the one before it, and
        # the block position of the offer that reaches it.
        first = np.searchsorted(points, before[vertices], side="right")
        last = np.searchsorted(points, after[vertices], side="right")
        runs = last - first
        vertex = np.repeat(vertices, runs)
        index = np.arange(len(vertex)) - np.repeat(np.cumsum(runs) - runs - first, runs)
        point = points[index]
        previous = np.where(index > 0, points[index - 1], 0)
        block_start = np.cumsum(added) - added
        order = np.argsort(ranks, kind="stable")
        position = order[block_start[vertex] + point - before[vertex] - 1]
        # The flushing vertices' held offers (indices into held), grouped by
        # vertex: vertex v's run starts at its offer number flushed[v] + 1.
        held_ranks = np.concatenate([block[0] for block in self._held])
        held_offers = np.concatenate([block[1] for block in self._held])
        flushing = np.zeros(len(after), dtype=bool)
        flushing[vertices] = True
        grouped = np.flatnonzero(flushing[held_ranks])
        grouped = grouped[np.argsort(held_ranks[grouped], kind="stable")]
        run_start = np.searchsorted(held_ranks[grouped], vertices)
        flushed = self._flushed
        at = np.repeat(run_start - flushed[vertices], runs)
        flush = self._flush
        for event in np.argsort(position).tolist():
            lo, hi = at[event] + previous[event], at[event] + point[event]
            flush(int(vertex[event]), held_offers[grouped[lo:hi]], int(previous[event]))
        # Drop the resolved offers: the first reached - flushed of each run.
        reached = points[last - 1]
        resolved = reached - flushed[vertices]
        drop = np.repeat(run_start - np.cumsum(resolved) + resolved, resolved)
        drop += np.arange(len(drop))
        keep = np.ones(len(held_ranks), dtype=bool)
        keep[grouped[drop]] = False
        self._held = [(held_ranks[keep], held_offers[keep])]
        flushed[vertices] = reached
        self._next[vertices] = points[last]

    def finished(self) -> bool:
        return len(self._ids) == 0

    def result(self) -> np.ndarray:
        return self._counts

    def tails(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(seen, starts, offers)`` at the end of the pass: vertex ``v``
        still holds ``offers[starts[v]:starts[v + 1]]``, in stream order,
        made since its last flush point ``seen[v]``."""
        empty = np.empty(0, dtype=np.int64)
        ranks = np.concatenate([block[0] for block in self._held] + [empty])
        offers = np.concatenate([block[1] for block in self._held] + [empty])
        grouped = np.argsort(ranks, kind="stable")
        starts = np.searchsorted(ranks[grouped], np.arange(len(self._counts) + 1))
        return self._flushed, starts, offers[grouped]


# ---------------------------------------------------------------------------
# pass 3 - neighbor at a requested (owner, occurrence) event


def _neighbor_kernel(spec, start_row: int, rows: np.ndarray):
    """Per-block incident events: occurrence counts plus prunable hits.

    Returns ``(counts, owners, local_occurrences, neighbors)`` where
    ``counts`` is the per-owner incidence count of this block (always
    needed by the merge to maintain global occurrence bases) and the
    remaining arrays list the block's events whose *local* occurrence
    rank could still match a request (global occurrence = base + local
    rank >= local rank, so ranks beyond the largest requested position of
    an owner can never match and are dropped in the worker).
    """
    owners, max_position = spec
    positions, event_owner = owners.find(start_row, rows)
    if not len(positions):
        return None
    # The far endpoint of flattened endpoint 2i + j is 2i + (1 - j).
    event_neighbor = rows.reshape(-1)[positions ^ 1].astype(np.int64, copy=False)
    order = np.argsort(event_owner, kind="stable")
    grouped_owner = event_owner[order]
    counts = np.bincount(grouped_owner, minlength=len(owners))
    starts = np.zeros(len(owners) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    local = np.arange(len(grouped_owner), dtype=np.int64) - starts[grouped_owner]
    keep = local <= max_position[grouped_owner]
    return counts, grouped_owner[keep], local[keep], event_neighbor[order][keep]


class NeighborPositionPlan(PassPlan):
    """Pass-3 plan: the neighbor at each requested incident-stream position.

    Request ``i`` asks for the ``request_positions[i]``-th (0-based) edge
    incident to ``owner_ids[request_owner_index[i]]``, in stream order, and
    receives that edge's far endpoint.  ``owner_ids`` must be sorted and
    unique.  The merge folds per-batch occurrence counts into a running
    per-owner base (in stream-offset order - the one order-sensitive part)
    and matches the offset events against the packed request keys;
    duplicate requests for the same position are all served.  The pass is
    abandoned once every request is served; unserved requests (a position
    beyond the owner's degree) come back as ``-1``.
    """

    name = "pass3/neighbors"
    kernel = staticmethod(_neighbor_kernel)

    def __init__(
        self,
        owner_ids: np.ndarray,
        request_owner_index: np.ndarray,
        request_positions: np.ndarray,
    ) -> None:
        self._owners = Probe(VERTEX, owner_ids)
        self._total = len(request_positions)
        request_keys = request_owner_index.astype(np.uint64)
        request_keys <<= np.uint64(32)
        request_keys |= request_positions.astype(np.uint64)
        self._request_order = np.argsort(request_keys, kind="stable")
        self._sorted_request_keys = request_keys[self._request_order]
        max_position = np.full(len(owner_ids), -1, dtype=np.int64)
        if self._total:
            np.maximum.at(max_position, request_owner_index, request_positions)
        self._max_position = max_position
        self._base = np.zeros(len(owner_ids), dtype=np.int64)
        self._out = np.full(self._total, -1, dtype=np.int64)
        self._served = 0

    def spec(self):
        return self._owners, self._max_position

    def probe(self) -> Probe:
        return self._owners

    def absorb(self, partial) -> None:
        counts, owners, local, neighbors = partial
        if len(owners):
            occurrence = self._base[owners] + local
            event_keys = owners.astype(np.uint64)
            event_keys <<= np.uint64(32)
            event_keys |= occurrence.astype(np.uint64)
            lo = np.searchsorted(self._sorted_request_keys, event_keys, side="left")
            hi = np.searchsorted(self._sorted_request_keys, event_keys, side="right")
            matched = np.flatnonzero(hi > lo)
            if len(matched):
                # Expand each matched event's request range [lo, hi).
                runs = hi[matched] - lo[matched]
                ends = np.cumsum(runs)
                at = np.arange(ends[-1]) + np.repeat(lo[matched] - ends + runs, runs)
                self._out[self._request_order[at]] = np.repeat(neighbors[matched], runs)
                self._served += int(ends[-1])
        self._base += counts

    def finished(self) -> bool:
        return self._served >= self._total

    def result(self) -> np.ndarray:
        return self._out


# ---------------------------------------------------------------------------
# passes 4 and 6 - closure watches: watched-edge occurrence counts


def _watch_kernel(spec, start_row: int, rows: np.ndarray):
    """Per-block occurrence ``bincount`` of the watched keys."""
    packed, overflow, size = spec
    ranks = packed.find(start_row, rows)[1] if len(packed) else np.empty(0, dtype=np.int64)
    if overflow is not None:
        # Keys outside the 32-bit packing: only the block's rows holding
        # such an id are looked up, in the overflow keys' index.
        packed_ranks, index = overflow
        wide = rows[~packable(rows)].tolist()
        found = [i for i in map(index.get, map(tuple, wide)) if i is not None]
        ranks = np.concatenate((packed_ranks[ranks], np.array(found, dtype=np.int64)))
    if not len(ranks):
        return None
    return np.bincount(ranks, minlength=size)


class WatchKeyPlan(PassPlan):
    """Pass-4/6 plan: how often each watched edge occurs on the tape.

    ``keys`` are sorted unique canonical edges (an ``(n, 2)`` array, as
    :func:`unique_edge_rows` returns them); the result is the aligned
    int64 occurrence-count vector (merge: summed).  The model's tape has
    unrepeated edges, but unvalidated streams may not: pass 4 reads
    presence (a count above zero) and pass 6 weights each count, the way
    the per-edge references do.  When several estimator instances watch
    overlapping keys the caller passes the *union* once - the scan cost is
    per unique key, and the per-instance fan-out happens on the caller's
    side of the result.  The keys that fit the 32-bit packing are the
    packed edge :class:`Probe` (shared with the sweep's other edge
    probes); keys with an id outside ``[0, PACK_LIMIT)`` take a key -> rank
    index, probed only with the block's rows holding such an id, and the
    packed ranks are mapped back to the keys' order.  The plan never
    stops early: it is finished from the start only when there are no
    keys.
    """

    name = "pass4/watch"
    kernel = staticmethod(_watch_kernel)

    def __init__(self, keys: np.ndarray) -> None:
        rows = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
        fits = packable(rows)
        self._packed = Probe(EDGE, pack_canonical_rows(rows[fits]))
        self._overflow = None
        if not fits.all():
            wide = np.flatnonzero(~fits).tolist()
            index = dict(zip(map(tuple, rows[wide].tolist()), wide))
            self._overflow = (np.flatnonzero(fits), index)
        self._counts = np.zeros(len(rows), dtype=np.int64)

    def spec(self):
        return self._packed, self._overflow, len(self._counts)

    def probe(self) -> Probe:
        return self._packed

    def absorb(self, partial) -> None:
        self._counts += partial

    def finished(self) -> bool:
        return len(self._counts) == 0

    def result(self) -> np.ndarray:
        return self._counts
