"""Cuckoo filter (Fan et al., CoNEXT'14) as used by F-Barre's LCF/RCFs.

A cuckoo filter stores short fingerprints in a 2-choice hash table and —
unlike a Bloom filter — supports deletion, which F-Barre needs because
filters must track TLB insertions *and* evictions (Section V-A1).

The implementation is deterministic: hashing is a fixed 64-bit mixer, and
each kick takes its victim slot from one cursor per filter, advanced by
every kick (``slot = cursor % ways``), so simulations replay identically
for a given seed.

Determinism also lets identical replicas share work.  A filter fed a
numbered stream of batches (:meth:`CuckooFilter.apply_batch`) is, before
batch ``k``, a pure function of its geometry and batches ``0..k-1``.  The
first replica to apply batch ``k`` records its exact :class:`FilterEffect`,
and every other replica at the same stream position copies that effect
instead of re-hashing and re-kicking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.common.config import CuckooConfig


def _mix64(x: int) -> int:
    """SplitMix64 finalizer; a fast, well-distributed 64-bit mixer."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


#: Widest fingerprint whose table is built whole (65,536 entries).
_FP_XOR_LIST_MAX_BITS = 16


class _LazyXorTable(dict):
    """``_mix64(fp) & row_mask``, computed the first time ``fp`` is read."""

    def __init__(self, row_mask: int) -> None:
        super().__init__()
        self.row_mask = row_mask

    def __missing__(self, fp: int) -> int:
        value = self[fp] = _mix64(fp) & self.row_mask
        return value


#: ``_mix64(fp) & row_mask`` for every possible fingerprint, keyed by
#: (fingerprint_bits, row_mask).  The alternate-bucket hash is recomputed
#: on every filter operation and every kick; the fingerprint space is tiny
#: (2**fingerprint_bits values), so one shared table per geometry replaces
#: the mixer on that path.  Masking inside the table is exact because the
#: row count is a power of two: ``(i ^ mix) & mask == i ^ (mix & mask)``
#: for any in-range row index ``i``.  Widths above
#: ``_FP_XOR_LIST_MAX_BITS`` get a table filled on first use instead.
_FP_XOR_TABLES: dict[tuple[int, int], list[int] | _LazyXorTable] = {}


def _fp_xor_table(fingerprint_bits: int,
                  row_mask: int) -> list[int] | _LazyXorTable:
    key = (fingerprint_bits, row_mask)
    table = _FP_XOR_TABLES.get(key)
    if table is None:
        if fingerprint_bits > _FP_XOR_LIST_MAX_BITS:
            table = _LazyXorTable(row_mask)
        else:
            table = [_mix64(fp) & row_mask
                     for fp in range(1 << fingerprint_bits)]
        _FP_XOR_TABLES[key] = table
    return table


#: Entries one geometry's hash memo may hold before it is emptied: about
#: twice the 8,256 items F-Barre gups and spmv hash at scale 1.0.  A full
#: memo takes about 2.7 MB, and a worker keeps one per geometry it ran.
_HASH_MEMO_CAP = 1 << 14

#: ``{item: (fp, i1, i2)}`` per (fingerprint_bits, row_mask), shared by
#: every filter of that geometry.  A filter's hashes are a pure function
#: of the item and the geometry, so a hit returns exactly what the mixer
#: would, and emptying a full memo (in place, so every sharer sees it)
#: only costs recomputation; it can never change a result.
_HASH_MEMOS: dict[tuple[int, int], dict[int, tuple[int, int, int]]] = {}


def _hash_memo(fingerprint_bits: int,
               row_mask: int) -> dict[int, tuple[int, int, int]]:
    return _HASH_MEMOS.setdefault((fingerprint_bits, row_mask), {})


@dataclass(slots=True, frozen=True)
class FilterEffect:
    """The exact result of one stream batch on one filter state.

    ``seq`` is the batch's stream position, or None when the filter that
    computed it had left the stream (its effect must not be shared).
    ``rows`` holds the final contents of every row the batch changed.
    """

    config: CuckooConfig
    seq: int | None
    rows: tuple[tuple[int, tuple[int, ...]], ...]
    size: int
    kick_cursor: int
    results: tuple[bool, ...]


class CuckooFilter:
    """Approximate membership with insert/delete (may false-positive).

    >>> f = CuckooFilter(CuckooConfig(rows=8, ways=2, fingerprint_bits=8))
    >>> f.insert(0xA1)
    True
    >>> f.contains(0xA1)
    True
    >>> f.delete(0xA1)
    True
    >>> f.contains(0xA1)
    False
    """

    def __init__(self, config: CuckooConfig | None = None) -> None:
        self.config = config or CuckooConfig()
        self._buckets: list[list[int]] = [[] for _ in range(self.config.rows)]
        self._row_mask = self.config.rows - 1
        self._fp_mask = (1 << self.config.fingerprint_bits) - 1
        self._fp_xor = _fp_xor_table(self.config.fingerprint_bits,
                                     self._row_mask)
        self._hashes = _hash_memo(self.config.fingerprint_bits,
                                  self._row_mask)
        self._ways = self.config.ways
        self._max_kicks = self.config.max_kicks
        self._kick_cursor = 0
        self._size = 0
        # Above ~95% load a kick chain almost never succeeds; bail out
        # immediately instead (a dropped best-effort update, Section V-A2).
        self._kick_ceiling = int(self.config.capacity * 0.95)
        #: Stream position for :meth:`apply_batch`: the next batch number
        #: while the filter holds exactly batches ``0..n-1`` of its stream,
        #: None once anything else has changed it (a private lineage).
        self._next_seq: int | None = 0

    # -- hashing -----------------------------------------------------------

    def _fingerprint(self, item: int) -> int:
        # Fingerprint 0 is reserved so empty slots never alias an item.
        fp = _mix64(item * 2 + 1) & self._fp_mask
        return fp or 1

    def _index1(self, item: int) -> int:
        return _mix64(item) & self._row_mask

    def _index2(self, index1: int, fp: int) -> int:
        # Partial-key cuckoo hashing: i2 = i1 ^ hash(fp).
        return index1 ^ self._fp_xor[fp]

    def _candidate_rows(self, item: int) -> tuple[int, int, int]:
        """``(fp, i1, i2)`` for ``item``, from the geometry's memo."""
        return self._hashes.get(item) or self._hash(item)

    def _hash(self, item: int) -> tuple[int, int, int]:
        # Memo miss: SplitMix64 is inlined for the two item hashes
        # (identical arithmetic to _mix64) and the fp hash comes from the
        # precomputed table.
        x = (item * 2 + 1 + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        fp = ((x ^ (x >> 31)) & self._fp_mask) or 1
        x = (item + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        i1 = (x ^ (x >> 31)) & self._row_mask
        rows = (fp, i1, i1 ^ self._fp_xor[fp])
        memo = self._hashes
        if len(memo) >= _HASH_MEMO_CAP:
            memo.clear()
        memo[item] = rows
        return rows

    # -- operations --------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def load_factor(self) -> float:
        return self._size / self.config.capacity

    def contains(self, item: int) -> bool:
        """Membership test; false positives possible.

        A negative is exact only for a key whose insert succeeded and whose
        fingerprint no aliasing delete (same fingerprint, shared row) has
        since removed; :class:`repro.validation.invariants.CheckedCuckooFilter`
        demotes such aliased keys instead of reporting a false negative.
        """
        fp, i1, i2 = self._hashes.get(item) or self._hash(item)
        return fp in self._buckets[i1] or fp in self._buckets[i2]

    def insert(self, item: int, touched: set[int] | None = None) -> bool:
        """Insert; returns False when the filter is too full (no raise).

        F-Barre's filter updates are best-effort (Section V-A2), so a failed
        insertion is a dropped update, not an error.  ``touched``, when
        given, collects every row whose contents changed.
        """
        self._next_seq = None
        fp, i1, i2 = self._hashes.get(item) or self._hash(item)
        buckets = self._buckets
        bucket = buckets[i1]
        if len(bucket) < self._ways:
            bucket.append(fp)
            self._size += 1
            if touched is not None:
                touched.add(i1)
            return True
        bucket = buckets[i2]
        if len(bucket) < self._ways:
            bucket.append(fp)
            self._size += 1
            if touched is not None:
                touched.add(i2)
            return True
        if self._size >= self._kick_ceiling:
            return False  # saturated: kicking is hopeless, drop the update
        # Kick a resident fingerprint to its alternate bucket.
        cursor = self._kick_cursor
        row = i1 if (cursor & 1) == 0 else i2
        cursor += 1
        chain: list[tuple[int, int]] = []
        record = chain.append
        fp_xor = self._fp_xor
        ways = self._ways
        for _ in range(self._max_kicks):
            bucket = buckets[row]
            victim_slot = cursor % len(bucket)
            cursor += 1
            record((row, victim_slot))
            bucket[victim_slot], fp = fp, bucket[victim_slot]
            row ^= fp_xor[fp]
            bucket = buckets[row]
            if len(bucket) < ways:
                bucket.append(fp)
                self._size += 1
                self._kick_cursor = cursor
                if touched is not None:
                    touched.add(row)
                    touched.update(kicked for kicked, _slot in chain)
                return True
        self._kick_cursor = cursor
        # Unwind the displacement chain so a failed insert drops only the
        # *new* fingerprint, never a resident victim's — this is what makes
        # "no false negatives for resident keys" a hard invariant rather
        # than a high-probability property (the validation subsystem
        # asserts it).
        for kicked_row, slot in reversed(chain):
            bucket = self._buckets[kicked_row]
            bucket[slot], fp = fp, bucket[slot]
        return False

    def delete(self, item: int, touched: set[int] | None = None) -> bool:
        """Delete one matching fingerprint; returns whether one was found."""
        self._next_seq = None
        fp, i1, i2 = self._hashes.get(item) or self._hash(item)
        for row in (i1, i2):
            bucket = self._buckets[row]
            if fp in bucket:
                bucket.remove(fp)
                self._size -= 1
                if touched is not None:
                    touched.add(row)
                return True
        return False

    def apply_batch(self, add: bool, items: Sequence[int], seq: int,
                    effect: FilterEffect | None = None) -> FilterEffect:
        """Apply stream batch ``seq``: insert (``add``) or delete ``items``.

        When this filter is at stream position ``seq`` and ``effect`` is
        that batch's recorded effect on the same geometry, the filter is
        in exactly the state the effect was computed from, so the effect
        is copied in.  Otherwise the batch runs item by item through
        :meth:`insert`/:meth:`delete`; a batch out of stream order moves
        the filter to a private lineage for good.  Returns the effect,
        whose ``results`` are the per-item outcomes.
        """
        on_stream = seq == self._next_seq
        if (on_stream and effect is not None and effect.seq == seq
                and effect.config == self.config):
            buckets = self._buckets
            for row, contents in effect.rows:
                buckets[row][:] = contents
            self._size = effect.size
            self._kick_cursor = effect.kick_cursor
            self._next_seq = seq + 1
            return effect
        touched: set[int] = set()
        op = self.insert if add else self.delete
        results = tuple([op(item, touched) for item in items])
        self._next_seq = seq + 1 if on_stream else None
        buckets = self._buckets
        return FilterEffect(
            self.config, seq if on_stream else None,
            tuple([(row, tuple(buckets[row])) for row in touched]),
            self._size, self._kick_cursor, results)

    def clear(self) -> None:
        """Drop all fingerprints (used on TLB shootdown, Section VI).

        Peers' replicas are not cleared at the same stream position, so a
        cleared filter leaves its stream's lineage (see :meth:`apply_batch`).
        """
        for bucket in self._buckets:
            bucket.clear()
        self._size = 0
        self._next_seq = None

    def size_bits(self) -> int:
        """Storage cost in bits (for the Section VII-K area model)."""
        return self.config.capacity * self.config.fingerprint_bits

    def theoretical_false_positive_rate(self) -> float:
        """Upper-bound FP rate: 2b / 2^f (Fan et al., Section VII-K: 1.53%)."""
        return 2 * self.config.ways / (1 << self.config.fingerprint_bits)
