"""A frozen list-per-row cuckoo filter: the differential oracle.

This is :class:`repro.filters.cuckoo.CuckooFilter`'s algorithm as it stood
before its kick loop was rewritten: each row is a Python list holding its
fingerprints in arrival order, a kick takes its victim slot from one
cursor per filter, the chain records ``(row, slot)`` pairs, and a failed
chain unwinds every kick.  The shared hash memo and the replica replay
path are left out, since neither can change a result; a plain per-filter
dict memo stands in for the first.  ``tests/test_cuckoo_differential.py``
feeds this filter and the production one the same batch streams and
requires identical results, rows, sizes and kick cursors after every
batch.  Keep it as it is: it is the fixed point those checks compare to.
"""

from __future__ import annotations

from repro.common.config import CuckooConfig

_M64 = 0xFFFFFFFFFFFFFFFF


def _mix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class ReferenceCuckooFilter:
    """List-per-row cuckoo filter with the production semantics."""

    def __init__(self, config: CuckooConfig) -> None:
        self.config = config
        self._buckets: list[list[int]] = [[] for _ in range(config.rows)]
        self._row_mask = config.rows - 1
        self._fp_mask = (1 << config.fingerprint_bits) - 1
        self._kick_cursor = 0
        self._size = 0
        self._kick_ceiling = int(config.capacity * 0.95)
        self._hashes: dict[int, tuple[int, int, int]] = {}

    def _candidate_rows(self, item: int) -> tuple[int, int, int]:
        rows = self._hashes.get(item)
        if rows is None:
            fp = (_mix64(item * 2 + 1) & self._fp_mask) or 1
            i1 = _mix64(item) & self._row_mask
            rows = self._hashes[item] = (fp, i1,
                                         i1 ^ (_mix64(fp) & self._row_mask))
        return rows

    def __len__(self) -> int:
        return self._size

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(bucket) for bucket in self._buckets)

    def contains(self, item: int) -> bool:
        fp, i1, i2 = self._candidate_rows(item)
        return fp in self._buckets[i1] or fp in self._buckets[i2]

    def insert(self, item: int, touched: set[int] | None = None) -> bool:
        fp, i1, i2 = self._candidate_rows(item)
        ways = self.config.ways
        for row in (i1, i2):
            bucket = self._buckets[row]
            if len(bucket) < ways:
                bucket.append(fp)
                self._size += 1
                if touched is not None:
                    touched.add(row)
                return True
        if self._size >= self._kick_ceiling:
            return False
        cursor = self._kick_cursor
        row = i1 if (cursor & 1) == 0 else i2
        cursor += 1
        chain: list[tuple[int, int]] = []
        for _ in range(self.config.max_kicks):
            bucket = self._buckets[row]
            slot = cursor % len(bucket)
            cursor += 1
            chain.append((row, slot))
            bucket[slot], fp = fp, bucket[slot]
            row ^= _mix64(fp) & self._row_mask
            bucket = self._buckets[row]
            if len(bucket) < ways:
                bucket.append(fp)
                self._size += 1
                self._kick_cursor = cursor
                if touched is not None:
                    touched.add(row)
                    touched.update(kicked for kicked, _slot in chain)
                return True
        self._kick_cursor = cursor
        for row, slot in reversed(chain):
            bucket = self._buckets[row]
            bucket[slot], fp = fp, bucket[slot]
        return False

    def delete(self, item: int, touched: set[int] | None = None) -> bool:
        fp, i1, i2 = self._candidate_rows(item)
        for row in (i1, i2):
            bucket = self._buckets[row]
            if fp in bucket:
                bucket.remove(fp)
                self._size -= 1
                if touched is not None:
                    touched.add(row)
                return True
        return False

    def clear(self) -> None:
        for bucket in self._buckets:
            bucket.clear()
        self._size = 0
