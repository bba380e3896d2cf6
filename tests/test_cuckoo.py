"""Unit + property tests for the cuckoo filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import CuckooConfig
from repro.filters import CuckooFilter


def small_filter() -> CuckooFilter:
    return CuckooFilter(CuckooConfig(rows=64, ways=4, fingerprint_bits=12))


def test_insert_then_contains():
    f = small_filter()
    assert f.insert(0xA1)
    assert f.contains(0xA1)
    assert len(f) == 1


def test_delete_removes_item():
    f = small_filter()
    f.insert(42)
    assert f.delete(42)
    assert not f.contains(42)
    assert len(f) == 0


def test_delete_missing_returns_false():
    f = small_filter()
    assert not f.delete(42)


def test_no_false_negatives_under_load():
    """A cuckoo filter never false-negatives for resident items."""
    f = CuckooFilter(CuckooConfig(rows=256, ways=4, fingerprint_bits=9))
    inserted = []
    rng = np.random.default_rng(7)
    for item in rng.integers(0, 1 << 40, size=700):
        if f.insert(int(item)):
            inserted.append(int(item))
    assert len(inserted) > 600  # should fit well below capacity
    for item in inserted:
        assert f.contains(item)


def test_false_positive_rate_near_theory():
    config = CuckooConfig(rows=256, ways=4, fingerprint_bits=9)
    f = CuckooFilter(config)
    rng = np.random.default_rng(11)
    members = [int(v) for v in rng.integers(0, 1 << 39, size=900)]
    for item in members:
        f.insert(item)
    member_set = set(members)
    probes = [int(v) for v in rng.integers(1 << 39, 1 << 40, size=20000)
              if int(v) not in member_set]
    fp = sum(f.contains(p) for p in probes) / len(probes)
    # Paper: 1.53% theoretical; allow generous slack for load effects.
    assert fp < 4 * f.theoretical_false_positive_rate() + 0.01


def test_insert_fails_gracefully_when_full():
    f = CuckooFilter(CuckooConfig(rows=2, ways=1, fingerprint_bits=4, max_kicks=8))
    results = [f.insert(i) for i in range(50)]
    assert not all(results)  # eventually full
    assert len(f) <= f.config.capacity


def test_clear_empties_filter():
    f = small_filter()
    for i in range(20):
        f.insert(i)
    f.clear()
    assert len(f) == 0
    assert not any(f.contains(i) for i in range(20))


def test_size_bits_matches_geometry():
    f = CuckooFilter(CuckooConfig(rows=256, ways=4, fingerprint_bits=9))
    assert f.size_bits() == 1024 * 9


def test_duplicate_inserts_are_counted_separately():
    """Cuckoo filters store one fingerprint per insert (supports multisets)."""
    f = small_filter()
    f.insert(5)
    f.insert(5)
    assert f.delete(5)
    assert f.contains(5)  # second copy still present
    assert f.delete(5)
    assert not f.contains(5)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1),
                min_size=1, max_size=200, unique=True))
def test_property_insert_delete_roundtrip(items):
    """Inserting then deleting all items leaves an empty filter."""
    f = CuckooFilter(CuckooConfig(rows=512, ways=4, fingerprint_bits=12))
    accepted = [i for i in items if f.insert(i)]
    for item in accepted:
        assert f.contains(item)
    for item in accepted:
        assert f.delete(item)
    assert len(f) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 40) - 1))
def test_property_absent_after_single_delete(item):
    f = small_filter()
    f.insert(item)
    f.delete(item)
    assert not f.contains(item)


# -- the per-geometry hash memo ---------------------------------------------

MEMO_ITEMS = [0, 1, 7, (1 << 40) - 1, (1 << 64) - 1, (1 << 64) + 7] + [
    int(v) for v in np.random.default_rng(21).integers(0, 1 << 62, size=40)]


def formula_rows(f: CuckooFilter, item: int) -> tuple[int, int, int]:
    fp = f._fingerprint(item)
    i1 = f._index1(item)
    return fp, i1, f._index2(i1, fp)


@pytest.mark.parametrize("rows", [1, 8, 256, 4096])
@pytest.mark.parametrize("fingerprint_bits", [1, 9, 16, 32])
def test_memo_matches_hash_formulas(fingerprint_bits, rows):
    f = CuckooFilter(CuckooConfig(rows=rows, fingerprint_bits=fingerprint_bits))
    f._hashes.clear()
    for item in MEMO_ITEMS:
        assert item not in f._hashes
        cold = f._candidate_rows(item)
        assert cold == formula_rows(f, item)
        assert f._hashes[item] == cold
        assert f._candidate_rows(item) == cold  # memo hit
        fp, i1, i2 = cold
        assert 1 <= fp <= f._fp_mask
        assert 0 <= i1 < rows and 0 <= i2 < rows


def test_memo_is_per_geometry():
    narrow = CuckooFilter(CuckooConfig(rows=8, fingerprint_bits=9))
    wide = CuckooFilter(CuckooConfig(rows=256, fingerprint_bits=9))
    assert narrow._hashes is not wide._hashes
    # ways and max_kicks do not enter the hashes, so the memo is shared.
    twin = CuckooFilter(CuckooConfig(rows=8, ways=2, fingerprint_bits=9,
                                     max_kicks=8))
    assert twin._hashes is narrow._hashes
    narrow._hashes.clear()
    wide._hashes.clear()
    for item in MEMO_ITEMS:
        narrow._candidate_rows(item)
    assert not wide._hashes
    for item in MEMO_ITEMS:
        assert wide._candidate_rows(item) == formula_rows(wide, item)
        assert narrow._candidate_rows(item) == formula_rows(narrow, item)


def test_memo_never_grows_past_its_cap():
    from repro.filters import cuckoo

    f = CuckooFilter(CuckooConfig(rows=64, fingerprint_bits=11))
    f._hashes.clear()
    cap = cuckoo._HASH_MEMO_CAP
    for item in range(cap + 100):
        f.contains(item)
        assert len(f._hashes) <= cap
    # Full at ``cap``; the next miss empties it first.
    assert len(f._hashes) == 100
    for item in (0, cap - 1, cap + 99):
        assert f._candidate_rows(item) == formula_rows(f, item)


# -- apply_batch against item-by-item insert/delete, past saturation ----------

def test_batch_matches_item_by_item_past_saturation():
    """At the default geometry (256 x 4, 9-bit, 64 kicks) a computed
    stream batch equals the same items through insert/delete, through
    kick chains that succeed, chains that fail and ceiling drops."""
    config = CuckooConfig()
    batched, reference = CuckooFilter(config), CuckooFilter(config)
    assert batched._kick_ceiling == 972
    rng = np.random.default_rng(5)
    resident: list[int] = []
    chains_ok = chains_failed = ceiling_drops = 0
    # Two insert batches of 16 per delete batch of 24: the load climbs
    # to the ceiling, then churns across the band where chains fail.
    for seq in range(500):
        add = seq % 3 != 2 or not resident
        if add:
            items = [int(v) for v in rng.integers(0, 1 << 40, size=16)]
        else:
            picks = rng.choice(len(resident), size=min(24, len(resident)),
                               replace=False)
            items = [resident[i] for i in picks]
            items.append(int(rng.integers(0, 1 << 40)))  # likely absent
        effect = batched.apply_batch(add, items, seq)
        touched: set[int] = set()
        expected = []
        for item in items:
            if add:
                cursor, size = reference._kick_cursor, reference._size
                ok = reference.insert(item, touched)
                kicks = reference._kick_cursor - cursor
                if ok and kicks:
                    chains_ok += 1
                elif not ok and kicks == config.max_kicks + 1:
                    chains_failed += 1
                elif not ok:
                    assert kicks == 0 and size >= reference._kick_ceiling
                    ceiling_drops += 1
            else:
                ok = reference.delete(item, touched)
            expected.append(ok)
        assert effect.results == tuple(expected)
        assert effect.rows == tuple(
            (row, tuple(reference._buckets[row])) for row in touched)
        assert batched._buckets == reference._buckets
        assert batched._size == reference._size == effect.size
        assert batched._kick_cursor == reference._kick_cursor \
            == effect.kick_cursor
        assert batched._next_seq == seq + 1
        for item, ok in zip(items, expected):
            if not ok:
                continue
            if add:
                resident.append(item)
            elif item in resident:  # an absent key may alias a resident one
                resident.remove(item)
    assert chains_ok and chains_failed and ceiling_drops
