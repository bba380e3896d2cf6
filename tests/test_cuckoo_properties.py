"""Property tests for the cuckoo filter's membership contract.

The F-Barre correctness argument leans on one asymmetry: LCF/RCF lookups
may false-*positive* (cost: a wasted probe) but must never false-
*negative* for a resident key (cost: a missed coalescing opportunity the
validation subsystem treats as a structural bug).  These tests drive the
filter through randomized insert/delete/lookup interleavings against an
exact shadow multiset and assert that contract, plus a bounded empirical
false-positive rate.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import CuckooConfig
from repro.filters import CuckooFilter

KEY = st.integers(min_value=0, max_value=(1 << 40) - 1)

#: (op, key) programs: op 0 = insert, 1 = delete, 2 = lookup.  Keys are
#: drawn from a small pool so deletes and lookups actually collide with
#: earlier inserts.
OPS = st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                         st.integers(min_value=0, max_value=63)),
               min_size=1, max_size=300)


def roomy_filter() -> CuckooFilter:
    return CuckooFilter(CuckooConfig(rows=128, ways=4, fingerprint_bits=12))


@settings(max_examples=60, deadline=None)
@given(ops=OPS, salt=KEY)
def test_property_no_false_negative_for_resident_keys(ops, salt):
    """Whatever the op interleaving, accepted-and-not-deleted keys hit."""
    f = roomy_filter()
    resident: Counter[int] = Counter()
    for op, small_key in ops:
        key = small_key ^ salt
        if op == 0:
            if f.insert(key):
                resident[key] += 1
        elif op == 1 and resident[key] > 0:
            assert f.delete(key)
            resident[key] -= 1
        else:
            if resident[key] > 0:
                assert f.contains(key)
    for key, count in resident.items():
        if count > 0:
            assert f.contains(key)


@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_property_size_tracks_successful_operations(ops):
    f = roomy_filter()
    expected = 0
    for op, key in ops:
        if op == 0:
            expected += f.insert(key)
        elif op == 1:
            expected -= f.delete(key)
        assert len(f) == expected
    assert 0 <= len(f) <= f.config.capacity


@settings(max_examples=30, deadline=None)
@given(keys=st.lists(KEY, min_size=1, max_size=150, unique=True))
def test_property_deleting_everything_empties_the_filter(keys):
    f = roomy_filter()
    accepted = [k for k in keys if f.insert(k)]
    for key in accepted:
        assert f.delete(key)
    assert len(f) == 0
    assert not any(f.contains(k) for k in accepted)


def test_failed_insert_leaves_filter_unchanged():
    """Kick-chain exhaustion must unwind: no resident victim is dropped.

    A tiny table with a long kick budget forces real kick chains; every
    failed insert must leave bucket contents exactly as they were (this
    is what upgrades no-false-negative from probable to guaranteed).
    """
    f = CuckooFilter(CuckooConfig(rows=4, ways=2, fingerprint_bits=6,
                                  max_kicks=16))
    # Disable the saturation bail-out so every failure exercises a real
    # exhausted kick chain (the path that must unwind).
    f._kick_ceiling = f.config.capacity + 1
    rng = np.random.default_rng(3)
    resident = []
    saw_failure = False
    for raw in rng.integers(0, 1 << 40, size=200):
        key = int(raw)
        before = [list(b) for b in f._buckets]
        if f.insert(key):
            resident.append(key)
        else:
            saw_failure = True
            assert [list(b) for b in f._buckets] == before
        for r in resident:
            assert f.contains(r)
    assert saw_failure  # the test must actually exercise the undo path


def test_empirical_false_positive_rate_is_bounded():
    """FP rate stays within a small multiple of 2b/2^f at ~70% load."""
    config = CuckooConfig(rows=256, ways=4, fingerprint_bits=10)
    f = CuckooFilter(config)
    rng = np.random.default_rng(17)
    members = set()
    for raw in rng.integers(0, 1 << 39, size=int(config.capacity * 0.7)):
        if f.insert(int(raw)):
            members.add(int(raw))
    probes = [int(v) for v in rng.integers(1 << 39, 1 << 40, size=30000)]
    fp = sum(f.contains(p) for p in probes) / len(probes)
    assert fp <= 3 * f.theoretical_false_positive_rate() + 0.005


@pytest.mark.parametrize("ways", [1, 2, 4])
def test_saturation_is_graceful_across_geometries(ways):
    f = CuckooFilter(CuckooConfig(rows=8, ways=ways, fingerprint_bits=8,
                                  max_kicks=32))
    accepted = []
    for key in range(10 * f.config.capacity):
        before = len(f)
        if f.insert(key):
            accepted.append(key)
            assert len(f) == before + 1
        else:
            assert len(f) == before
    assert len(accepted) == len(f) <= f.config.capacity
    for key in accepted:
        assert f.contains(key)


# -- replicated streams ------------------------------------------------------

#: Stream batches: (add?, keys).  A tight geometry and a small key pool
#: make kicks, dropped inserts, aliasing and missed deletes common.
BATCHES = st.lists(st.tuples(st.booleans(),
                             st.lists(st.integers(min_value=0, max_value=47),
                                      min_size=1, max_size=6)),
                   min_size=2, max_size=40)


def tight_filter() -> CuckooFilter:
    return CuckooFilter(CuckooConfig(rows=8, ways=2, fingerprint_bits=6,
                                     max_kicks=8))


def filter_state(f: CuckooFilter):
    return [list(b) for b in f._buckets], f._size, f._kick_cursor


@settings(max_examples=80, deadline=None)
@given(batches=BATCHES, cut=st.integers(min_value=0, max_value=39),
       disorder=st.sampled_from(["skip", "swap"]))
def test_property_replayed_replicas_match_item_by_item_filters(
        batches, cut, disorder):
    """Three replicas share recorded effects; each matches a plain filter.

    Replica 0 gets the stream in order.  Replica 1 is cleared after batch
    ``cut``.  Replica 2 misses batch ``cut`` (``skip``) or gets ``cut`` and
    ``cut + 1`` reordered (``swap``).  Each plain reference filter applies
    exactly what its replica received, item by item.
    """
    cut = min(cut, len(batches) - 2)
    stream = list(enumerate(batches))
    perturbed = list(stream)
    if disorder == "skip":
        del perturbed[cut]
    else:
        perturbed[cut], perturbed[cut + 1] = perturbed[cut + 1], perturbed[cut]
    deliveries = [stream, stream, perturbed]
    replicas = [tight_filter() for _ in range(3)]
    references = [tight_filter() for _ in range(3)]
    shared: dict[int, object] = {}
    replays = 0
    for step in range(len(stream)):
        for r in (step % 3, (step + 1) % 3, (step + 2) % 3):
            if step >= len(deliveries[r]):
                continue
            seq, (add, keys) = deliveries[r][step]
            given_effect = shared.get(seq)
            effect = replicas[r].apply_batch(add, keys, seq, given_effect)
            if effect is given_effect:
                replays += 1
            elif effect.seq is not None:
                shared[seq] = effect
            op = references[r].insert if add else references[r].delete
            assert list(effect.results) == [op(key) for key in keys]
            if (r == 1 and step > cut) or (r == 2 and step >= cut):
                # Off the lineage for good: computed, never shared.
                assert effect is not given_effect and effect.seq is None
                assert replicas[r]._next_seq is None
            if r == 1 and step == cut:
                replicas[1].clear()
                references[1].clear()
            assert filter_state(replicas[r]) == filter_state(references[r])
    assert replays > 0
    assert replicas[0]._next_seq == len(stream)
