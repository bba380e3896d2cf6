"""Frame allocator tests, including cross-chiplet common-free searches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import AllocationError
from repro.mapping import FrameAllocator, FrameAllocatorGroup


class TestFrameAllocator:
    def test_allocate_specific_and_release(self):
        a = FrameAllocator(16)
        assert a.allocate(5) == 5
        assert not a.is_free(5)
        a.release(5)
        assert a.is_free(5)

    def test_allocate_any_prefers_lowest(self):
        a = FrameAllocator(16)
        assert a.allocate_any() == 0
        assert a.allocate_any() == 1

    def test_double_allocate_rejected(self):
        a = FrameAllocator(4)
        a.allocate(2)
        with pytest.raises(AllocationError):
            a.allocate(2)

    def test_double_free_rejected(self):
        a = FrameAllocator(4)
        a.allocate(2)
        a.release(2)
        with pytest.raises(AllocationError):
            a.release(2)

    def test_exhaustion(self):
        a = FrameAllocator(2)
        a.allocate_any()
        a.allocate_any()
        with pytest.raises(AllocationError):
            a.allocate_any()

    def test_fragment_claims_fraction(self):
        a = FrameAllocator(100)
        claimed = a.fragment(0.3, np.random.default_rng(1))
        assert len(claimed) == 30
        assert a.free_count == 70


class TestFrameAllocatorGroup:
    def test_find_common_free_lowest(self):
        g = FrameAllocatorGroup(num_chiplets=3, frames_per_chiplet=8)
        g[0].allocate(0)
        g[1].allocate(1)
        g[2].allocate(2)
        # 0 busy on chiplet 0, 1 on 1, 2 on 2 -> lowest common is 3.
        assert g.find_common_free((0, 1, 2)) == 3

    def test_find_common_free_respects_subset(self):
        g = FrameAllocatorGroup(num_chiplets=3, frames_per_chiplet=8)
        g[2].allocate(0)
        assert g.find_common_free((0, 1)) == 0  # chiplet 2 not a sharer

    def test_find_common_free_none_when_disjoint(self):
        g = FrameAllocatorGroup(num_chiplets=2, frames_per_chiplet=2)
        g[0].allocate(0)
        g[1].allocate(1)
        g[0].allocate(1)
        assert g.find_common_free((0, 1)) is None

    def test_find_common_free_run(self):
        g = FrameAllocatorGroup(num_chiplets=2, frames_per_chiplet=10)
        g[0].allocate(1)  # breaks run 0..2 on chiplet 0
        assert g.find_common_free_run((0, 1), run_length=3) == 2

    def test_run_of_one_equals_single_search(self):
        g = FrameAllocatorGroup(num_chiplets=2, frames_per_chiplet=4)
        assert g.find_common_free_run((0, 1), 1) == g.find_common_free((0, 1))

    def test_run_none_when_fragmented(self):
        g = FrameAllocatorGroup(num_chiplets=2, frames_per_chiplet=6)
        for pfn in (1, 4):
            g[0].allocate(pfn)  # free: 0,2,3,5 -> longest run is 2
        assert g.find_common_free_run((0, 1), 3) is None
        assert g.find_common_free_run((0, 1), 2) == 2

    def test_allocate_common_is_atomic(self):
        g = FrameAllocatorGroup(num_chiplets=3, frames_per_chiplet=4)
        g[2].allocate(1)
        with pytest.raises(AllocationError):
            g.allocate_common((0, 1, 2), 1)
        # Rollback: chiplets 0 and 1 must still have frame 1 free.
        assert g[0].is_free(1) and g[1].is_free(1)

    def test_start_from_skips_lower_frames(self):
        g = FrameAllocatorGroup(num_chiplets=2, frames_per_chiplet=8)
        assert g.find_common_free((0, 1), start_from=5) == 5

    def test_empty_sharers_rejected(self):
        g = FrameAllocatorGroup(num_chiplets=2, frames_per_chiplet=8)
        with pytest.raises(AllocationError):
            g.find_common_free(())


#: ``fragment(0.3, default_rng(1))`` on 100 frames with 0, 3, 4 and 50
#: already claimed, as drawn from the ascending free list.
PINNED_FRAGMENT_VICTIMS = [76, 57, 58, 51, 25, 71, 65, 82, 81, 38, 24, 13, 91,
                           37, 96, 35, 5, 27, 80, 10, 93, 46, 33, 53, 36, 79,
                           22, 72]


def test_fragment_victims_are_pinned():
    a = FrameAllocator(100)
    for pfn in (0, 3, 4, 50):
        a.allocate(pfn)
    assert a.fragment(0.3, np.random.default_rng(1)) == PINNED_FRAGMENT_VICTIMS
    assert a.free_count == 96 - 28
    assert not any(a.is_free(v) for v in PINNED_FRAGMENT_VICTIMS)


@pytest.mark.parametrize("pfn", [-1, -16, 16, 99])
def test_out_of_range_pfns_rejected(pfn):
    a = FrameAllocator(16)
    assert not a.is_free(pfn)
    with pytest.raises(AllocationError):
        a.allocate(pfn)
    with pytest.raises(AllocationError, match="out of range"):
        a.release(pfn)
    assert a.free_count == 16 and a.is_free(15)


def test_allocate_many_exhaustion_claims_nothing():
    a = FrameAllocator(4)
    a.allocate(1)
    with pytest.raises(AllocationError, match="exhausted"):
        a.allocate_many(4)
    assert a.free_count == 3
    assert a.allocate_many(3) == [0, 2, 3]


_claims = st.lists(st.integers(min_value=0, max_value=63), max_size=48)


@settings(max_examples=60, deadline=None)
@given(claimed=_claims, warm=st.integers(min_value=0, max_value=16),
       released=_claims, data=st.data())
def test_property_allocate_many_equals_repeated_allocate_any(
        claimed, warm, released, data):
    """Also after scattered claims, hint-moving allocations and releases."""
    many, single = FrameAllocator(64), FrameAllocator(64)
    for a in (many, single):
        for pfn in claimed:
            if a.is_free(pfn):
                a.allocate(pfn)
        for _ in range(min(warm, a.free_count)):
            a.allocate_any()
        for pfn in released:
            if not a.is_free(pfn):
                a.release(pfn)
    count = data.draw(st.integers(min_value=0, max_value=single.free_count))
    assert many.allocate_many(count) == [single.allocate_any()
                                         for _ in range(count)]
    assert many.free_map == single.free_map
    assert many.free_count == single.free_count
    if single.free_count:
        assert many.allocate_any() == single.allocate_any()


def _brute_common_run(free, sharers, run_length, start_from, frames):
    for pfn in range(max(start_from, 0), frames - run_length + 1):
        if all(pfn + k in free[c] for c in sharers for k in range(run_length)):
            return pfn
    return None


@settings(max_examples=80, deadline=None)
@given(data=st.data(), chiplets=st.integers(min_value=1, max_value=4),
       frames=st.integers(min_value=1, max_value=48))
def test_property_leapfrog_matches_brute_force(data, chiplets, frames):
    """Interleaved searches, claims, releases and hint resets: every
    ``find_common_free_run`` answer is the brute-force lowest run."""
    g = FrameAllocatorGroup(chiplets, frames)
    free = [set(range(frames)) for _ in range(chiplets)]
    pfns = st.integers(min_value=0, max_value=frames - 1)
    for chiplet in range(chiplets):
        for pfn in data.draw(st.lists(pfns, max_size=frames)):
            if pfn in free[chiplet]:
                g[chiplet].allocate(pfn)
                free[chiplet].discard(pfn)
    for _step in range(data.draw(st.integers(min_value=1, max_value=12))):
        sharers = tuple(data.draw(st.lists(
            st.integers(min_value=0, max_value=chiplets - 1),
            min_size=1, max_size=chiplets, unique=True)))
        run = data.draw(st.integers(min_value=1, max_value=5))
        start = data.draw(st.integers(min_value=0, max_value=frames + 2))
        found = g.find_common_free_run(sharers, run, start_from=start)
        assert found == _brute_common_run(free, sharers, run, start, frames)
        action = data.draw(st.sampled_from(["claim", "release", "none"]))
        if action == "claim" and found is not None:
            g.allocate_common(sharers, found)
            for c in sharers:
                free[c].discard(found)
        elif action == "release":
            chiplet = data.draw(st.integers(min_value=0, max_value=chiplets - 1))
            taken = sorted(set(range(frames)) - free[chiplet])
            if taken:
                pfn = data.draw(st.sampled_from(taken))
                g[chiplet].release(pfn)
                free[chiplet].add(pfn)
                g.reset_hints()
