"""IOMMU unit tests: queueing, walkers, PEC coalescing, scheduling."""

import pytest

from repro.common import EventQueue, IommuConfig, MemoryMap
from repro.iommu import AtsRequest, Iommu, select_next
from repro.mapping import (
    AllocationRequest,
    FrameAllocatorGroup,
    GpuDriver,
    make_policy,
)
from repro.common import MappingKind
from repro.memsim import AddressSpaceRegistry, PageTable, PteFields


def simple_setup(num_ptws=2, walk_latency=100, barre=False, num_chiplets=4,
                 scheduling=False, tlb_entries=0, pw_queue_entries=48):
    queue = EventQueue()
    mm = MemoryMap(num_chiplets=num_chiplets, frames_per_chiplet=4096)
    allocators = FrameAllocatorGroup(num_chiplets, 4096)
    spaces = AddressSpaceRegistry()
    driver = GpuDriver(mm, allocators, spaces,
                       make_policy(MappingKind.LASP, num_chiplets),
                       barre_enabled=barre)
    responses = []
    iommu = Iommu(queue, IommuConfig(num_ptws=num_ptws,
                                     walk_latency=walk_latency,
                                     tlb_entries=tlb_entries,
                                     pw_queue_entries=pw_queue_entries,
                                     coalescing_aware_scheduling=scheduling),
                  spaces, driver.pec_buffer, mm.chiplet_bases,
                  responses.append, barre_enabled=barre)
    return queue, driver, iommu, responses


def req(vpn, chiplet=0, pasid=0):
    return AtsRequest(pasid=pasid, vpn=vpn, src_chiplet=chiplet, issue_time=0)


def test_single_walk_latency():
    queue, driver, iommu, responses = simple_setup()
    rec = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=1))
    iommu.receive(req(rec.start_vpn))
    queue.run()
    assert len(responses) == 1
    assert queue.now == 100
    assert responses[0].source == "walk"
    table = driver.spaces.get(0)
    assert responses[0].global_pfn == table.walk(rec.start_vpn).global_pfn


def test_queueing_behind_busy_walkers():
    queue, driver, iommu, responses = simple_setup(num_ptws=1, walk_latency=100)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=8, row_pages=2))
    for i in range(3):
        iommu.receive(req(rec.start_vpn + i))
    queue.run()
    assert len(responses) == 3
    assert queue.now == 300  # serialized on the single walker


def test_more_ptws_increase_throughput():
    def time_for(ptws):
        queue, driver, iommu, responses = simple_setup(num_ptws=ptws)
        rec = driver.malloc(AllocationRequest(data_id=1, pages=8, row_pages=2))
        for i in range(8):
            iommu.receive(req(rec.start_vpn + i))
        queue.run()
        return queue.now

    assert time_for(8) < time_for(2) < time_for(1)


def test_duplicate_requests_merge_into_one_walk():
    queue, driver, iommu, responses = simple_setup(num_ptws=4)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=1))
    iommu.receive(req(rec.start_vpn, chiplet=0))
    iommu.receive(req(rec.start_vpn, chiplet=1))
    queue.run()
    assert len(responses) == 2
    assert iommu.stats.count("walks") == 1
    assert iommu.stats.count("walk_merges") == 1


def test_barre_coalesces_pending_group_members():
    """One walk answers all four pending group members (Fig 7b)."""
    queue, driver, iommu, responses = simple_setup(
        num_ptws=1, walk_latency=100, barre=True)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=1))
    assert rec.coalesced_pages == 4
    for i in range(4):
        iommu.receive(req(rec.start_vpn + i, chiplet=i))
    queue.run()
    assert len(responses) == 4
    assert iommu.stats.count("walks") == 1
    assert iommu.stats.count("pec_coalesced") == 3
    assert queue.now == 100  # all served by the first walk
    table = driver.spaces.get(0)
    for resp in responses:
        assert resp.global_pfn == table.walk(resp.vpn).global_pfn


def test_barre_does_not_coalesce_across_groups():
    queue, driver, iommu, responses = simple_setup(
        num_ptws=1, walk_latency=100, barre=True)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=8, row_pages=2))
    # VPNs start+0 and start+1 are different groups (intra 0 and 1).
    iommu.receive(req(rec.start_vpn))
    iommu.receive(req(rec.start_vpn + 1))
    queue.run()
    assert iommu.stats.count("walks") == 2


def test_coalesced_responses_carry_pec_descriptor():
    queue, driver, iommu, responses = simple_setup(barre=True)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=1))
    iommu.receive(req(rec.start_vpn))
    queue.run()
    resp = responses[0]
    assert resp.coal is not None and resp.coal.is_coalesced
    assert resp.pec is not None and resp.pec.data_id == 1


def test_without_barre_no_coalescing():
    queue, driver, iommu, responses = simple_setup(
        num_ptws=1, barre=False, walk_latency=100)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=1))
    for i in range(4):
        iommu.receive(req(rec.start_vpn + i))
    queue.run()
    assert iommu.stats.count("walks") == 4
    assert queue.now == 400


def test_iommu_tlb_hits_skip_walks():
    queue, driver, iommu, responses = simple_setup(
        walk_latency=100, tlb_entries=64)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=1))
    iommu.receive(req(rec.start_vpn))
    queue.run()
    first_finish = queue.now
    iommu.receive(req(rec.start_vpn, chiplet=1))
    queue.run()
    assert iommu.stats.count("iommu_tlb_hits") == 1
    assert iommu.stats.count("walks") == 1
    assert queue.now - first_finish == 200  # IOMMU TLB latency only


def test_vpn_gap_histogram_records_arrivals():
    queue, driver, iommu, responses = simple_setup()
    rec = driver.malloc(AllocationRequest(data_id=1, pages=8, row_pages=2))
    for vpn in (rec.start_vpn, rec.start_vpn + 1, rec.start_vpn + 5):
        iommu.receive(req(vpn))
    queue.run()
    assert iommu.vpn_gaps.total() == 2
    assert iommu.vpn_gaps.buckets[1] == 1
    assert iommu.vpn_gaps.buckets[4] == 1


class TestPecScan:
    """The walk-completion scan of the PW-queue (Section IV-F)."""

    def test_reentrant_requests_survive_the_scan(self):
        """A response that synchronously re-enters ``receive`` mid-scan (as
        the GMMU handler does) must keep the new requests, in order."""
        queue, driver, iommu, responses = simple_setup(
            num_ptws=1, walk_latency=100, barre=True)
        a = driver.malloc(AllocationRequest(data_id=1, pages=8, row_pages=2))
        b = driver.malloc(AllocationRequest(data_id=2, pages=8, row_pages=2))
        s, t = a.start_vpn, b.start_vpn
        injected = []

        def respond(response):
            responses.append(response)
            if response.source == "pec" and not injected:
                # The walked VPN itself (answered by calculation) and a
                # request of another data object.
                injected.extend([req(s), req(t + 1)])
                for request in injected:
                    iommu.receive(request)

        iommu.respond = respond
        # Groups of data 1 (gran 2): {s, s+2, s+4, s+6} and {s+1, ...}.
        for vpn in (s, s + 2, s + 1, s + 4, t, s + 6):
            iommu.receive(req(vpn))
        queue.run(until=100)
        # The re-entrant dispatch took s+1, the next unscanned request; the
        # scan then answered s+4, s+6 and the re-entrant s, and kept the
        # other data's requests in arrival order.
        assert [r.vpn for r in iommu._pending] == [t, t + 1]
        assert list(iommu._walking) == [(0, s + 1)]
        assert [r.vpn for r in responses] == [s, s + 2, s + 4, s + 6, s]
        assert iommu.pec.stats.count("rejections") == 0
        queue.run()
        table = driver.spaces.get(0)
        assert sorted(r.vpn for r in responses) == \
            sorted([s, s, s + 1, s + 2, s + 4, s + 6, t, t + 1])
        for resp in responses:
            assert resp.global_pfn == table.walk(resp.vpn).global_pfn
        assert iommu.stats.count("walks") == 4  # s, s+1, t, t+1
        assert iommu.stats.count("pec_coalesced") == 4
        assert iommu.pec.stats.count("calculations") == 4
        assert iommu.pec.stats.count("rejections") == 1  # t+1 under t

    def test_member_beyond_the_window_is_walked_not_rejected(self):
        queue, driver, iommu, responses = simple_setup(
            num_ptws=1, walk_latency=100, barre=True, pw_queue_entries=2)
        a = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=1))
        b = driver.malloc(AllocationRequest(data_id=2, pages=4, row_pages=1))
        s, t = a.start_vpn, b.start_vpn
        # s+3 is in s's group but sits in the third queue slot, beyond the
        # two entries the PEC logic sees.
        for vpn in (s, t, t + 1, s + 3):
            iommu.receive(req(vpn))
        queue.run(until=100)
        assert [r.vpn for r in iommu._pending] == [t + 1, s + 3]
        assert iommu.pec.stats.count("calculations") == 0
        assert iommu.pec.stats.count("rejections") == 0
        queue.run()
        sources = {r.vpn: r.source for r in responses}
        assert sources == {s: "walk", t: "walk", t + 1: "pec", s + 3: "walk"}
        assert iommu.stats.count("walks") == 3
        assert iommu.pec.stats.count("calculations") == 1
        assert iommu.pec.stats.count("rejections") == 0


class TestScheduler:
    def test_deprioritizes_coalescible_front(self):
        queue, driver, iommu, _ = simple_setup(barre=True)
        rec = driver.malloc(AllocationRequest(data_id=1, pages=8, row_pages=2))
        from collections import deque
        # start+2 is in start+0's group (gran 2, members 0,2,4,6).
        pending = deque([req(rec.start_vpn + 2), req(rec.start_vpn + 1)])
        walking = [(0, rec.start_vpn)]
        chosen = select_next(pending, walking, driver.pec_buffer)
        assert chosen.vpn == rec.start_vpn + 1  # non-coalescible first

    def test_all_coalescible_falls_back_to_front(self):
        queue, driver, iommu, _ = simple_setup(barre=True)
        rec = driver.malloc(AllocationRequest(data_id=1, pages=8, row_pages=2))
        from collections import deque
        pending = deque([req(rec.start_vpn + 2), req(rec.start_vpn + 4)])
        walking = [(0, rec.start_vpn)]
        chosen = select_next(pending, walking, driver.pec_buffer)
        assert chosen.vpn == rec.start_vpn + 2  # no starvation

    def test_empty_queue_raises(self):
        from collections import deque
        from repro.mapping import PecBuffer
        with pytest.raises(IndexError):
            select_next(deque(), [], PecBuffer())

    def test_scheduling_increases_coalescing(self):
        def coalesced_with(scheduling):
            queue, driver, iommu, responses = simple_setup(
                num_ptws=2, walk_latency=100, barre=True,
                scheduling=scheduling)
            rec = driver.malloc(AllocationRequest(data_id=1, pages=8,
                                                  row_pages=1))
            # Two group members + fillers: without coalescing-aware
            # scheduling the second member grabs the second PTW and walks.
            iommu.receive(req(rec.start_vpn))        # group A member 0
            iommu.receive(req(rec.start_vpn + 4))    # group A member 0 (2nd round)
            iommu.receive(req(rec.start_vpn + 1))
            iommu.receive(req(rec.start_vpn + 2))
            queue.run()
            return iommu.stats.count("pec_coalesced")

        assert coalesced_with(True) >= coalesced_with(False)
