"""Edge-path tests: overflow accounting, races, fallback behaviours."""

from repro.common import (
    CuckooConfig,
    EventQueue,
    IommuConfig,
    LinkConfig,
    MappingKind,
    MemoryMap,
    SimulationError,
    TlbConfig,
)
from repro.core import CoalescingAgent, FBarreHandler
from repro.iommu import AtsRequest, Iommu, PecLogic
from repro.mapping import (
    AllocationRequest,
    FrameAllocatorGroup,
    GpuDriver,
    PecBuffer,
    make_policy,
)
from repro.memsim import AddressSpaceRegistry, Mesh, Tlb, TlbEntry
from tests.test_fbarre import connect_directly

import pytest


def make_iommu(num_ptws=1, walk=100, pw_entries=4):
    queue = EventQueue()
    mm = MemoryMap(num_chiplets=2, frames_per_chiplet=4096)
    allocators = FrameAllocatorGroup(2, 4096)
    spaces = AddressSpaceRegistry()
    driver = GpuDriver(mm, allocators, spaces,
                       make_policy(MappingKind.LASP, 2), barre_enabled=False)
    responses = []
    iommu = Iommu(queue, IommuConfig(num_ptws=num_ptws, walk_latency=walk,
                                     pw_queue_entries=pw_entries),
                  spaces, driver.pec_buffer, mm.chiplet_bases,
                  responses.append)
    return queue, driver, iommu, responses


def test_pw_queue_overflow_is_counted():
    queue, driver, iommu, responses = make_iommu(num_ptws=1, pw_entries=4)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=16, row_pages=8))
    for i in range(10):
        iommu.receive(AtsRequest(pasid=0, vpn=rec.start_vpn + i,
                                 src_chiplet=0))
    assert iommu.stats.count("pw_queue_overflows") > 0
    queue.run()
    assert len(responses) == 10  # overflow delays, never drops, demands


def test_unmapped_walk_without_fault_handler_is_an_error():
    queue, driver, iommu, _responses = make_iommu()
    iommu.receive(AtsRequest(pasid=0, vpn=0x9999, src_chiplet=0))
    driver.spaces.create(0) if 0 not in driver.spaces else None
    with pytest.raises(Exception):
        queue.run()


def test_processing_time_includes_queueing():
    queue, driver, iommu, _responses = make_iommu(num_ptws=1, walk=100)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=2))
    iommu.receive(AtsRequest(pasid=0, vpn=rec.start_vpn, src_chiplet=0))
    iommu.receive(AtsRequest(pasid=0, vpn=rec.start_vpn + 1, src_chiplet=0))
    queue.run()
    # Second request waited 100 cycles for the walker: mean = 150.
    assert iommu.stats.mean("processing_time") == 150


class TestFBarreRemoteMissFallback:
    def test_peer_eviction_between_predict_and_serve(self):
        """RCF predicts a peer, the peer evicted the entry: fall to ATS."""
        queue = EventQueue()
        mm = MemoryMap(num_chiplets=2, frames_per_chiplet=4096)
        allocators = FrameAllocatorGroup(2, 4096)
        spaces = AddressSpaceRegistry()
        driver = GpuDriver(mm, allocators, spaces,
                           make_policy(MappingKind.LASP, 2),
                           barre_enabled=True)
        rec = driver.malloc(AllocationRequest(data_id=1, pages=2,
                                              row_pages=1))
        table = spaces.get(0)
        fields = table.walk(rec.start_vpn)
        desc = driver.pec_buffer.lookup(0, rec.start_vpn)

        mesh = Mesh(queue, LinkConfig(latency=32), 2)
        agents, handlers, l2s = {}, {}, {}

        class FakeAts:
            def __init__(self):
                self.requests = []

            def resolve(self, pasid, vpn, done):
                self.requests.append(vpn)
                f = table.walk(vpn)
                queue.schedule(800, lambda: done(TlbEntry(
                    pasid=pasid, vpn=vpn, global_pfn=f.global_pfn)))

        ats = {cid: FakeAts() for cid in range(2)}
        for cid in range(2):
            l2 = Tlb(TlbConfig(entries=64, ways=4, lookup_latency=10,
                               mshrs=8))
            pec = PecLogic(PecBuffer(5), mm.chiplet_bases)
            agents[cid] = CoalescingAgent(cid, 2, CuckooConfig(rows=64),
                                          pec, l2)
            l2s[cid] = l2
            handlers[cid] = FBarreHandler(queue, cid, agents[cid], mesh,
                                          ats[cid], 10)
        for cid in range(2):
            handlers[cid].peers = {p: agents[p].handle_peer_request
                                   for p in range(2) if p != cid}
        connect_directly(agents)

        # GPU0 holds the entry; GPU1's RCF learns of it...
        l2s[0].insert(TlbEntry(pasid=0, vpn=rec.start_vpn,
                               global_pfn=fields.global_pfn,
                               coal=fields, pec=desc))
        # ...then GPU0 silently drops it WITHOUT filter updates (simulating
        # a lost best-effort delete): stale RCF state at GPU1.
        agents[0].l2.on_evict = None
        l2s[0].invalidate(0, rec.start_vpn)
        got = []
        handlers[1].resolve(0, rec.start_vpn + 1, got.append)
        queue.run()
        assert len(got) == 1
        assert got[0].global_pfn == table.walk(rec.start_vpn + 1).global_pfn
        assert handlers[1].stats.count("remote_misses") == 1
        assert ats[1].requests == [rec.start_vpn + 1]


def test_memory_fabric_hot_chiplet_queues():
    """Concentrated accesses on one chiplet serialize at its DRAM."""
    from repro.gpu.memory import MemoryFabric
    queue = EventQueue()
    mm = MemoryMap(num_chiplets=2, frames_per_chiplet=1000)
    mesh = Mesh(queue, LinkConfig(latency=0, cycles_per_packet=0), 2)
    fabric = MemoryFabric(queue, mm, mesh, dram_latency=100,
                          dram_serialization=10)
    times = []
    for _ in range(4):
        fabric.access(0, 0, 0, 5, lambda: times.append(queue.now))
    queue.run()
    assert times == [100, 110, 120, 130]
    assert fabric.stats.mean("dram_queueing") == (0 + 10 + 20 + 30) / 4
