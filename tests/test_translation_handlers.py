"""Miss-handler tests in isolation: ATS, prefetch, Least, F-Barre paths."""

from repro.common import (
    CuckooConfig,
    EventQueue,
    IommuConfig,
    LinkConfig,
    MappingKind,
    MemoryMap,
    TlbConfig,
)
from repro.core import AtsHandler, CoalescingAgent, FBarreHandler, LeastHandler
from repro.core.translation import MAX_PREFETCHES
from repro.iommu import Iommu, PecLogic
from repro.mapping import (
    AllocationRequest,
    FrameAllocatorGroup,
    GpuDriver,
    PecBuffer,
    make_policy,
)
from repro.memsim import AddressSpaceRegistry, Link, Mesh, Tlb, TlbEntry
from tests.test_fbarre import connect_directly


class Rig:
    """A 2-chiplet translation rig with a real IOMMU behind a PCIe link."""

    def __init__(self, barre=False, prefetch=False):
        self.queue = EventQueue()
        self.mm = MemoryMap(num_chiplets=2, frames_per_chiplet=4096)
        allocators = FrameAllocatorGroup(2, 4096)
        self.spaces = AddressSpaceRegistry()
        self.driver = GpuDriver(self.mm, allocators, self.spaces,
                                make_policy(MappingKind.LASP, 2),
                                barre_enabled=barre)
        self.pcie_up = Link(self.queue, LinkConfig(latency=150))
        self.pcie_down = Link(self.queue, LinkConfig(latency=150))
        self.iommu = Iommu(self.queue, IommuConfig(num_ptws=2,
                                                   walk_latency=100),
                           self.spaces, self.driver.pec_buffer,
                           self.mm.chiplet_bases, self._respond,
                           barre_enabled=barre)
        self.handlers = {}
        for cid in range(2):
            self.handlers[cid] = AtsHandler(
                self.queue, cid, self.pcie_up, self.iommu.receive,
                prefetch_next=prefetch,
                is_mapped=lambda pasid, vpn: self.spaces.get(pasid).is_mapped(vpn))

    def _respond(self, resp):
        self.pcie_down.send(
            resp, lambda r: self.handlers[r.dst_chiplet].deliver_response(r))

    def alloc(self, pages, row_pages=1):
        return self.driver.malloc(AllocationRequest(
            data_id=1, pages=pages, row_pages=row_pages))


def test_ats_round_trip_latency():
    rig = Rig()
    rec = rig.alloc(4)
    got = []
    rig.handlers[0].resolve(0, rec.start_vpn, got.append)
    rig.queue.run()
    # 150 up + 100 walk + 150 down.
    assert rig.queue.now == 400
    assert got[0].global_pfn == rig.spaces.get(0).walk(rec.start_vpn).global_pfn


def test_ats_merges_same_key_requests():
    rig = Rig()
    rec = rig.alloc(4)
    got = []
    rig.handlers[0].resolve(0, rec.start_vpn, got.append)
    rig.handlers[0].resolve(0, rec.start_vpn, got.append)
    rig.queue.run()
    assert len(got) == 2
    assert rig.handlers[0].stats.count("ats_sent") == 1


def test_prefetch_fills_l2_without_waiters():
    rig = Rig(prefetch=True)
    rec = rig.alloc(8, row_pages=4)
    fills = []
    rig.handlers[0].on_prefetch_fill = fills.append
    got = []
    rig.handlers[0].resolve(0, rec.start_vpn, got.append)
    rig.queue.run()
    assert len(got) == 1
    assert any(e.vpn == rec.start_vpn + 1 for e in fills)
    assert rig.handlers[0].stats.count("prefetches") == 1


def test_prefetch_throttle_limits_outstanding():
    rig = Rig(prefetch=True)
    rec = rig.alloc(32, row_pages=16)
    for i in range(8):
        rig.handlers[0].resolve(0, rec.start_vpn + i, lambda e: None)
    # Only MAX_PREFETCHES slots may be used before any response returns.
    assert rig.handlers[0].stats.count("prefetches") <= MAX_PREFETCHES
    assert rig.handlers[0].stats.count("prefetch_throttled") > 0
    rig.queue.run()


def test_prefetch_skips_unmapped_vpns():
    rig = Rig(prefetch=True)
    rec = rig.alloc(2)
    rig.handlers[0].resolve(0, rec.end_vpn, lambda e: None)  # next is unmapped
    rig.queue.run()
    assert rig.handlers[0].stats.count("prefetches") == 0


def make_least_pair():
    queue = EventQueue()
    rig = Rig()
    mesh = Mesh(rig.queue, LinkConfig(latency=32), 2)
    l2s = {cid: Tlb(TlbConfig(entries=64, ways=4, lookup_latency=10,
                              mshrs=8)) for cid in range(2)}
    handlers = {}
    for cid in range(2):
        handler = LeastHandler(rig.queue, cid, mesh, rig.handlers[cid],
                               l2_probe_latency=10)
        handler.peers = {p: l2s[p].probe for p in range(2) if p != cid}
        handlers[cid] = handler
    return rig, l2s, handlers


def test_least_serves_from_peer_l2():
    rig, l2s, handlers = make_least_pair()
    rec = rig.alloc(4)
    fields = rig.spaces.get(0).walk(rec.start_vpn)
    l2s[1].insert(TlbEntry(pasid=0, vpn=rec.start_vpn,
                           global_pfn=fields.global_pfn))
    got = []
    handlers[0].resolve(0, rec.start_vpn, got.append)
    rig.queue.run()
    assert got[0].global_pfn == fields.global_pfn
    assert handlers[0].stats.count("remote_hits") == 1
    # Peer sharing is cheaper than the PCIe round trip.
    assert rig.queue.now < 400


def test_least_falls_back_to_ats():
    rig, _l2s, handlers = make_least_pair()
    rec = rig.alloc(4)
    got = []
    handlers[0].resolve(0, rec.start_vpn, got.append)
    rig.queue.run()
    assert len(got) == 1
    assert handlers[0].stats.count("ats_fallbacks") == 1


def make_fbarre_pair(rig):
    mesh = Mesh(rig.queue, LinkConfig(latency=32), 2)
    handlers = {}
    agents = {}
    l2s = {}
    for cid in range(2):
        l2 = Tlb(TlbConfig(entries=64, ways=4, lookup_latency=10, mshrs=8))
        pec = PecLogic(PecBuffer(5), rig.mm.chiplet_bases)
        agent = CoalescingAgent(cid, 2, CuckooConfig(rows=64), pec, l2)
        agents[cid] = agent
        l2s[cid] = l2
        handlers[cid] = FBarreHandler(rig.queue, cid, agent, mesh,
                                      rig.handlers[cid], l2_probe_latency=10)
    for cid in range(2):
        handlers[cid].peers = {p: agents[p].handle_peer_request
                               for p in range(2) if p != cid}
    connect_directly(agents)
    return handlers, agents, l2s


def test_fbarre_remote_path_calculates_at_peer():
    rig = Rig(barre=True)
    rec = rig.alloc(4)
    handlers, agents, l2s = make_fbarre_pair(rig)
    table = rig.spaces.get(0)
    fields = table.walk(rec.start_vpn)
    desc = rig.driver.pec_buffer.lookup(0, rec.start_vpn)
    l2s[0].insert(TlbEntry(pasid=0, vpn=rec.start_vpn,
                           global_pfn=fields.global_pfn, coal=fields,
                           pec=desc))
    got = []
    # Chiplet 1 misses on the group sibling; RCF predicts chiplet 0.
    handlers[1].resolve(0, rec.start_vpn + 1, got.append)
    rig.queue.run()
    assert got[0].global_pfn == table.walk(rec.start_vpn + 1).global_pfn
    assert handlers[1].stats.count("remote_hits") == 1
    assert rig.queue.now < 400  # cheaper than ATS


def test_fbarre_local_path_avoids_mesh_and_pcie():
    rig = Rig(barre=True)
    rec = rig.alloc(8, row_pages=2)
    handlers, agents, l2s = make_fbarre_pair(rig)
    table = rig.spaces.get(0)
    member = rec.start_vpn  # chiplet 0, group {0, +2, ...}
    fields = table.walk(member)
    desc = rig.driver.pec_buffer.lookup(0, member)
    l2s[0].insert(TlbEntry(pasid=0, vpn=member, global_pfn=fields.global_pfn,
                           coal=fields, pec=desc))
    got = []
    handlers[0].resolve(0, member + 2, got.append)
    rig.queue.run()
    assert got[0].global_pfn == table.walk(member + 2).global_pfn
    assert handlers[0].stats.count("local_hits") == 1
    assert rig.queue.now <= 20  # filter check + L2 probe only


def test_fbarre_falls_back_to_ats_when_filters_miss():
    rig = Rig(barre=True)
    rec = rig.alloc(4)
    handlers, _agents, _l2s = make_fbarre_pair(rig)
    got = []
    handlers[0].resolve(0, rec.start_vpn, got.append)
    rig.queue.run()
    assert len(got) == 1
    assert handlers[0].stats.count("ats_fallbacks") == 1
