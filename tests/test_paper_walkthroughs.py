"""Executable versions of the paper's worked walkthroughs.

* Fig 7a/7b — one walk covers a whole coalescing group at the IOMMU.
* Fig 12 — the 8-step F-Barre exchange between GPU0 and GPU1 for pages
  0xA1/0xA2 (filter update, RCF hit, peer-side PEC calculation).
"""

from repro.common import (
    CuckooConfig,
    EventQueue,
    IommuConfig,
    MappingKind,
    MemoryMap,
    TlbConfig,
)
from repro.core import CoalescingAgent
from repro.iommu import AtsRequest, Iommu, PecLogic
from repro.mapping import (
    AllocationRequest,
    FrameAllocatorGroup,
    GpuDriver,
    PecBuffer,
    make_policy,
)
from repro.memsim import AddressSpaceRegistry, Tlb, TlbEntry
from tests.test_fbarre import connect_directly


def build_system(num_chiplets=2):
    mm = MemoryMap(num_chiplets=num_chiplets, frames_per_chiplet=4096)
    allocators = FrameAllocatorGroup(num_chiplets, 4096)
    spaces = AddressSpaceRegistry()
    driver = GpuDriver(mm, allocators, spaces,
                       make_policy(MappingKind.LASP, num_chiplets),
                       barre_enabled=True)
    return mm, spaces, driver


class TestFig7bIommuCoalescing:
    """Fig 7b: pending group members are answered 'behind the scenes'."""

    def test_one_walk_latency_covers_the_group(self):
        queue = EventQueue()
        mm, spaces, driver = build_system(num_chiplets=4)
        rec = driver.malloc(AllocationRequest(data_id=1, pages=12,
                                              row_pages=3))
        responses = []
        iommu = Iommu(queue, IommuConfig(num_ptws=1, walk_latency=500),
                      spaces, driver.pec_buffer, mm.chiplet_bases,
                      responses.append, barre_enabled=True)
        # The four chiplets request the green group (0th VPN per chunk)
        # at similar times, exactly as Fig 7b draws it.
        desc = rec.descriptor
        for chiplet, vpn in enumerate(desc.group_vpns(rec.start_vpn)):
            iommu.receive(AtsRequest(pasid=0, vpn=vpn, src_chiplet=chiplet))
        queue.run()
        assert len(responses) == 4
        assert queue.now == 500            # one walk's latency in total
        assert iommu.stats.count("walks") == 1
        assert iommu.stats.count("pec_coalesced") == 3
        sources = sorted(r.source for r in responses)
        assert sources == ["pec", "pec", "pec", "walk"]


class TestFig12Walkthrough:
    """The paper's step table, executed against real components."""

    def setup_method(self):
        self.mm, self.spaces, self.driver = build_system(num_chiplets=2)
        # Pages 0xA1/0xA2-analogue: a 2-page data coalesced over GPU0/GPU1.
        self.rec = self.driver.malloc(AllocationRequest(data_id=1, pages=2,
                                                        row_pages=1))
        self.vpn_a1 = self.rec.start_vpn
        self.vpn_a2 = self.rec.start_vpn + 1
        self.l2 = {}
        self.agents = {}
        for cid in range(2):
            l2 = Tlb(TlbConfig(entries=64, ways=4, lookup_latency=10,
                               mshrs=8), name=f"l2.{cid}")
            pec = PecLogic(PecBuffer(5), self.mm.chiplet_bases)
            self.l2[cid] = l2
            self.agents[cid] = CoalescingAgent(
                cid, 2, CuckooConfig(rows=64), pec, l2)
        connect_directly(self.agents)

    def test_steps_0_through_8(self):
        table = self.spaces.get(0)
        fields = table.walk(self.vpn_a1)
        desc = self.driver.pec_buffer.lookup(0, self.vpn_a1)

        # [steps 0-1] GPU0 receives the ATS response for 0xA1 and inserts
        # it; the insert hook updates GPU0's LCF.
        self.l2[0].insert(TlbEntry(pasid=0, vpn=self.vpn_a1,
                                   global_pfn=fields.global_pfn,
                                   coal=fields, pec=desc))
        assert self.agents[0].lcf.contains(self.vpn_a1)

        # [step 2] GPU1's RCF_0 was updated with 0xA1 *and* 0xA2.
        assert self.agents[1].rcfs[0].contains(self.vpn_a1)
        assert self.agents[1].rcfs[0].contains(self.vpn_a2)

        # [step 3] GPU1 misses on 0xA2: TLB and LCF miss, RCF_0 hits.
        assert self.l2[1].probe(0, self.vpn_a2) is None
        assert not self.agents[1].lcf.contains(self.vpn_a2)
        assert self.agents[1].predict_sharer(0, self.vpn_a2) == 0

        # [steps 4-7] GPU0 serves the request: calculates coalescing VPNs,
        # finds 0xA1 in its LCF, visits its TLB, computes 0xA2's PFN.
        entry = self.agents[0].handle_peer_request(0, self.vpn_a2)
        assert entry is not None
        assert entry.global_pfn == table.walk(self.vpn_a2).global_pfn

        # [step 8] GPU1 inserts the computed PFN into its TLB; its own
        # LCF and GPU0's RCF_1 now track it.
        self.l2[1].insert(entry)
        assert self.l2[1].probe(0, self.vpn_a2) is not None
        assert self.agents[0].rcfs[1].contains(self.vpn_a2)

    def test_eviction_reverses_step_2(self):
        table = self.spaces.get(0)
        fields = table.walk(self.vpn_a1)
        desc = self.driver.pec_buffer.lookup(0, self.vpn_a1)
        self.l2[0].insert(TlbEntry(pasid=0, vpn=self.vpn_a1,
                                   global_pfn=fields.global_pfn,
                                   coal=fields, pec=desc))
        self.l2[0].invalidate(0, self.vpn_a1)
        assert not self.agents[1].rcfs[0].contains(self.vpn_a1)
        assert not self.agents[1].rcfs[0].contains(self.vpn_a2)
        assert self.agents[1].predict_sharer(0, self.vpn_a2) is None
