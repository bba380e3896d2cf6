"""F-Barre agent tests: filters, intra-MCM translation, peer serving."""

import pytest

from repro.common import CuckooConfig, MemoryMap, MappingKind, TlbConfig
from repro.core import CoalescingAgent, FilterUpdate
from repro.experiments import configs
from repro.gpu import McmGpuSimulator
from repro.iommu import PecLogic
from repro.mapping import (
    AllocationRequest,
    FrameAllocatorGroup,
    GpuDriver,
    PecBuffer,
    make_policy,
)
from repro.memsim import AddressSpaceRegistry, Tlb, TlbEntry
from repro.validation import fuzz_workload


class Harness:
    """Two chiplets with Barre-mapped data, wired agents, captured updates."""

    def __init__(self, num_chiplets=4, merge=1):
        self.mm = MemoryMap(num_chiplets=num_chiplets, frames_per_chiplet=4096)
        self.allocators = FrameAllocatorGroup(num_chiplets, 4096)
        self.spaces = AddressSpaceRegistry()
        self.driver = GpuDriver(self.mm, self.allocators, self.spaces,
                                make_policy(MappingKind.LASP, num_chiplets),
                                barre_enabled=True, merge_max=merge)
        self.sent: list[tuple[int, int, FilterUpdate]] = []
        self.agents: list[CoalescingAgent] = []
        self.l2s: list[Tlb] = []
        cuckoo = CuckooConfig(rows=256)
        for cid in range(num_chiplets):
            l2 = Tlb(TlbConfig(entries=512, ways=16, lookup_latency=10,
                               mshrs=16), name=f"l2.{cid}")
            pec = PecLogic(PecBuffer(5), self.mm.chiplet_bases)
            agent = CoalescingAgent(
                cid, num_chiplets, cuckoo, pec, l2, max_merge=merge,
                send_update=self._sender(cid))
            self.agents.append(agent)
            self.l2s.append(l2)

    def _sender(self, src):
        def send(peer, update):
            self.sent.append((src, peer, update))
            self.agents[peer].apply_update(update)
        return send

    def alloc(self, pages, row_pages=1, data_id=1):
        return self.driver.malloc(AllocationRequest(
            data_id=data_id, pages=pages, row_pages=row_pages))

    def entry_for(self, vpn, desc):
        fields = self.spaces.get(0).walk(vpn)
        return TlbEntry(pasid=0, vpn=vpn, global_pfn=fields.global_pfn,
                        coal=fields if fields.is_coalesced else None,
                        pec=desc)


def test_insert_updates_lcf_and_peer_rcfs():
    h = Harness()
    rec = h.alloc(pages=4)
    entry = h.entry_for(rec.start_vpn, rec.descriptor)
    h.l2s[0].insert(entry)
    agent0 = h.agents[0]
    assert agent0.lcf.contains(rec.start_vpn)
    # Peers' RCF_0 must contain the exact VPN and every sibling VPN.
    for peer in (1, 2, 3):
        for sibling in range(rec.start_vpn, rec.start_vpn + 4):
            assert h.agents[peer].rcfs[0].contains(sibling)


def test_evict_removes_filter_state():
    h = Harness()
    rec = h.alloc(pages=4)
    entry = h.entry_for(rec.start_vpn, rec.descriptor)
    h.l2s[0].insert(entry)
    h.l2s[0].invalidate(0, rec.start_vpn)
    assert not h.agents[0].lcf.contains(rec.start_vpn)
    for peer in (1, 2, 3):
        for sibling in range(rec.start_vpn, rec.start_vpn + 4):
            assert not h.agents[peer].rcfs[0].contains(sibling)


def test_try_local_calculates_from_sibling():
    """Fig 12 steps 3-7 on one chiplet: LCF hit -> TLB probe -> PEC calc."""
    h = Harness()
    rec = h.alloc(pages=8, row_pages=2)  # gran 2: groups {0,2,4,6}, {1,3,5,7}
    desc = rec.descriptor
    # Chiplet 1 holds the translation for its own member (start+2).
    member = rec.start_vpn + 2
    h.l2s[1].insert(h.entry_for(member, desc))
    # Chiplet 1 now needs start+4 (same group, chiplet 2's page).
    entry = h.agents[1].try_local(0, rec.start_vpn + 4)
    assert entry is not None
    table = h.spaces.get(0)
    assert entry.global_pfn == table.walk(rec.start_vpn + 4).global_pfn
    assert h.agents[1].stats.count("local_coalesced") == 1


def test_try_local_requires_descriptor():
    h = Harness()
    rec = h.alloc(pages=8, row_pages=2)
    member = rec.start_vpn + 2
    h.l2s[1].insert(h.entry_for(member, None))  # no descriptor piggybacked
    # Without a PEC entry the agent cannot generate candidates.
    assert h.agents[1].pec.pec_buffer.lookup(0, member) is None
    assert h.agents[1].try_local(0, rec.start_vpn + 4) is None


def test_predict_sharer_finds_peer():
    h = Harness()
    rec = h.alloc(pages=4)
    h.l2s[0].insert(h.entry_for(rec.start_vpn, rec.descriptor))
    # Chiplet 3 wants start+3; RCF_0 was updated with all siblings.
    assert h.agents[3].predict_sharer(0, rec.start_vpn + 3) == 0


def test_handle_peer_request_serves_exact_and_calculated():
    h = Harness()
    rec = h.alloc(pages=4)
    vpn0 = rec.start_vpn
    h.l2s[0].insert(h.entry_for(vpn0, rec.descriptor))
    exact = h.agents[0].handle_peer_request(0, vpn0)
    assert exact is not None and exact.global_pfn == \
        h.spaces.get(0).walk(vpn0).global_pfn
    calc = h.agents[0].handle_peer_request(0, vpn0 + 2)
    assert calc is not None
    assert calc.global_pfn == h.spaces.get(0).walk(vpn0 + 2).global_pfn


def test_peer_request_miss_returns_none():
    h = Harness()
    rec = h.alloc(pages=4)
    assert h.agents[0].handle_peer_request(0, rec.start_vpn) is None


def test_calculated_entry_can_itself_serve_later_requests():
    """Synthesized coalescing fields keep the calculation chain alive."""
    h = Harness()
    rec = h.alloc(pages=4)
    vpn0 = rec.start_vpn
    h.l2s[1].insert(h.entry_for(vpn0 + 1, rec.descriptor))
    first = h.agents[1].try_local(0, vpn0 + 2)
    assert first is not None
    h.l2s[1].insert(first)
    h.l2s[1].invalidate(0, vpn0 + 1)  # drop the original entry
    second = h.agents[1].try_local(0, vpn0 + 3)
    assert second is not None
    assert second.global_pfn == h.spaces.get(0).walk(vpn0 + 3).global_pfn


def test_merged_groups_calculate_across_intra_offsets():
    h = Harness(merge=2)
    rec = h.alloc(pages=16, row_pages=4)
    table = h.spaces.get(0)
    vpn0 = rec.start_vpn
    assert table.walk(vpn0).merged_groups == 2
    h.l2s[0].insert(h.entry_for(vpn0, rec.descriptor))
    # start+1 is the same merged group (intra offset 1) on the same chiplet.
    entry = h.agents[0].try_local(0, vpn0 + 1)
    assert entry is not None
    assert entry.global_pfn == table.walk(vpn0 + 1).global_pfn


def test_shootdown_clears_all_filters():
    h = Harness()
    rec = h.alloc(pages=4)
    h.l2s[0].insert(h.entry_for(rec.start_vpn, rec.descriptor))
    for agent in h.agents:
        agent.shootdown()
    assert not h.agents[0].lcf.contains(rec.start_vpn)
    assert h.agents[3].predict_sharer(0, rec.start_vpn + 3) is None


def test_update_messages_count_matches_siblings_and_peers():
    h = Harness()
    rec = h.alloc(pages=4)  # 4 siblings
    h.l2s[0].insert(h.entry_for(rec.start_vpn, rec.descriptor))
    # One batch per peer, each carrying all 4 sibling VPNs = 12 messages.
    adds = [u for _s, _p, u in h.sent if u.command == "add"]
    assert len(adds) == 3
    assert sum(len(u) for u in adds) == 12


def test_uncoalesced_entry_updates_exact_vpn_only():
    h = Harness()
    rec = h.alloc(pages=1)  # single page: no coalescing
    h.l2s[0].insert(h.entry_for(rec.start_vpn, None))
    adds = [u for _s, _p, u in h.sent if u.command == "add"]
    assert len(adds) == 3  # one batch per peer
    assert all(u.vpns == (rec.start_vpn,) for u in adds)


def test_one_shared_update_is_computed_once_then_replayed():
    h = Harness()
    rec = h.alloc(pages=4)
    h.l2s[0].insert(h.entry_for(rec.start_vpn, rec.descriptor))
    updates = {id(u) for _s, _p, u in h.sent}
    assert len(updates) == 1 and h.sent[0][2].seq == 0
    # Peer 1 applies first and records the effect; peers 2 and 3 copy it.
    assert [h.agents[p].updates_computed for p in (1, 2, 3)] == [1, 0, 0]
    assert [h.agents[p].updates_replayed for p in (1, 2, 3)] == [0, 1, 1]
    buckets = [h.agents[p].rcfs[0]._buckets for p in (1, 2, 3)]
    assert buckets[0] == buckets[1] == buckets[2]


def test_cleared_replica_computes_its_own_updates():
    h = Harness()
    rec = h.alloc(pages=8)
    h.agents[2].rcfs[0].clear()
    h.l2s[0].insert(h.entry_for(rec.start_vpn, rec.descriptor))
    assert h.agents[2].updates_computed == 1
    assert h.agents[3].updates_replayed == 1
    for sibling in h.sent[-1][2].vpns:
        assert h.agents[2].rcfs[0].contains(sibling)


@pytest.mark.parametrize("chiplets", [4, 8])
def test_every_update_is_computed_once_per_run(chiplets):
    """N-1 identical RCF replicas: one computes, N-2 replay each update."""
    sim = McmGpuSimulator(configs.fbarre(seed=1, num_chiplets=chiplets),
                          [fuzz_workload(1)])
    sim.run()
    agents = list(sim.agents.values())
    sent = sum(agent._send_seq for agent in agents)
    assert sent > 0
    assert sum(agent.updates_computed for agent in agents) == sent
    assert sum(agent.updates_replayed for agent in agents) == \
        (chiplets - 2) * sent
    # Host-side counters only: simulated stats (and results) never see them.
    for agent in agents:
        assert not {"updates_computed", "updates_replayed"} & set(
            agent.stats.counters)
