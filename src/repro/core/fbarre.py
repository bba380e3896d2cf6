"""F-Barre's chiplet-side machinery: LCF/RCF filters + intra-MCM translation.

Each chiplet owns one :class:`CoalescingAgent` holding

* an **LCF** (local coalescing group filter) mirroring its own L2 TLB
  contents (exact VPNs only), and
* one **RCF per peer** tracking, for each peer, the exact *and* sibling
  coalescing VPNs of that peer's TLB entries (Section V-A2) — so a chiplet
  can discover that *some* peer entry can calculate its VPN without knowing
  the exact entry.

Filter-update messages are best-effort (no acknowledgement) and travel over
the mesh unless oracle sharing is enabled (Fig 19's comparison point).

Every peer's RCF for one sender starts empty with the same geometry and
receives that sender's updates in send order (each mesh link is FIFO), so
all of them are identical replicas.  One shared :class:`FilterUpdate` goes
to every peer; the first replica to apply it computes the cuckoo inserts or
deletes and records the effect on the update, and the others copy it (see
:meth:`~repro.filters.cuckoo.CuckooFilter.apply_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.config import CuckooConfig
from repro.common.stats import StatSet
from repro.common.trace import NULL_TRACER
from repro.filters.cuckoo import CuckooFilter, FilterEffect
from repro.iommu.pec import PecLogic
from repro.memsim.tlb import Tlb, TlbEntry


@dataclass(slots=True)
class FilterUpdate:
    """A batch of Section V-A2's 44-bit messages for one TLB event.

    The wire format is one (command, sender, coalescing VPN) message per
    VPN; the simulator batches the sibling set of one TLB insert/evict into
    a single event and charges the link per 44-bit message.  One update
    object goes to every peer: ``seq`` is its position in the sender's
    stream, and ``effect`` holds its recorded effect on the sender's RCF
    replicas once the first of them has applied it.
    """

    command: str  # "add" | "delete"
    sender: int
    pasid: int
    vpns: tuple[int, ...]
    seq: int
    effect: FilterEffect | None = None

    def __len__(self) -> int:
        return len(self.vpns)


class CoalescingAgent:
    """LCF/RCF bookkeeping and PEC calculation for one chiplet."""

    def __init__(self, chiplet_id: int, num_chiplets: int,
                 cuckoo: CuckooConfig, pec: PecLogic, l2: Tlb, *,
                 max_merge: int = 1,
                 send_update: Callable[[int, FilterUpdate], None]
                 | None = None) -> None:
        self.chiplet_id = chiplet_id
        self.num_chiplets = num_chiplets
        self.pec = pec
        self.l2 = l2
        self.max_merge = max_merge
        #: Translation-path tracer (no-op unless the MCM enables tracing;
        #: assigned after construction, so the setter refreshes the cached
        #: enabled flag).
        self.tracer = NULL_TRACER
        self.stats = StatSet(f"fbarre.{chiplet_id}")
        self._counters = self.stats.counters
        self.lcf = CuckooFilter(cuckoo)
        self.rcfs: dict[int, CuckooFilter] = {
            peer: CuckooFilter(cuckoo)
            for peer in range(num_chiplets) if peer != chiplet_id}
        #: RCF scan order (ascending peer id).
        self._peer_order = tuple(sorted(self.rcfs))
        #: Position of the next update in this chiplet's update stream.
        self._send_seq = 0
        #: Received updates this agent's RCF computed vs copied from a
        #: replica's recorded effect (host-side counters, not simulated
        #: state: they stay out of ``stats`` and every serialized result).
        self.updates_computed = 0
        self.updates_replayed = 0
        #: Transport for filter updates; wired by the MCM to the mesh.
        self.send_update = send_update or (lambda peer, update: None)
        l2.on_insert = self._on_l2_insert
        l2.on_evict = self._on_l2_evict

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        self._trace_on = tracer.enabled

    # -- TLB mirroring -------------------------------------------------------

    def _sibling_vpns(self, entry: TlbEntry) -> tuple[int, ...]:
        if entry.siblings is not None:
            return entry.siblings
        if entry.coal is None:
            siblings: tuple[int, ...] = (entry.vpn,)
        else:
            if entry.pec is not None:
                self.pec.record_descriptor(entry.pec)
            siblings = tuple(self.pec.sibling_vpns(entry.pasid, entry.vpn,
                                                   entry.coal))
        entry.siblings = siblings
        return siblings

    def _on_l2_insert(self, entry: TlbEntry) -> None:
        # LCF reflects actual TLB contents: exact VPN only (Section V-A2).
        if not self.lcf.insert(entry.vpn):
            self.stats.bump("lcf_insert_drops")
        self._broadcast("add", entry)

    def _on_l2_evict(self, entry: TlbEntry) -> None:
        self.lcf.delete(entry.vpn)
        self._broadcast("delete", entry)

    def _broadcast(self, command: str, entry: TlbEntry) -> None:
        siblings = self._sibling_vpns(entry)
        update = FilterUpdate(command=command, sender=self.chiplet_id,
                              pasid=entry.pasid, vpns=siblings,
                              seq=self._send_seq)
        self._send_seq += 1
        for peer in self._peer_order:
            self.send_update(peer, update)
        self.stats.bump("updates_sent", len(siblings) * len(self._peer_order))

    def apply_update(self, update: FilterUpdate) -> None:
        """A peer's filter-update batch arrived (best effort, no ack)."""
        effect = self.rcfs[update.sender].apply_batch(
            update.command == "add", update.vpns, update.seq, update.effect)
        if effect is update.effect:
            self.updates_replayed += 1
        else:
            self.updates_computed += 1
            if effect.seq is not None:
                update.effect = effect
        if update.command == "add":
            drops = effect.results.count(False)
            if drops:
                self.stats.bump("rcf_insert_drops", drops)
        self.stats.bump("updates_applied", len(update.vpns))

    # -- translation paths -----------------------------------------------------

    def try_local(self, pasid: int, vpn: int) -> TlbEntry | None:
        """Intra-chiplet coalesced translation (Fig 11 steps 3-5, locally).

        On an L2 miss the chiplet's own TLB may hold a *sibling* of the
        requested VPN; candidates are generated with the PEC logic, screened
        by the LCF, and confirmed with a non-destructive TLB probe.
        """
        if self._trace_on:
            self.tracer.phase(pasid, vpn, "lcf_probe")
        candidates = self.pec.candidate_vpns(pasid, vpn,
                                             max_merge=self.max_merge)
        for candidate in candidates:
            if candidate == vpn or not self.lcf.contains(candidate):
                continue
            self._counters["lcf_hits"] += 1
            if self._trace_on:
                self.tracer.phase(pasid, vpn, "lcf_hit")
            sibling = self.l2.probe(pasid, candidate)
            if sibling is None or sibling.coal is None:
                self._counters["lcf_false_positives"] += 1
                if self._trace_on:
                    self.tracer.phase(pasid, vpn, "lcf_false_positive")
                continue
            entry = self._calculated_entry(pasid, vpn, sibling)
            if entry is not None:
                self._counters["local_coalesced"] += 1
                return entry
        return None

    def predict_sharer(self, pasid: int, vpn: int) -> int | None:
        """RCF scan: which peer likely holds a coalescing entry (Fig 11)."""
        for peer in self._peer_order:
            if self.rcfs[peer].contains(vpn):
                self._counters["rcf_hits"] += 1
                if self._trace_on:
                    self.tracer.phase(pasid, vpn, "rcf_hit")
                return peer
        return None

    def handle_peer_request(self, pasid: int, vpn: int) -> TlbEntry | None:
        """Serve a peer's coalescing request (Fig 12 steps 4-7).

        Runs the same candidate + LCF + TLB-probe flow as
        :meth:`try_local`, but an *exact* resident entry also answers
        (the peer's RCF tracks exact VPNs too).
        """
        self.stats.bump("peer_requests")
        exact = self.l2.probe(pasid, vpn)
        if exact is not None:
            self.stats.bump("peer_exact_hits")
            return exact
        entry = self.try_local(pasid, vpn)
        if entry is not None:
            self.stats.bump("peer_calculated")
        return entry

    def _calculated_entry(self, pasid: int, vpn: int,
                          sibling: TlbEntry) -> TlbEntry | None:
        if sibling.pec is not None:
            self.pec.record_descriptor(sibling.pec)
        pfn = self.pec.calculate(pasid, sibling.vpn, sibling.coal, vpn)
        if pfn is None:
            return None
        own = self.pec.synthesize_fields(pasid, vpn, sibling.vpn, sibling.coal)
        return TlbEntry(pasid=pasid, vpn=vpn, global_pfn=pfn,
                        coal=own, pec=sibling.pec)

    # -- maintenance -------------------------------------------------------------

    def shootdown(self) -> None:
        """TLB shootdown: reset all filters (Section VI, *TLB Shootdown*)."""
        self.lcf.clear()
        for rcf in self.rcfs.values():
            rcf.clear()
        self.stats.bump("filter_resets")

    def local_hit_rate(self) -> float:
        """LCF true-positive rate (Fig 17a's ~98.4%)."""
        hits = self.stats.count("lcf_hits")
        if not hits:
            return 0.0
        return 1.0 - self.stats.count("lcf_false_positives") / hits
