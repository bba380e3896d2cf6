"""L2-miss resolution strategies (one per translation scheme).

A :class:`MissHandler` receives the L2 TLB misses of one chiplet and must
eventually call back with a :class:`~repro.memsim.tlb.TlbEntry`.  The
concrete handlers implement the paper's design points:

* :class:`AtsHandler` — baseline and Barre: every miss crosses PCIe to the
  IOMMU (Barre's coalescing happens inside the IOMMU).
* :class:`PeerHandler` — the peer round trip F-Barre and Least share.
* :class:`FBarreHandler` — tries intra-MCM translation first: local
  coalesced calculation, then RCF-predicted peer calculation, then ATS.
* :class:`LeastHandler` — MICRO'21-style inter-chiplet exact-entry TLB
  sharing with an ideal (100% true-positive) residency tracker.

Valkyrie's L2-side behaviour (translation prefetch) is a flag on
:class:`AtsHandler`; its L1 probing lives in the chiplet front-end.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import Callable

from repro.common.events import EventQueue
from repro.common.stats import StatSet
from repro.common.trace import NULL_TRACER
from repro.core.fbarre import CoalescingAgent
from repro.iommu.ats import AtsRequest, AtsResponse
from repro.memsim.links import Link, Mesh
from repro.memsim.tlb import TlbEntry

#: Cycles for a filter (LCF/RCF) check — tiny next to a TLB access
#: (Section V-A1 measures 1.7% of TLB power; we charge one cycle).
FILTER_CHECK_LATENCY = 1
#: Cycles a peer spends serving a coalescing request: LCF check + L2 probe.
PEER_SERVE_LATENCY = 11
#: Valkyrie prefetches one chiplet may have outstanding at once.
MAX_PREFETCHES = 2
#: Cycles after which an unanswered prefetch frees its slot: the IOMMU
#: silently drops prefetch walks under pressure.
PREFETCH_EXPIRY = 10_000

DoneCallback = Callable[[TlbEntry], None]


class MissHandler(ABC):
    """Resolves one chiplet's L2 TLB misses."""

    @abstractmethod
    def resolve(self, pasid: int, vpn: int, done: DoneCallback) -> None:
        """Translate (pasid, vpn); call ``done(entry)`` when available."""


class AtsHandler(MissHandler):
    """Send an ATS request over the (shared) PCIe link to the IOMMU."""

    def __init__(self, queue: EventQueue, chiplet_id: int, pcie_up: Link,
                 deliver_to_iommu: Callable[[AtsRequest], None], *,
                 prefetch_next: bool = False,
                 is_mapped: Callable[[int, int], bool] | None = None,
                 dead_pasids: set[int] | None = None,
                 tracer=NULL_TRACER) -> None:
        self.queue = queue
        self.chiplet_id = chiplet_id
        self.pcie_up = pcie_up
        self.deliver_to_iommu = deliver_to_iommu
        self.prefetch_next = prefetch_next
        self.is_mapped = is_mapped or (lambda pasid, vpn: False)
        self.tracer = tracer
        self._trace_on = tracer.enabled
        self.stats = StatSet(f"ats.{chiplet_id}")
        self._counters = self.stats.counters
        self._waiting: dict[tuple[int, int], list[DoneCallback]] = {}
        #: Outstanding prefetches (key -> issue cycle).  Bounded by
        #: MAX_PREFETCHES, and stale entries expire after PREFETCH_EXPIRY
        #: so a slot must not leak forever.
        self._prefetching: dict[tuple[int, int], int] = {}
        #: Hook for prefetch fills (wired to the chiplet's L2 insert).
        self.on_prefetch_fill: Callable[[TlbEntry], None] | None = None
        #: Torn-down address spaces (the simulator's one set).  A resolve
        #: can arrive *after* teardown purged this handler: an
        #: F-Barre/Least peer probe in flight over the mesh when the
        #: PASID died falls back to ATS on return.  The IOMMU
        #: would flush the request without responding, so enqueueing a
        #: waiter here would leak it forever — drop the resolve instead
        #: (its stream is already cancelled; nobody consumes the reply).
        self.dead_pasids: set[int] = (set() if dead_pasids is None
                                      else dead_pasids)

    def resolve(self, pasid: int, vpn: int, done: DoneCallback) -> None:
        if pasid in self.dead_pasids:
            self._counters["dead_resolves_dropped"] += 1
            return
        key = (pasid, vpn)
        waiters = self._waiting.get(key)
        if waiters is None:
            self._waiting[key] = [done]
            if self._trace_on:
                self.tracer.phase(pasid, vpn, "ats_send")
            self._counters["ats_sent"] += 1
            self.pcie_up.send(AtsRequest(pasid, vpn, self.chiplet_id),
                              self.deliver_to_iommu)
        else:
            waiters.append(done)
            if self._trace_on:
                self.tracer.phase(pasid, vpn, "ats_merge")
        if self.prefetch_next:
            self._maybe_prefetch(pasid, vpn + 1)

    def _maybe_prefetch(self, pasid: int, vpn: int) -> None:
        key = (pasid, vpn)
        now = self.queue.now
        for stale in [k for k, t in self._prefetching.items()
                      if now - t > PREFETCH_EXPIRY]:
            del self._prefetching[stale]
        if len(self._prefetching) >= MAX_PREFETCHES:
            self.stats.bump("prefetch_throttled")
            return
        if key in self._waiting or key in self._prefetching:
            return
        if not self.is_mapped(pasid, vpn):
            return
        self._prefetching[key] = now
        self.stats.bump("prefetches")
        self._counters["ats_sent"] += 1
        self.pcie_up.send(AtsRequest(pasid, vpn, self.chiplet_id,
                                     prefetch=True),
                          self.deliver_to_iommu)

    def deliver_response(self, response: AtsResponse) -> None:
        """An ATS response arrived over PCIe for this chiplet."""
        key = (response.pasid, response.vpn)
        entry = TlbEntry(response.pasid, response.vpn, response.global_pfn,
                         response.coal, response.pec)
        if response.prefetch:
            self._prefetching.pop(key, None)
            if self.on_prefetch_fill is not None:
                self.on_prefetch_fill(entry)
            return
        if self._trace_on:
            self.tracer.phase(response.pasid, response.vpn, "ats_response")
        for done in self._waiting.pop(key, []):
            done(entry)

    def purge_pasid(self, pasid: int) -> int:
        """Drop waiters and prefetch slots of a destroyed address space.

        The IOMMU-side walks die in the walker's dead-PASID guard; any
        response already in flight over PCIe finds no waiter here and is
        discarded by :meth:`deliver_response`'s empty pop.
        """
        dead = [key for key in self._waiting if key[0] == pasid]
        for key in dead:
            del self._waiting[key]
        for key in [k for k in self._prefetching if k[0] == pasid]:
            del self._prefetching[key]
        return len(dead)


class PeerHandler(MissHandler):
    """A miss handler that can resolve a miss at a peer chiplet.

    One mesh round trip: the request crosses to the peer, the peer's serve
    function answers after ``serve_latency`` cycles, and the reply crosses
    back; a peer that cannot answer falls back to ATS.  F-Barre's
    coalescing request (Figs 11-12) and Least's exact-entry probe share
    this path and differ only in how a peer serves.
    """

    def __init__(self, queue: EventQueue, chiplet_id: int, mesh: Mesh,
                 ats: AtsHandler, serve_latency: int, stats_name: str, *,
                 tracer=NULL_TRACER) -> None:
        self.queue = queue
        self.chiplet_id = chiplet_id
        self.mesh = mesh
        self.ats = ats
        self.serve_latency = serve_latency
        self.tracer = tracer
        self._trace_on = tracer.enabled
        self.stats = StatSet(stats_name)
        self._counters = self.stats.counters
        #: Peer chiplet id -> its ``serve(pasid, vpn) -> TlbEntry | None``,
        #: wired by the MCM after all chiplets exist.
        self.peers: dict[int, Callable[[int, int], TlbEntry | None]] = {}

    def _ask_peer(self, peer: int, pasid: int, vpn: int,
                  done: DoneCallback) -> None:
        self._counters["remote_attempts"] += 1
        if self._trace_on:
            self.tracer.phase(pasid, vpn, "peer_request")
        self.mesh.send(self.chiplet_id, peer, None,
                       partial(self._at_peer, peer, pasid, vpn, done))

    def _at_peer(self, peer: int, pasid: int, vpn: int, done: DoneCallback,
                 _payload: None) -> None:
        if self._trace_on:
            self.tracer.phase(pasid, vpn, "peer_serve")
        entry = self.peers[peer](pasid, vpn)
        self.queue.schedule(
            self.serve_latency,
            partial(self.mesh.send, peer, self.chiplet_id, entry,
                    partial(self._peer_back, pasid, vpn, done)))

    def _peer_back(self, pasid: int, vpn: int, done: DoneCallback,
                   entry: TlbEntry | None) -> None:
        if entry is None:
            self._counters["remote_misses"] += 1
            if self._trace_on:
                self.tracer.phase(pasid, vpn, "peer_miss")
            self.ats.resolve(pasid, vpn, done)
            return
        self._counters["remote_hits"] += 1
        if self._trace_on:
            self.tracer.phase(pasid, vpn, "peer_reply")
        done(entry)


class FBarreHandler(PeerHandler):
    """Intra-MCM translation first (Fig 11), ATS as the fallback.

    A peer serves with its agent's ``handle_peer_request`` (Fig 12).
    """

    def __init__(self, queue: EventQueue, chiplet_id: int,
                 agent: CoalescingAgent, mesh: Mesh, ats: AtsHandler,
                 l2_probe_latency: int, *, tracer=NULL_TRACER) -> None:
        super().__init__(queue, chiplet_id, mesh, ats, PEER_SERVE_LATENCY,
                         f"fbarre_handler.{chiplet_id}", tracer=tracer)
        self.agent = agent
        self.l2_probe_latency = l2_probe_latency

    def resolve(self, pasid: int, vpn: int, done: DoneCallback) -> None:
        entry = self.agent.try_local(pasid, vpn)
        if entry is not None:
            self._counters["local_hits"] += 1
            if self._trace_on:
                self.tracer.phase(pasid, vpn, "local_calc")
            latency = FILTER_CHECK_LATENCY + self.l2_probe_latency
            self.queue.schedule(latency, partial(done, entry))
            return
        peer = self.agent.predict_sharer(pasid, vpn)
        if peer is not None:
            self._ask_peer(peer, pasid, vpn, done)
            return
        self._counters["ats_fallbacks"] += 1
        self.ats.resolve(pasid, vpn, done)


class LeastHandler(PeerHandler):
    """Inter-chiplet exact TLB sharing (Least [27]) with an ideal tracker.

    The paper implements Least with "an ideal 1024-entry cuckoo filter (100%
    true positive) as the local TLB tracker"; we model the ideal tracker by
    consulting peer L2 contents directly (zero false positives/negatives)
    while still paying the mesh round trip and probe latency.  A peer
    serves with its L2's ``probe``, which is also the tracker's view.
    """

    def __init__(self, queue: EventQueue, chiplet_id: int, mesh: Mesh,
                 ats: AtsHandler, l2_probe_latency: int, *,
                 tracer=NULL_TRACER) -> None:
        super().__init__(queue, chiplet_id, mesh, ats, l2_probe_latency,
                         f"least.{chiplet_id}", tracer=tracer)

    def resolve(self, pasid: int, vpn: int, done: DoneCallback) -> None:
        peers = self.peers
        for peer in sorted(peers):
            if peers[peer](pasid, vpn) is not None:
                self._ask_peer(peer, pasid, vpn, done)
                return
        self._counters["ats_fallbacks"] += 1
        self.ats.resolve(pasid, vpn, done)
