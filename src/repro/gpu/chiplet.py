"""One GPU chiplet: per-stream L1 TLBs, a shared L2 TLB, the miss path.

The translation pipeline (Section II-A):

1. L1 TLB (private, 1 cycle).  Valkyrie additionally probes sibling L1s.
2. L2 TLB (chiplet-shared, 10 cycles), with MSHR merging.
3. On an L2 miss, the configured :class:`~repro.core.translation.MissHandler`
   resolves the VPN (ATS / intra-MCM / peer sharing / GMMU).

With the shared-L2 configuration (Fig 6) every chiplet is constructed with
the *same* L2 TLB and MSHR file, modelling one physical TLB.

Every scheduled hop and every MSHR or miss-handler waiter is a
``functools.partial`` over a bound method, so a hop costs one call and
builds no closure.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.common.config import SimConfig
from repro.common.events import EventQueue
from repro.common.stats import StatSet
from repro.common.trace import NULL_TRACER
from repro.core.fbarre import CoalescingAgent
from repro.core.translation import MissHandler
from repro.memsim.tlb import MshrFile, Tlb, TlbEntry

#: Valkyrie's intra-chiplet L1 probe cost (cycles).
_L1_PROBE_LATENCY = 2

DoneCallback = Callable[[TlbEntry], None]


class Chiplet:
    """Translation front-end of one GPU chiplet."""

    def __init__(self, queue: EventQueue, chiplet_id: int, config: SimConfig,
                 l2: Tlb, l2_mshr: MshrFile, miss_handler: MissHandler, *,
                 valkyrie_l1_probing: bool = False,
                 agent: CoalescingAgent | None = None,
                 dead_pasids: set[int] | None = None,
                 tracer=NULL_TRACER) -> None:
        self.queue = queue
        self.chiplet_id = chiplet_id
        self.config = config
        self.l2 = l2
        self.l2_mshr = l2_mshr
        self.miss_handler = miss_handler
        self.valkyrie_l1_probing = valkyrie_l1_probing
        self.tracer = tracer
        self.stats = StatSet(f"chiplet.{chiplet_id}")
        # Per-access hot-path caches: latencies are config-derived
        # properties and the tracer is fixed at construction.
        self._trace_on = tracer.enabled
        self._schedule = queue.schedule
        self._l1_latency = config.l1_tlb.lookup_latency
        self._l2_latency = config.l2_tlb.lookup_latency
        self.l1s = [Tlb(config.l1_tlb, name=f"l1.{chiplet_id}.{s}",
                        tracer=tracer)
                    for s in range(config.streams_per_chiplet)]
        self._l1_mshrs = [MshrFile(config.l1_tlb.mshrs,
                                   name=f"l1mshr.{chiplet_id}.{s}")
                          for s in range(config.streams_per_chiplet)]
        #: F-Barre agent (None for other backends).
        self.agent = agent
        #: PASIDs torn down mid-run (the simulator's one set).  Outside
        #: scenario mode it stays empty, so the guards are a no-op
        #: membership test on the miss path only.
        self.dead_pasids: set[int] = (set() if dead_pasids is None
                                      else dead_pasids)

    # -- translation pipeline ---------------------------------------------------

    def translate(self, stream_id: int, pasid: int, vpn: int,
                  done: DoneCallback) -> None:
        """Entry point from an access stream."""
        entry = self.l1s[stream_id].lookup(pasid, vpn)
        if entry is not None:
            self._schedule(self._l1_latency, partial(done, entry))
            return
        if pasid in self.dead_pasids:
            # A stalled requester retried after its tenant was torn down;
            # allocating a fresh MSHR slot here would leak it forever.
            return
        mshr = self._l1_mshrs[stream_id]
        status = mshr.allocate((pasid, vpn),
                               partial(self._fill_l1, stream_id, done))
        if status == "full":
            if self._trace_on:
                self.tracer.phase(pasid, vpn, "l1_mshr_stall")
            mshr.wait_for_slot(
                partial(self.translate, stream_id, pasid, vpn, done))
            return
        if status == "merged":
            return
        self._schedule(self._l1_latency,
                       partial(self._after_l1_miss, stream_id, pasid, vpn))

    def _fill_l1(self, stream_id: int, done: DoneCallback,
                 entry: TlbEntry) -> None:
        self.l1s[stream_id].insert(entry)
        done(entry)

    def _after_l1_miss(self, stream_id: int, pasid: int, vpn: int) -> None:
        if pasid in self.dead_pasids:
            return  # slot already dropped by teardown
        if self.valkyrie_l1_probing:
            for sibling, l1 in enumerate(self.l1s):
                if sibling == stream_id:
                    continue
                entry = l1.probe(pasid, vpn)
                if entry is not None:
                    self.stats.bump("valkyrie_l1_hits")
                    if self._trace_on:
                        self.tracer.phase(pasid, vpn, "valkyrie_l1_hit")
                    self._schedule(
                        _L1_PROBE_LATENCY,
                        partial(self._release_l1, stream_id, (pasid, vpn),
                                entry))
                    return
        if self._trace_on:
            self.tracer.phase(pasid, vpn, "l2_lookup")
        self._schedule(self._l2_latency,
                       partial(self._l2_stage, stream_id, pasid, vpn))

    def _release_l1(self, stream_id: int, key: tuple[int, int],
                    entry: TlbEntry) -> None:
        """Release an L1 MSHR unless its tenant died while we were queued."""
        if key[0] in self.dead_pasids:
            return
        self._l1_mshrs[stream_id].release(key, entry)

    def _l2_stage(self, stream_id: int, pasid: int, vpn: int) -> None:
        if pasid in self.dead_pasids:
            return
        entry = self.l2.lookup(pasid, vpn)
        if entry is not None:
            self._l1_mshrs[stream_id].release((pasid, vpn), entry)
            return
        self._l2_miss(stream_id, pasid, vpn)

    def _l2_retry(self, stream_id: int, pasid: int, vpn: int) -> None:
        """An L2 MSHR freed up; recheck the (possibly just filled) L2."""
        if pasid in self.dead_pasids:
            return
        entry = self.l2.probe(pasid, vpn)  # probe: the miss was counted once
        if entry is not None:
            self._l1_mshrs[stream_id].release((pasid, vpn), entry)
            return
        self._l2_miss(stream_id, pasid, vpn)

    def _l2_miss(self, stream_id: int, pasid: int, vpn: int) -> None:
        if pasid in self.dead_pasids:
            return
        key = (pasid, vpn)
        status = self.l2_mshr.allocate(
            key, partial(self._l1_mshrs[stream_id].release, key))
        if status == "full":
            if self._trace_on:
                self.tracer.phase(pasid, vpn, "l2_mshr_stall")
            self.l2_mshr.wait_for_slot(
                partial(self._l2_retry, stream_id, pasid, vpn))
            return
        if status == "merged":
            return
        self.miss_handler.resolve(pasid, vpn, partial(self._fill_l2, key))

    def _fill_l2(self, key: tuple[int, int], entry: TlbEntry) -> None:
        if key[0] in self.dead_pasids:
            # A peer/mesh reply landed after teardown: inserting it would
            # resurrect a dead translation, and the MSHR slot is gone.
            self.stats.bump("dead_fills_dropped")
            return
        self.l2.insert(entry)
        self.l2_mshr.release(key, entry)

    def fill_l2_prefetch(self, entry: TlbEntry) -> None:
        """Valkyrie's L2 translation prefetch fill (no waiters)."""
        if entry.pasid in self.dead_pasids:
            return
        if self.l2.probe(entry.pasid, entry.vpn) is None \
                and not self.l2_mshr.is_pending(entry.key):
            self.l2.insert(entry)
            self.stats.bump("prefetch_fills")

    # -- maintenance -------------------------------------------------------------

    def invalidate(self, pasid: int, vpn: int) -> None:
        """Drop one translation everywhere (migration / shootdown path)."""
        for l1 in self.l1s:
            l1.invalidate(pasid, vpn)
        self.l2.invalidate(pasid, vpn)

    def shootdown(self) -> None:
        for l1 in self.l1s:
            l1.shootdown()
        self.l2.shootdown()
        if self.agent is not None:
            self.agent.shootdown()
