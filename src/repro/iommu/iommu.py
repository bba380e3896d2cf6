"""The host IOMMU: PW-queue, page-table walkers, PEC coalescing.

Timing model (Table II): ATS requests arrive from PCIe, wait in the PW-queue
for one of ``num_ptws`` walkers, and each walk takes ``walk_latency`` cycles.
With Barre enabled, a completed walk's PEC logic scans the PW-queue for
pending requests in the same coalescing group and answers them by
calculation, skipping their walks entirely (Section IV-F).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable

from repro.common.config import IommuConfig, TlbConfig
from repro.common.errors import SimulationError
from repro.common.events import EventQueue
from repro.common.stats import Histogram, StatSet
from repro.common.trace import NULL_TRACER
from repro.iommu.ats import AtsRequest, AtsResponse
from repro.iommu.pec import PecLogic
from repro.iommu.scheduler import select_next
from repro.mapping.coalescing import PecBuffer, merged_group_vpns
from repro.memsim.page_table import AddressSpaceRegistry
from repro.memsim.tlb import Tlb, TlbEntry


@dataclass(slots=True)
class _WalkState:
    """A page-table walk in flight, with all merged requesters."""

    pasid: int
    vpn: int
    requests: list[AtsRequest] = field(default_factory=list)


class Iommu:
    """Queued multi-walker IOMMU with optional Barre PEC coalescing."""

    def __init__(self, queue: EventQueue, config: IommuConfig,
                 spaces: AddressSpaceRegistry, pec_buffer: PecBuffer,
                 chiplet_bases: tuple[int, ...],
                 respond: Callable[[AtsResponse], None], *,
                 barre_enabled: bool = False,
                 compact_bitmap: bool = False,
                 fault_handler: Callable[[int, int], int] | None = None,
                 dead_pasids: set[int] | None = None,
                 pasid_counters: dict | None = None,
                 tracer=NULL_TRACER) -> None:
        self.queue = queue
        self.config = config
        self.spaces = spaces
        self.respond = respond
        self.barre_enabled = barre_enabled
        self.tracer = tracer
        self.stats = StatSet("iommu")
        # Per-request hot-path caches: the tracer is fixed at construction,
        # config values never change, and the counter bag is live-shared
        # with ``stats`` (see StatSet.counters).
        self._trace_on = tracer.enabled
        self._counters = self.stats.counters
        self._sums = self.stats.sums
        self._obs_counts = self.stats.sample_counts
        self._schedule = queue.schedule
        self._tlb_latency = config.tlb_latency
        self._pw_queue_entries = config.pw_queue_entries
        self._coal_sched = (config.coalescing_aware_scheduling
                            and barre_enabled)
        #: Distribution of |VPN gap| between consecutive arrivals (Fig 5).
        self.vpn_gaps = Histogram()
        self._gap_buckets = self.vpn_gaps.buckets
        self._last_vpn: int | None = None
        self._last_vpn_by_pasid: dict[int, int] = {}
        #: Opt-in per-PASID conservation counters: scenario mode passes one
        #: ``defaultdict(Counter)`` shared by every walk source, and then
        #: also keys the gap stream per PASID so one tenant's arrivals
        #: don't pollute another's locality histogram.  None keeps the
        #: single-app path free and byte-identical.
        self.pasid_counters = pasid_counters
        #: Address spaces explicitly destroyed by teardown (the simulator's
        #: one set in scenario mode).  The dead-PASID guards key off this,
        #: NOT off registry membership: a walk for a never-created space
        #: must still be a hard error, not a flush.
        self.dead_pasids: set[int] = (set() if dead_pasids is None
                                      else dead_pasids)
        self.pec = PecLogic(pec_buffer, chiplet_bases,
                            compact_bitmap=compact_bitmap, name="iommu.pec",
                            tracer=tracer)
        self._compact_bitmap = compact_bitmap
        self._pending: deque[AtsRequest] = deque()
        self._walking: dict[tuple[int, int], _WalkState] = {}
        self._free_ptws = config.num_ptws
        #: Demand-paging hook: maps the faulting page(s) and returns the
        #: fault-service latency in cycles (None disables demand faults —
        #: an unmapped VPN is then a hard error).
        self.fault_handler = fault_handler
        self._tlb: Tlb | None = None
        if config.tlb_entries:
            self._tlb = Tlb(TlbConfig(entries=config.tlb_entries,
                                      ways=min(16, config.tlb_entries),
                                      lookup_latency=config.tlb_latency,
                                      mshrs=64), name="iommu_tlb",
                            tracer=tracer)

    # -- ingress -------------------------------------------------------------

    def receive(self, request: AtsRequest) -> None:
        """An ATS request arrived over PCIe."""
        self._counters["ats_requests"] += 1
        pasid_counters = self.pasid_counters
        if pasid_counters is not None:
            pasid_counters[request.pasid]["ats_requests"] += 1
        if self._trace_on and not request.prefetch:
            self.tracer.phase(request.pasid, request.vpn, "iommu_receive")
        # ``vpn_gaps.add`` inlined: one per request.
        if pasid_counters is not None:
            last = self._last_vpn_by_pasid.get(request.pasid)
            if last is not None:
                self._gap_buckets[abs(request.vpn - last)] += 1
            self._last_vpn_by_pasid[request.pasid] = request.vpn
        else:
            if self._last_vpn is not None:
                self._gap_buckets[abs(request.vpn - self._last_vpn)] += 1
            self._last_vpn = request.vpn
        request.arrival = self.queue.now
        if self._tlb is not None:
            hit = self._tlb.lookup(request.pasid, request.vpn)
            if hit is not None:
                self._counters["iommu_tlb_hits"] += 1
                if pasid_counters is not None:
                    pasid_counters[request.pasid]["iommu_tlb_hits"] += 1
                self._schedule(self._tlb_latency,
                               partial(self._finish, request, hit.global_pfn,
                                       hit.coal, "iommu_tlb"))
                return
            # Miss costs the TLB lookup before the walk can be queued.
            self._schedule(self._tlb_latency, partial(self._enqueue, request))
            return
        self._enqueue(request)

    def _enqueue(self, request: AtsRequest) -> None:
        walk = self._walking.get((request.pasid, request.vpn))
        if walk is not None:
            walk.requests.append(request)  # merge with in-flight walk
            self._counters["walk_merges"] += 1
            if self.pasid_counters is not None:
                self.pasid_counters[request.pasid]["walk_merges"] += 1
            if self._trace_on and not request.prefetch:
                self.tracer.phase(request.pasid, request.vpn, "walk_merge")
            return
        if request.prefetch and len(self._pending) >= \
                self._pw_queue_entries // 2:
            # Prefetch walks are lowest priority: dropped under pressure
            # (a prefetch has no waiter, so no response is owed).
            self.stats.bump("prefetches_dropped")
            if self.pasid_counters is not None:
                self.pasid_counters[request.pasid]["prefetches_dropped"] += 1
            return
        # Same-key requests already queued are merged at dispatch time.
        self._pending.append(request)
        if self._trace_on and not request.prefetch:
            self.tracer.phase(request.pasid, request.vpn, "pw_queue")
        # ``stats.observe("pw_queue_depth", ...)``, in place.
        self._sums["pw_queue_depth"] += len(self._pending)
        self._obs_counts["pw_queue_depth"] += 1
        if len(self._pending) > self._pw_queue_entries:
            self.stats.bump("pw_queue_overflows")
        self._dispatch()

    # -- walker scheduling ----------------------------------------------------

    def _dispatch(self) -> None:
        while self._free_ptws > 0 and self._pending:
            if self._coal_sched:
                request = select_next(self._pending, self._walking.keys(),
                                      self.pec.pec_buffer, tracer=self.tracer)
            else:
                request = self._pending.popleft()
            key = (request.pasid, request.vpn)
            walk = self._walking.get(key)
            if walk is not None:
                walk.requests.append(request)
                self._counters["walk_merges"] += 1
                if self.pasid_counters is not None:
                    self.pasid_counters[request.pasid]["walk_merges"] += 1
                if self._trace_on and not request.prefetch:
                    self.tracer.phase(request.pasid, request.vpn, "walk_merge")
                continue
            if request.pasid in self.dead_pasids:
                # Tenant destroyed between admission and dispatch (e.g. a
                # TLB-miss re-enqueue landing after teardown): drop rather
                # than walk a freed page table.
                self._counters["teardown_flushed"] += 1
                if self.pasid_counters is not None:
                    self.pasid_counters[request.pasid]["teardown_flushed"] += 1
                continue
            self._walking[key] = _WalkState(request.pasid, request.vpn,
                                            [request])
            self._free_ptws -= 1
            self._counters["walks"] += 1
            if self.pasid_counters is not None:
                self.pasid_counters[request.pasid]["walks"] += 1
            if self._trace_on and not request.prefetch:
                self.tracer.phase(request.pasid, request.vpn, "walk")
            self._schedule(self._walk_latency(request),
                           partial(self._walk_done, key))

    def _walk_latency(self, request: AtsRequest) -> int:
        """Walk duration; subclasses (GMMU) add remote-walk penalties."""
        return self.config.walk_latency

    def _walk_done(self, key: tuple[int, int]) -> None:
        walk = self._walking.get(key)
        if walk is None:
            raise SimulationError(f"walk completion for unknown key {key}")
        if walk.pasid in self.dead_pasids:
            # The address space was destroyed while this walk was in
            # flight (teardown mid-walk): drop the walk and every merged
            # requester — their streams died with the PASID, and resolving
            # against a freed page table would return a dead translation.
            del self._walking[key]
            self._free_ptws += 1
            self.stats.bump("dead_walks")
            self._dispatch()
            return
        table = self.spaces.get(walk.pasid)
        if not table.is_mapped(walk.vpn) and self.fault_handler is not None:
            # Demand fault: the walker stalls while the host services it
            # (the driver maps the page — or, under Barre, its whole
            # coalescing group, Section VI).
            self.stats.bump("page_faults")
            if self._trace_on:
                self.tracer.phase(walk.pasid, walk.vpn, "page_fault")
            latency = self.fault_handler(walk.pasid, walk.vpn)
            self._schedule(latency, partial(self._walk_done, key))
            return
        del self._walking[key]
        self._free_ptws += 1
        fields = table.walk(walk.vpn)
        if self._tlb is not None:
            self._tlb.insert(TlbEntry(walk.pasid, walk.vpn, fields.global_pfn,
                                      fields))
        for request in walk.requests:
            self._finish(request, fields.global_pfn, fields, "walk")
        if self.barre_enabled and fields.coalesced_under(self._compact_bitmap):
            self._coalesce_pending(walk, fields)
        self._dispatch()

    def _coalesce_pending(self, walk: _WalkState, fields) -> None:
        """Answer queued requests in the same coalescing group (Fig 7b).

        Like Fig 9's comparators, the scan screens each queued request by
        PASID, data range and group membership, and only group members
        reach the PFN calculator.  ``calculate_pending_pfn`` answers no VPN
        outside the group, so each in-range non-member is a rejection; they
        are counted in one bump per scan.
        """
        pasid, vpn = walk.pasid, walk.vpn
        desc = self.pec.descriptor_for(pasid, vpn)
        if desc is None:
            return
        start, end = desc.start_vpn, desc.end_vpn
        # The PEC scan window is the PW-queue itself (Section IV-F): only
        # requests that fit the queue's entries are visible to the logic.
        window = self._pw_queue_entries
        in_range = [r.vpn for r in islice(self._pending, window)
                    if r.pasid == pasid and start <= r.vpn <= end]
        if not in_range:
            return
        group = set(merged_group_vpns(desc, vpn, fields))
        group.add(vpn)
        if group.isdisjoint(in_range):
            # Nothing to answer (the common case): the queue is unchanged.
            self.pec.stats.bump("rejections", len(in_range))
            return
        survivors: deque[AtsRequest] = deque()
        scanned = rejected = 0
        # ``self._pending`` is re-read every step: ``_finish`` responds
        # synchronously, and a GMMU's response can enqueue (and dispatch)
        # new requests in the middle of the scan.
        while scanned < window and self._pending:
            request = self._pending.popleft()
            scanned += 1
            if request.pasid != pasid or not start <= request.vpn <= end:
                survivors.append(request)
                continue
            if request.vpn not in group:
                rejected += 1
                survivors.append(request)
                continue
            calculated = self.pec.calculate_entry(pasid, request.vpn, vpn,
                                                  fields)
            if calculated is None:
                survivors.append(request)
                continue
            pfn, own = calculated
            self._counters["pec_coalesced"] += 1
            if self.pasid_counters is not None:
                self.pasid_counters[request.pasid]["pec_coalesced"] += 1
            if self._tlb is not None:
                self._tlb.insert(TlbEntry(request.pasid, request.vpn, pfn,
                                          own))
            self._finish(request, pfn, own, "pec")
        if rejected:
            self.pec.stats.bump("rejections", rejected)
        survivors.extend(self._pending)
        self._pending = survivors

    # -- egress ---------------------------------------------------------------

    def _finish(self, request: AtsRequest, global_pfn: int, fields,
                source: str) -> None:
        now = self.queue.now
        # ``stats.observe("processing_time", ...)``, in place.
        self._sums["processing_time"] += now - request.arrival
        self._obs_counts["processing_time"] += 1
        if self._trace_on and not request.prefetch:
            self.tracer.phase(request.pasid, request.vpn, "reply")
        coal = desc = None
        if fields is not None and fields.coalesced_under(self._compact_bitmap):
            coal = fields
            desc = self.pec.descriptor_for(request.pasid, request.vpn)
        self._counters["ats_responses"] += 1
        self.respond(AtsResponse(request.pasid, request.vpn, global_pfn,
                                 request.src_chiplet, source, coal, desc,
                                 request.prefetch))

    # -- teardown ---------------------------------------------------------------

    def purge_pasid(self, pasid: int) -> int:
        """Flush queued state of a destroyed address space.

        Drops the PASID's PW-queue entries (counted as ``teardown_flushed``
        — they were admitted as ``ats_requests`` but will never walk), its
        IOMMU-TLB entries, and its gap-tracking cursor.  Walks already in
        flight are left to die in :meth:`_walk_done`'s dead-PASID guard.
        """
        self.dead_pasids.add(pasid)
        flushed = 0
        if self._pending:
            survivors: deque[AtsRequest] = deque()
            for request in self._pending:
                if request.pasid == pasid:
                    flushed += 1
                else:
                    survivors.append(request)
            self._pending = survivors
        if flushed:
            self._counters["teardown_flushed"] += flushed
            if self.pasid_counters is not None:
                self.pasid_counters[pasid]["teardown_flushed"] += flushed
        self._last_vpn_by_pasid.pop(pasid, None)
        if self._tlb is not None:
            self._tlb.invalidate_pasid(pasid)
        return flushed
