"""The MCM-GPU simulator: wires every subsystem and runs one app.

``McmGpuSimulator`` assembles the Fig 3 system for a given
:class:`~repro.common.config.SimConfig` and workload(s): the driver maps all
data (with or without Barre's enforcement), chiplets get TLB hierarchies and
the backend-specific miss handler, the IOMMU (or per-chiplet GMMUs) serves
walks, and access streams drive the whole thing until the trace drains.

``run()`` returns a :class:`SimResult`; speedups in the experiment harness
are ratios of ``SimResult.cycles``.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.common.addresses import PAGE_SIZE_4K
from repro.common.config import BackendKind, IommuConfig, SimConfig, TlbConfig
from repro.common.errors import ConfigError, SimulationError
from repro.common.events import EventQueue
from repro.common.stats import Histogram, LatencyHistogram
from repro.common.trace import NULL_TRACER, RecordingTracer
from repro.core.fbarre import CoalescingAgent
from repro.core.translation import AtsHandler, FBarreHandler, LeastHandler
from repro.gmmu.gmmu import Gmmu, GmmuHandler
from repro.gpu.chiplet import Chiplet
from repro.gpu.memory import MemoryFabric
from repro.gpu.stream import AccessStream, TraceAccess
from repro.iommu.iommu import Iommu
from repro.iommu.pec import PecLogic
from repro.mapping.allocator import FrameAllocatorGroup
from repro.mapping.coalescing import PecBuffer
from repro.mapping.driver import GpuDriver
from repro.mapping.policies import make_policy
from repro.memsim.links import DuplexLink, Mesh
from repro.memsim.page_table import AddressSpaceRegistry
from repro.memsim.tlb import MshrFile, Tlb, TlbEntry
from repro.migration.acud import MigrationEngine
from repro.paging.demand import DemandPager
from repro.scenarios.scenario import Scenario, TenantPlan, apply_aging
from repro.workloads.base import Workload


@dataclass
class SimResult:
    """Everything an experiment reads out of one simulation run."""

    app: str
    backend: str
    cycles: int
    instructions: float
    l2_misses: int
    l2_lookups: int
    ats_requests: int
    pcie_packets: int
    mesh_packets: int
    walks: int
    pec_coalesced: int
    mean_ats_time: float
    remote_data_fraction: float
    vpn_gaps: Histogram
    migrations: int = 0
    page_faults: int = 0
    pages_per_fault: float = 0.0
    local_coalesced_hits: int = 0
    remote_attempts: int = 0
    remote_hits: int = 0
    lcf_hits: int = 0
    lcf_false_positives: int = 0
    gmmu_local_walks: int = 0
    gmmu_remote_walks: int = 0
    #: Full translation-latency distribution (log2 buckets, all streams
    #: merged).  Always collected — the per-access cost is one counter
    #: bump — so cached sweep results carry p50/p90/p99 tails.
    translation_latency: LatencyHistogram = field(
        default_factory=LatencyHistogram)
    extra: dict = field(default_factory=dict)

    @property
    def mpki(self) -> float:
        """L2 TLB misses per kilo warp instruction (Table I's metric)."""
        if not self.instructions:
            return 0.0
        return self.l2_misses / (self.instructions / 1000.0)

    @property
    def coalesced_fraction(self) -> float:
        answered = self.pec_coalesced + self.walks
        return self.pec_coalesced / answered if answered else 0.0

    @property
    def remote_hit_rate(self) -> float:
        """Peer translation success rate (Fig 17a's RCF metric)."""
        return self.remote_hits / self.remote_attempts if self.remote_attempts else 0.0

    @property
    def lcf_true_positive_rate(self) -> float:
        if not self.lcf_hits:
            return 0.0
        return 1.0 - self.lcf_false_positives / self.lcf_hits

    def speedup_over(self, baseline: "SimResult") -> float:
        if self.cycles <= 0:
            raise SimulationError(f"run {self.app}/{self.backend} has no cycles")
        return baseline.cycles / self.cycles


def build_driver(config: SimConfig) -> GpuDriver:
    """Construct the GPU driver stack (allocators, spaces, policy) for a config.

    This is the allocation-side half of the machine: everything the driver
    writes (page tables, PEC buffer, ownership records) is fully determined
    by the configuration and the workload requests, with no event timing
    involved.  The reference translator (:mod:`repro.validation.oracle`)
    builds the same stack to derive ground truth independently of the
    simulated translation hardware.
    """
    allocators = FrameAllocatorGroup(config.num_chiplets,
                                     config.frames_per_chiplet)
    spaces = AddressSpaceRegistry()
    policy = make_policy(config.mapping, config.num_chiplets)
    barre = config.backend in (BackendKind.BARRE, BackendKind.FBARRE)
    merge = (config.merged_coal_groups
             if config.backend is BackendKind.FBARRE else 1)
    return GpuDriver(config.memory_map, allocators, spaces, policy,
                     barre_enabled=barre, merge_max=merge,
                     pec_buffer_entries=config.pec_buffer_entries)


def allocate_workloads(driver: GpuDriver, workloads: Sequence[Workload],
                       page_scale: int,
                       pager: DemandPager | None = None) -> None:
    """Map every workload's data objects, in declaration order."""
    for workload in workloads:
        for request in workload.requests(page_scale):
            if pager is not None:
                pager.malloc(request)
            else:
                driver.malloc(request)


class _TraceMemo:
    """Per-process LRU over the config-independent half of trace generation.

    One entry per :func:`cta_trace_key` — exactly the inputs of
    :func:`build_cta_traces`.  A sweep worker that simulates several
    configurations of one app (the affinity scheduler routes them to the
    same process) generates the app's CTA offset arrays once and replays
    them for every config.  ``maxsize`` is the entry count (``0``
    disables memoization).  Entries are shared across simulations and
    must never be mutated — nothing downstream does (the VPN mapping
    copies into fresh arrays).
    """

    def __init__(self, maxsize: int = 32) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, list] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple):
        if self.maxsize <= 0:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, key: tuple, value: list) -> None:
        if self.maxsize <= 0:
            return
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: The process-wide CTA-trace memo (worker processes each fork their own).
TRACE_MEMO = _TraceMemo()


def cta_trace_key(workloads: Sequence[Workload], seed: int,
                  trace_scale: float) -> tuple:
    """Everything CTA generation depends on, and nothing more.

    Workload ``repr`` covers every field that shapes the trace (pattern,
    footprints, params, pasid, CTA geometry) plus the class name, so a
    modified or subclassed workload can never collide with the stock one.
    """
    return (tuple(repr(w) for w in workloads), seed, round(trace_scale, 6))


def build_cta_traces(workloads: Sequence[Workload], seed: int,
                     trace_scale: float) -> list[list[CtaTrace]]:
    """The config-independent half of trace generation, memoized.

    Draws every workload's CTAs from a fresh ``default_rng(seed)`` in
    declaration order — the exact draw order the simulator has always
    used — so a memo hit is bit-identical to a fresh build (pinned by
    ``tests/test_golden_runs.py``, whose matrix reuses apps across
    configs within one process).
    """
    key = cta_trace_key(workloads, seed, trace_scale)
    traces = TRACE_MEMO.lookup(key)
    if traces is None:
        rng = np.random.default_rng(seed)
        traces = [w.build_ctas(rng, trace_scale) for w in workloads]
        TRACE_MEMO.store(key, traces)
    return traces


def build_access_trace(config: SimConfig, workloads: Sequence[Workload],
                       driver: GpuDriver, page_scale: int,
                       trace_scale: float) -> list[list[list[TraceAccess]]]:
    """Per-chiplet CTA access lists, exactly as the simulator issues them.

    Two halves: the config-independent CTA offset arrays — depend only on
    (workloads, ``config.seed``, ``trace_scale``) and are served from the
    per-process memo (:func:`build_cta_traces`) — and the per-point VPN
    mapping below, which depends on the driver's allocations and the
    mapping policy.  Deterministic in (config.seed, workloads,
    trace_scale): the simulator and the reference translator both call
    this, so the oracle replays the very same access stream the timing
    simulation runs.
    """
    per_chiplet_ctas: list[list[list[TraceAccess]]] = [
        [] for _ in range(config.num_chiplets)]
    all_ctas = build_cta_traces(workloads, config.seed, trace_scale)
    for workload, ctas in zip(workloads, all_ctas):
        records = [driver.data[(workload.pasid, i)]
                   for i in range(len(workload.data))]
        main = records[workload.main_data]
        # Vectorized VPN math (start + clamped scaled offset, per record):
        # element-wise numpy iteration dominated simulator construction.
        starts = np.array([r.start_vpn for r in records], dtype=np.int64)
        caps = np.array([r.num_pages - 1 for r in records], dtype=np.int64)
        pasid, weight, gap = workload.pasid, workload.weight, workload.gap
        for cta in ctas:
            chiplet = driver.policy.cta_chiplet(
                cta.cta_id, workload.num_ctas, main.plan, main.num_pages)
            idx = cta.data_index
            scaled = np.asarray(cta.page_offset, dtype=np.int64) // page_scale
            vpns = (starts[idx] + np.minimum(scaled, caps[idx])).tolist()
            per_chiplet_ctas[chiplet].append(
                [TraceAccess(pasid=pasid, vpn=vpn, weight=weight, gap=gap)
                 for vpn in vpns])
    return per_chiplet_ctas


class McmGpuSimulator:
    """Builds and runs one MCM-GPU configuration for one or more apps."""

    def __init__(self, config: SimConfig, workloads: Sequence[Workload],
                 trace_scale: float = 1.0,
                 verify_translations: bool = False,
                 trace: bool = False,
                 check_invariants: bool = False) -> None:
        if not workloads:
            raise ConfigError("need at least one workload")
        pasids = [w.pasid for w in workloads]
        if len(set(pasids)) != len(pasids):
            raise ConfigError("workloads must use distinct PASIDs")
        #: Multi-tenant timeline (``ScenarioWorkload``): tenants arrive and
        #: depart as scheduled lifecycle events instead of all data being
        #: mapped up front.  None for ordinary workloads.
        self.scenario: Scenario | None = None
        carried = [getattr(w, "scenario", None) for w in workloads]
        if any(s is not None for s in carried):
            if len(workloads) != 1:
                raise ConfigError(
                    "a scenario workload must be the only workload "
                    "(its tenants are the apps)")
            self.scenario = carried[0]
        self.config = config
        self.workloads = list(workloads)
        self.trace_scale = trace_scale
        #: Check every delivered PFN against the page table (tests only;
        #: invalid under migration, where in-flight translations may race a
        #: concurrent remap).
        self.verify_translations = verify_translations
        if verify_translations and config.migration.enabled:
            raise ConfigError("verify_translations is racy under migration")
        self.queue = EventQueue()
        #: Translation-path tracer: a no-op unless ``trace=True``, in which
        #: case every component stamps cycle-accurate phase transitions
        #: (see repro.common.trace).  Tracing never schedules events, so a
        #: traced run's SimResult is bit-identical to an untraced one.
        self.tracer = RecordingTracer(self.queue) if trace else NULL_TRACER
        self.page_scale = config.page_size // PAGE_SIZE_4K
        #: Optional per-access observer ``(chiplet, stream, pasid, vpn, pfn)``
        #: called with every delivered translation (differential harness).
        self.pfn_observer = None
        self._build()
        #: Runtime invariant checker (debug mode, off by default): wraps the
        #: structural state — TLBs, MSHRs, filters, PEC logic, the driver —
        #: and asserts invariants as events fire.  Installing it never
        #: schedules events, so checked runs simulate identically.
        self.invariant_checker = None
        if check_invariants:
            from repro.validation.invariants import InvariantChecker
            self.invariant_checker = InvariantChecker(self)
            self.invariant_checker.install()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        self.memory_map = cfg.memory_map
        self.driver = build_driver(cfg)
        self.allocators = self.driver.allocators
        self.spaces = self.driver.spaces
        self.policy = self.driver.policy
        barre = cfg.backend in (BackendKind.BARRE, BackendKind.FBARRE)
        merge = cfg.merged_coal_groups if cfg.backend is BackendKind.FBARRE else 1
        self.pager: DemandPager | None = None
        if cfg.demand_paging:
            self.pager = DemandPager(self.driver,
                                     fault_latency=cfg.fault_latency)
        if self.scenario is not None:
            # Tenants allocate at their arrival events; the allocators are
            # pre-fragmented first so every tenant maps into an aged pool.
            apply_aging(self.allocators, self.scenario)
        else:
            allocate_workloads(self.driver, self.workloads, self.page_scale,
                               pager=self.pager)

        self.mesh = Mesh(self.queue, cfg.mesh, cfg.num_chiplets)
        self.sharing_mesh = (Mesh(self.queue, cfg.mesh, cfg.num_chiplets,
                                  oracle=True)
                             if cfg.oracle_sharing else self.mesh)
        self.fabric = MemoryFabric(self.queue, self.memory_map, self.mesh,
                                   cfg.dram_latency,
                                   dram_serialization=cfg.dram_serialization)
        self.pcie = DuplexLink(self.queue, cfg.pcie, name="pcie")

        self._ats_handlers: dict[int, AtsHandler] = {}
        self._gmmu_handlers: list[GmmuHandler] = []
        self.iommu: Iommu | None = None
        self.gmmus: list[Gmmu] = []
        if not cfg.gmmu:
            self.iommu = Iommu(
                self.queue, cfg.iommu, self.spaces, self.driver.pec_buffer,
                self.memory_map.chiplet_bases, self._route_response,
                barre_enabled=barre,
                compact_bitmap=self.driver.compact_bitmap,
                tracer=self.tracer)
            if self.pager is not None:
                self.iommu.fault_handler = self.pager.handle_fault

        shared_l2 = None
        shared_l2_mshr = None
        if cfg.backend is BackendKind.SHARED_L2:
            shared_cfg = TlbConfig(
                entries=cfg.l2_tlb.entries * cfg.num_chiplets,
                ways=cfg.l2_tlb.ways,
                lookup_latency=cfg.l2_tlb.lookup_latency,
                mshrs=cfg.l2_tlb.mshrs * cfg.num_chiplets)
            shared_l2 = Tlb(shared_cfg, name="l2.shared")
            shared_l2_mshr = MshrFile(shared_cfg.mshrs, name="l2mshr.shared")

        self.chiplets: list[Chiplet] = []
        self.agents: dict[int, CoalescingAgent] = {}
        fbarre_handlers: dict[int, FBarreHandler] = {}
        least_handlers: dict[int, LeastHandler] = {}
        for cid in range(cfg.num_chiplets):
            l2 = shared_l2 if shared_l2 is not None else Tlb(
                cfg.l2_tlb, name=f"l2.{cid}")
            l2_mshr = shared_l2_mshr if shared_l2_mshr is not None else \
                MshrFile(cfg.l2_tlb.mshrs, name=f"l2mshr.{cid}")
            base = self._base_handler(cid)
            handler = base
            if cfg.backend is BackendKind.FBARRE:
                pec = PecLogic(PecBuffer(cfg.pec_buffer_entries),
                               self.memory_map.chiplet_bases,
                               compact_bitmap=self.driver.compact_bitmap,
                               name=f"pec.{cid}")
                pec.tracer = self.tracer
                agent = CoalescingAgent(
                    cid, cfg.num_chiplets, cfg.cuckoo, pec, l2,
                    max_merge=merge,
                    send_update=self._make_update_sender(cid))
                agent.tracer = self.tracer
                self.agents[cid] = agent
                handler = FBarreHandler(
                    self.queue, cid, agent, self.sharing_mesh, base,
                    cfg.l2_tlb.lookup_latency, tracer=self.tracer)
                fbarre_handlers[cid] = handler
            elif cfg.backend is BackendKind.LEAST:
                handler = LeastHandler(self.queue, cid, self.mesh, base,
                                       cfg.l2_tlb.lookup_latency,
                                       tracer=self.tracer)
                least_handlers[cid] = handler
            chiplet = Chiplet(
                self.queue, cid, cfg, l2, l2_mshr, handler,
                valkyrie_l1_probing=cfg.backend is BackendKind.VALKYRIE,
                tracer=self.tracer)
            chiplet.agent = self.agents.get(cid)
            if isinstance(base, AtsHandler):
                base.on_prefetch_fill = chiplet.fill_l2_prefetch
            self.chiplets.append(chiplet)
        for cid, handler in fbarre_handlers.items():
            handler.peers = fbarre_handlers
        for cid, handler in least_handlers.items():
            handler.peer_l2s = {c.chiplet_id: c.l2 for c in self.chiplets
                                if c.chiplet_id != cid}

        self.migration: MigrationEngine | None = None
        if cfg.migration.enabled:
            self.migration = MigrationEngine(
                self.queue, cfg.migration, self.driver, self.chiplets,
                self.mesh, page_scale=self.page_scale)

        #: PASIDs torn down mid-run; shared by every chiplet's dead-PASID
        #: guards.  Stays empty outside scenario mode.
        self.dead_pasids: set[int] = set()
        self._streams_by_pasid: dict[int, list[AccessStream]] = {}
        self._teardowns = 0
        #: Set to a PASID to re-insert one of its L2 entries after its
        #: teardown — the invariant checker's stale-entry self-test.
        self.inject_stale_pasid: int | None = None
        self._pasid_counters: defaultdict[int, Counter] = defaultdict(Counter)
        if self.scenario is not None:
            for chiplet in self.chiplets:
                chiplet.dead_pasids = self.dead_pasids
            for ats in self._ats_handlers.values():
                ats.dead_pasids = self.dead_pasids
            for gmmu_handler in self._gmmu_handlers:
                gmmu_handler.dead_pasids = self.dead_pasids
            # One shared per-PASID counter bag across all walk sources, so
            # the conservation law reads merged totals directly.
            for src in ([self.iommu] if self.iommu is not None
                        else self.gmmus):
                src.per_pasid_gaps = True
                src.pasid_counters = self._pasid_counters

        self._build_streams()

    def _base_handler(self, cid: int):
        cfg = self.config
        if cfg.gmmu:
            gmmu_cfg = IommuConfig(
                num_ptws=cfg.gmmu_ptws_per_chiplet,
                walk_latency=cfg.iommu.walk_latency,
                pw_queue_entries=cfg.iommu.pw_queue_entries,
                coalescing_aware_scheduling=cfg.iommu.coalescing_aware_scheduling)
            gmmu = Gmmu(
                self.queue, cid, gmmu_cfg, self.spaces,
                self.driver.pec_buffer, self.memory_map.chiplet_bases,
                respond=lambda resp: None,  # replaced by GmmuHandler
                pt_owner=self._pt_owner, mesh=self.mesh,
                barre_enabled=cfg.backend in (BackendKind.BARRE,
                                              BackendKind.FBARRE),
                compact_bitmap=self.driver.compact_bitmap,
                tracer=self.tracer)
            if self.pager is not None:
                gmmu.fault_handler = self.pager.handle_fault
            self.gmmus.append(gmmu)
            handler = GmmuHandler(gmmu, cid)
            self._gmmu_handlers.append(handler)
            return handler
        assert self.iommu is not None
        handler = AtsHandler(
            self.queue, cid, self.pcie.up, self.iommu.receive,
            prefetch_next=cfg.backend is BackendKind.VALKYRIE,
            is_mapped=self._is_mapped, tracer=self.tracer)
        self._ats_handlers[cid] = handler
        return handler

    def _pt_owner(self, pasid: int, vpn: int) -> int:
        """Distributed page table: PTEs live with the page's owner chiplet."""
        return self.driver.chiplet_of(pasid, vpn)

    def _is_mapped(self, pasid: int, vpn: int) -> bool:
        return pasid in self.spaces and self.spaces.get(pasid).is_mapped(vpn)

    def _make_update_sender(self, src: int):
        def send(peer: int, update) -> None:
            self.sharing_mesh.send(
                src, peer, update,
                lambda u: self.agents[peer].apply_update(u),
                packets=len(update))
        return send

    def _route_response(self, response) -> None:
        self.pcie.down.send(
            response,
            lambda resp: self._ats_handlers[resp.dst_chiplet]
            .deliver_response(resp))

    # -- trace assembly ------------------------------------------------------

    def _build_streams(self) -> None:
        cfg = self.config
        self.streams: list[AccessStream] = []
        self._remaining = 0
        if self.scenario is not None:
            return  # streams are built per tenant, at its arrival event
        per_chiplet_ctas = build_access_trace(
            cfg, self.workloads, self.driver, self.page_scale,
            self.trace_scale)
        for cid, chiplet in enumerate(self.chiplets):
            buckets: list[list[TraceAccess]] = [
                [] for _ in range(cfg.streams_per_chiplet)]
            for index, accesses in enumerate(per_chiplet_ctas[cid]):
                buckets[index % cfg.streams_per_chiplet].extend(accesses)
            for sid, accesses in enumerate(buckets):
                stream = AccessStream(
                    self.queue, sid, accesses, cfg.stream_window,
                    translate=chiplet.translate,
                    access_data=self._make_data_access(cid),
                    on_drained=self._stream_drained,
                    chiplet_id=cid, tracer=self.tracer)
                self.streams.append(stream)
                self._remaining += 1

    def _make_data_access(self, cid: int):
        # verify_translations and the migration engine are fixed before the
        # streams are built; only pfn_observer may be attached later, so it
        # alone is re-read per access.
        verify = self.verify_translations
        migration = self.migration
        fabric_access = self.fabric.access
        owner_of = self.fabric.owner_of

        def access(stream_id: int, pasid: int, vpn: int, pfn: int,
                   done) -> None:
            if verify:
                expected = self.spaces.get(pasid).walk(vpn).global_pfn
                if pfn != expected:
                    raise SimulationError(
                        f"wrong translation: VPN {vpn:#x} -> {pfn:#x}, "
                        f"page table says {expected:#x}")
            if self.pfn_observer is not None:
                self.pfn_observer(cid, stream_id, pasid, vpn, pfn)
            if migration is not None:
                migration.note_access(cid, owner_of(pfn), pasid, vpn)
            fabric_access(cid, pfn, done)
        return access

    def _stream_drained(self, stream: AccessStream) -> None:
        self._remaining -= 1

    # -- tenant lifecycle (scenario mode) ------------------------------------

    def _arrive_tenant(self, plan: TenantPlan) -> None:
        """Map a tenant's data and start its streams (lifecycle event)."""
        cfg = self.config
        workload = plan.workload
        allocate_workloads(self.driver, [workload], self.page_scale,
                           pager=self.pager)
        per_chiplet_ctas = build_access_trace(
            cfg, [workload], self.driver, self.page_scale, self.trace_scale)
        streams: list[AccessStream] = []
        for cid, chiplet in enumerate(self.chiplets):
            buckets: list[list[TraceAccess]] = [
                [] for _ in range(cfg.streams_per_chiplet)]
            for index, accesses in enumerate(per_chiplet_ctas[cid]):
                buckets[index % cfg.streams_per_chiplet].extend(accesses)
            for sid, accesses in enumerate(buckets):
                if not accesses:
                    continue
                stream = AccessStream(
                    self.queue, sid, accesses, cfg.stream_window,
                    translate=chiplet.translate,
                    access_data=self._make_data_access(cid),
                    on_drained=self._stream_drained,
                    chiplet_id=cid, tracer=self.tracer)
                self.streams.append(stream)
                streams.append(stream)
                self._remaining += 1
                stream.start()
        self._streams_by_pasid[plan.pasid] = streams

    def _teardown_tenant(self, plan: TenantPlan) -> None:
        """Destroy a tenant's address space mid-run (lifecycle event).

        The teardown order matters: mark the PASID dead first (so every
        callback that fires this very cycle already sees it), cancel the
        tenant's streams, drop its in-flight hardware state outside-in
        (MSHRs, TLBs, PEC buffers, handler wait queues, walker queues,
        migration counters), and only then free its pages and page table.
        In-flight walks die in the walkers' dead-PASID guards.
        """
        pasid = plan.pasid
        stale = None
        if self.inject_stale_pasid == pasid and pasid in self.spaces:
            # Snapshot one live translation before the table dies; timing
            # never leaves this empty (unlike scanning for a resident TLB
            # entry, which can miss a tenant torn down mid-first-walk).
            table = self.spaces.get(pasid)
            for (p, _data_id), record in sorted(self.driver.data.items()):
                if p != pasid or not record.chiplet_by_vpn:
                    continue
                vpn = min(record.chiplet_by_vpn)
                stale = TlbEntry(pasid=pasid, vpn=vpn,
                                 global_pfn=table.walk(vpn).global_pfn)
                break
        self.dead_pasids.add(pasid)
        for stream in self._streams_by_pasid.get(pasid, []):
            stream.cancel()
        mshrs: dict[int, MshrFile] = {}
        tlbs: dict[int, Tlb] = {}
        for chiplet in self.chiplets:
            for mshr in [*chiplet._l1_mshrs, chiplet.l2_mshr]:
                mshrs[id(mshr)] = mshr
            for tlb in [*chiplet.l1s, chiplet.l2]:
                tlbs[id(tlb)] = tlb
        for mshr in mshrs.values():
            mshr.drop_pasid(pasid)
        for tlb in tlbs.values():
            tlb.invalidate_pasid(pasid)
        for agent in self.agents.values():
            agent.pec.pec_buffer.remove_pasid(pasid)
        for ats in self._ats_handlers.values():
            ats.purge_pasid(pasid)
        for gmmu_handler in self._gmmu_handlers:
            gmmu_handler.purge_pasid(pasid)
        if self.iommu is not None:
            self.iommu.purge_pasid(pasid)
        for gmmu in self.gmmus:
            gmmu.purge_pasid(pasid)
        if self.migration is not None:
            self.migration.purge_pasid(pasid)
        self.driver.destroy_pasid(pasid)
        self._teardowns += 1
        if stale is not None:
            # Self-test hook: resurrect one translation of the dead address
            # space so the invariant checker's teardown sweep must trip
            # (mirrors --inject-pec-bug for the PEC check).
            self.chiplets[0].l2.insert(stale)

    # -- execution -----------------------------------------------------------

    def run(self, max_events: int | None = None) -> SimResult:
        if self.scenario is not None:
            # Canonical replay order: same-cycle ties resolve arrivals
            # first, then by PASID — identical in the oracle's replay.
            for event in self.scenario.lifecycle_events():
                action = (self._arrive_tenant if event.kind == "arrive"
                          else self._teardown_tenant)
                self.queue.schedule(
                    event.cycle, lambda a=action, p=event.tenant: a(p))
        for stream in self.streams:
            stream.start()
        self.queue.run(max_events=max_events)
        if self._remaining:
            raise SimulationError(
                f"{self._remaining} streams never drained (translation "
                f"deadlock?) at cycle {self.queue.now}")
        if self.invariant_checker is not None:
            self.invariant_checker.verify_end_of_run()
        return self._collect()

    def _collect(self) -> SimResult:
        cfg = self.config
        l2s = {id(c.l2): c.l2 for c in self.chiplets}
        l2_misses = sum(l2.stats.count("misses") for l2 in l2s.values())
        l2_lookups = sum(l2.stats.count("hits") + l2.stats.count("misses")
                         for l2 in l2s.values())
        instructions = sum(s.instructions for s in self.streams)
        walk_sources = ([self.iommu] if self.iommu is not None else
                        list(self.gmmus))
        walks = sum(src.stats.count("walks") for src in walk_sources)
        pec = sum(src.stats.count("pec_coalesced") for src in walk_sources)
        ats = sum(src.stats.count("ats_requests") for src in walk_sources)
        times = [src.stats.mean("processing_time") for src in walk_sources
                 if src.stats.samples("processing_time")]
        vpn_gaps = Histogram()
        for src in walk_sources:
            for gap, count in src.vpn_gaps.buckets.items():
                vpn_gaps.buckets[gap] += count
        latency = LatencyHistogram()
        for stream in self.streams:
            latency.merge(stream.latency_hist)
        result = SimResult(
            app="+".join(w.abbr for w in self.workloads),
            backend=cfg.backend.value,
            cycles=self.queue.now,
            instructions=instructions,
            l2_misses=l2_misses,
            l2_lookups=l2_lookups,
            ats_requests=ats,
            pcie_packets=self.pcie.packets_sent,
            mesh_packets=self.mesh.packets_sent,
            walks=walks,
            pec_coalesced=pec,
            mean_ats_time=float(np.mean(times)) if times else 0.0,
            remote_data_fraction=self.fabric.remote_fraction(),
            vpn_gaps=vpn_gaps,
            migrations=self.migration.migrations if self.migration else 0,
            page_faults=self.pager.faults if self.pager else 0,
            pages_per_fault=self.pager.pages_per_fault() if self.pager else 0.0,
            translation_latency=latency,
        )
        for agent in self.agents.values():
            result.lcf_hits += agent.stats.count("lcf_hits")
            result.lcf_false_positives += agent.stats.count("lcf_false_positives")
        for chiplet in self.chiplets:
            handler = chiplet.miss_handler
            if isinstance(handler, FBarreHandler):
                result.local_coalesced_hits += handler.stats.count("local_hits")
                result.remote_attempts += handler.stats.count("remote_attempts")
                result.remote_hits += handler.stats.count("remote_hits")
            elif isinstance(handler, LeastHandler):
                result.remote_attempts += handler.stats.count("remote_attempts")
                result.remote_hits += handler.stats.count("remote_hits")
        for gmmu in self.gmmus:
            result.gmmu_local_walks += gmmu.stats.count("local_walks")
            result.gmmu_remote_walks += gmmu.stats.count("remote_walks")
        if self.scenario is not None:
            result.extra["scenario"] = self.scenario.name
            result.extra["scenario_seed"] = self.scenario.seed
            result.extra["teardowns"] = self._teardowns
            result.extra["dead_pasids"] = sorted(self.dead_pasids)
            result.extra["pasid_counters"] = {
                pasid: dict(counters)
                for pasid, counters in sorted(self._pasid_counters.items())}
        return result


def run_app(config: SimConfig, workload: Workload,
            trace_scale: float = 1.0) -> SimResult:
    """Convenience wrapper: build, run, and collect one app."""
    return McmGpuSimulator(config, [workload], trace_scale=trace_scale).run()
