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

import gc
from collections import Counter, OrderedDict, defaultdict
from contextlib import contextmanager
from typing import Sequence

from repro.common.addresses import PAGE_SIZE_4K
from repro.common.config import BackendKind, IommuConfig, SimConfig, TlbConfig
from repro.common.errors import ConfigError, SimulationError
from repro.common.events import EventQueue
from repro.common.result import SimResult
from repro.common.stats import Histogram, LatencyHistogram
from repro.common.trace import NULL_TRACER, RecordingTracer
from repro.core.fbarre import CoalescingAgent
from repro.core.translation import (
    AtsHandler,
    FBarreHandler,
    LeastHandler,
    PeerHandler,
)
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
        import numpy as np
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
    import numpy as np
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
                [TraceAccess(pasid, vpn, weight, gap) for vpn in vpns])
    return per_chiplet_ctas


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, then restore the caller's state.

    Building and running a simulator allocates hundreds of thousands of
    objects that all stay alive until the run ends, so collections in
    between traverse live state and free nothing; a finished simulator
    leaves no cyclic garbage either (:meth:`McmGpuSimulator._release`).
    A collector the caller had disabled stays disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class McmGpuSimulator:
    """Builds and runs one MCM-GPU configuration for one or more apps."""

    def __init__(self, config: SimConfig, workloads: Sequence[Workload],
                 trace_scale: float = 1.0,
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
        self.queue = EventQueue()
        #: Translation-path tracer: a no-op unless ``trace=True``, in which
        #: case every component stamps cycle-accurate phase transitions
        #: (see repro.common.trace).  Tracing never schedules events, so a
        #: traced run's SimResult is bit-identical to an untraced one.
        self.tracer = RecordingTracer(self.queue) if trace else NULL_TRACER
        self.page_scale = config.page_size // PAGE_SIZE_4K
        self._pfn_observer = None
        #: Set by :meth:`run`: a simulator runs once.
        self._spent = False
        with _collector_paused():
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

    @property
    def pfn_observer(self):
        """Optional per-access observer ``(chiplet, stream, pasid, vpn,
        pfn)`` called with every delivered translation (differential
        harness).  May be attached any time before :meth:`run`: it is
        handed to every stream built so far and to every stream a tenant
        arrival builds."""
        return self._pfn_observer

    @pfn_observer.setter
    def pfn_observer(self, observer) -> None:
        self._pfn_observer = observer
        for stream in self.streams:
            stream.observer = observer

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        self.memory_map = cfg.memory_map
        self.driver = build_driver(cfg)
        self.allocators = self.driver.allocators
        self.spaces = self.driver.spaces
        self.policy = self.driver.policy
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
        self.pcie = DuplexLink(self.queue, cfg.pcie, name="pcie")

        #: PASIDs torn down mid-run: one set, handed to every dead-PASID
        #: guard (chiplets, miss handlers, walkers).  Stays empty outside
        #: scenario mode.
        self.dead_pasids: set[int] = set()
        #: One per-PASID counter bag across all walk sources, so the
        #: conservation law reads merged totals directly.
        self._pasid_counters: defaultdict[int, Counter] = defaultdict(Counter)
        self._ats_handlers: dict[int, AtsHandler] = {}
        self._gmmu_handlers: list[GmmuHandler] = []
        self.iommu: Iommu | None = None
        self.gmmus: list[Gmmu] = []
        if not cfg.gmmu:
            self.iommu = Iommu(
                self.queue, cfg.iommu, self.spaces, self.driver.pec_buffer,
                self.memory_map.chiplet_bases,
                respond=lambda response: None,  # see _bind_ats_route
                **self._walker_kwargs())

        shared_l2 = None
        shared_l2_mshr = None
        if cfg.backend is BackendKind.SHARED_L2:
            shared_cfg = TlbConfig(
                entries=cfg.l2_tlb.entries * cfg.num_chiplets,
                ways=cfg.l2_tlb.ways,
                lookup_latency=cfg.l2_tlb.lookup_latency,
                mshrs=cfg.l2_tlb.mshrs * cfg.num_chiplets)
            shared_l2 = Tlb(shared_cfg, name="l2.shared", tracer=self.tracer)
            shared_l2_mshr = MshrFile(shared_cfg.mshrs, name="l2mshr.shared")

        self.chiplets: list[Chiplet] = []
        self.agents: dict[int, CoalescingAgent] = {}
        peer_handlers: dict[int, PeerHandler] = {}
        for cid in range(cfg.num_chiplets):
            l2 = shared_l2 if shared_l2 is not None else Tlb(
                cfg.l2_tlb, name=f"l2.{cid}", tracer=self.tracer)
            l2_mshr = shared_l2_mshr if shared_l2_mshr is not None else \
                MshrFile(cfg.l2_tlb.mshrs, name=f"l2mshr.{cid}")
            base = self._base_handler(cid)
            handler = base
            if cfg.backend is BackendKind.FBARRE:
                pec = PecLogic(PecBuffer(cfg.pec_buffer_entries),
                               self.memory_map.chiplet_bases,
                               compact_bitmap=self.driver.compact_bitmap,
                               name=f"pec.{cid}", tracer=self.tracer)
                agent = CoalescingAgent(
                    cid, cfg.num_chiplets, cfg.cuckoo, pec, l2,
                    max_merge=self.driver.merge_max, tracer=self.tracer)
                self.agents[cid] = agent
                handler = FBarreHandler(
                    self.queue, cid, agent, self.sharing_mesh, base,
                    cfg.l2_tlb.lookup_latency, tracer=self.tracer)
                peer_handlers[cid] = handler
            elif cfg.backend is BackendKind.LEAST:
                handler = LeastHandler(self.queue, cid, self.mesh, base,
                                       cfg.l2_tlb.lookup_latency,
                                       tracer=self.tracer)
                peer_handlers[cid] = handler
            chiplet = Chiplet(
                self.queue, cid, cfg, l2, l2_mshr, handler,
                valkyrie_l1_probing=cfg.backend is BackendKind.VALKYRIE,
                agent=self.agents.get(cid), dead_pasids=self.dead_pasids,
                tracer=self.tracer)
            if isinstance(base, AtsHandler):
                base.on_prefetch_fill = chiplet.fill_l2_prefetch
            self.chiplets.append(chiplet)
        # A peer serves an F-Barre request with its agent, a Least probe
        # with its L2.
        serves = ({cid: agent.handle_peer_request
                   for cid, agent in self.agents.items()}
                  if cfg.backend is BackendKind.FBARRE else
                  {c.chiplet_id: c.l2.probe for c in self.chiplets})
        for cid, handler in peer_handlers.items():
            handler.peers = {peer: serve for peer, serve in serves.items()
                             if peer != cid}
        for cid, agent in self.agents.items():
            agent.connect({
                peer: (self.sharing_mesh.link(cid, peer).send,
                       self.agents[peer].apply_update)
                for peer in self.agents if peer != cid})
        if self.iommu is not None:
            self._bind_ats_route()

        self.migration: MigrationEngine | None = None
        if cfg.migration.enabled:
            self.migration = MigrationEngine(
                self.queue, cfg.migration, self.driver, self.chiplets,
                self.mesh, page_scale=self.page_scale)
        self.fabric = MemoryFabric(self.queue, self.memory_map, self.mesh,
                                   cfg.dram_latency,
                                   dram_serialization=cfg.dram_serialization,
                                   migration=self.migration)

        self._streams_by_pasid: dict[int, list[AccessStream]] = {}
        self._teardowns = 0
        #: Set to a PASID to re-insert one of its L2 entries after its
        #: teardown — the invariant checker's stale-entry self-test.
        self.inject_stale_pasid: int | None = None

        self._build_streams()

    def _walker_kwargs(self) -> dict:
        """Collaborators every walk source (IOMMU or GMMU) is built with."""
        return dict(
            barre_enabled=self.driver.barre_enabled,
            compact_bitmap=self.driver.compact_bitmap,
            fault_handler=(self.pager.handle_fault if self.pager is not None
                           else None),
            dead_pasids=self.dead_pasids,
            # Scenario mode counts (and keys VPN gaps) per PASID.
            pasid_counters=(self._pasid_counters
                            if self.scenario is not None else None),
            tracer=self.tracer)

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
                # Distributed page table: PTEs live with the page's owner.
                pt_owner=self.driver.chiplet_of, mesh=self.mesh,
                **self._walker_kwargs())
            self.gmmus.append(gmmu)
            handler = GmmuHandler(gmmu, cid, dead_pasids=self.dead_pasids)
            self._gmmu_handlers.append(handler)
            return handler
        assert self.iommu is not None
        spaces = self.spaces

        def is_mapped(pasid: int, vpn: int) -> bool:
            return pasid in spaces and spaces.get(pasid).is_mapped(vpn)

        handler = AtsHandler(
            self.queue, cid, self.pcie.up, self.iommu.receive,
            prefetch_next=cfg.backend is BackendKind.VALKYRIE,
            is_mapped=is_mapped, dead_pasids=self.dead_pasids,
            tracer=self.tracer)
        self._ats_handlers[cid] = handler
        return handler

    def _bind_ats_route(self) -> None:
        """Resolve the IOMMU's response route once: the PCIe downlink's
        ``send`` and each chiplet's ``deliver_response``."""
        send = self.pcie.down.send
        delivers = {cid: handler.deliver_response
                    for cid, handler in self._ats_handlers.items()}

        def respond(response) -> None:
            send(response, delivers[response.dst_chiplet])

        self.iommu.respond = respond

    # -- trace assembly ------------------------------------------------------

    def _build_streams(self) -> None:
        self.streams: list[AccessStream] = []
        if self.scenario is None:   # else built per tenant, at its arrival
            self._add_streams(self.workloads)

    def _add_streams(self, workloads: Sequence[Workload]
                     ) -> list[AccessStream]:
        """Build and register the streams of ``workloads``' access trace.

        Each chiplet deals its CTAs round-robin over its streams; a stream
        left without accesses is not built (it would drain at start and
        schedule nothing).
        """
        cfg = self.config
        per_chiplet_ctas = build_access_trace(
            cfg, workloads, self.driver, self.page_scale, self.trace_scale)
        streams: list[AccessStream] = []
        for cid, chiplet in enumerate(self.chiplets):
            buckets: list[list[TraceAccess]] = [
                [] for _ in range(cfg.streams_per_chiplet)]
            for index, accesses in enumerate(per_chiplet_ctas[cid]):
                buckets[index % cfg.streams_per_chiplet].extend(accesses)
            for sid, accesses in enumerate(buckets):
                if accesses:
                    stream = AccessStream(
                        self.queue, sid, accesses, cfg.stream_window,
                        translate=chiplet.translate, fabric=self.fabric,
                        chiplet_id=cid, tracer=self.tracer)
                    stream.observer = self._pfn_observer
                    streams.append(stream)
        self.streams.extend(streams)
        return streams

    # -- tenant lifecycle (scenario mode) ------------------------------------

    def _arrive_tenant(self, plan: TenantPlan) -> None:
        """Map a tenant's data and start its streams (lifecycle event)."""
        allocate_workloads(self.driver, [plan.workload], self.page_scale,
                           pager=self.pager)
        streams = self._add_streams([plan.workload])
        for stream in streams:
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
        """Run the trace to completion, once.

        A simulator is spent after ``run()``: its stats, TLB contents and
        tracer spans stay readable, but the wiring that made it run is
        released (:meth:`_release`), so a second ``run()`` raises.
        """
        if self._spent:
            raise SimulationError("a simulator runs once; build a new one")
        self._spent = True
        with _collector_paused():
            try:
                return self._run(max_events)
            finally:
                self._release()

    def _run(self, max_events: int | None) -> SimResult:
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
        undrained = sum(not stream.drained for stream in self.streams)
        if undrained:
            raise SimulationError(
                f"{undrained} streams never drained (translation "
                f"deadlock?) at cycle {self.queue.now}")
        if self.invariant_checker is not None:
            self.invariant_checker.verify_end_of_run()
        return self._collect()

    def _release(self) -> None:
        """Drop the back-links ``_build`` wired, so a finished simulator is
        freed by reference counting alone (no cyclic garbage).

        Each link here closes a cycle between components; everything a
        result reader needs (stats, TLB contents, tracer spans, page
        tables) is held in plain, acyclic attributes and stays readable.
        """
        for agent in self.agents.values():
            agent._routes = ()
            agent.l2.on_insert = agent.l2.on_evict = None
        for handler in self._ats_handlers.values():
            handler.on_prefetch_fill = None
        if self.iommu is not None:
            self.iommu.respond = None
        for gmmu in self.gmmus:
            gmmu.respond = None
        for stream in self.streams:
            stream._complete_cb = None

    def _collect(self) -> SimResult:
        import numpy as np
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
