"""Per-layer accounting for the traced benchmark run.

Two instruments, both installed by monkeypatching from outside ``src/``:

* :class:`LayerClock` wraps the public (and hot private) functions of each
  simulator layer and totals each layer's *self* time: a call's duration
  minus the part covered by wrapped calls nested inside it.  Time spent
  outside every wrapped call lands on no layer.
* :class:`Harvest` reads the exact counters each simulation leaves in its
  components' public ``StatSet``s once the run ends.

Hot paths bind some methods at construction (``AccessStream`` caches
``queue.schedule`` and ``chiplet.translate``; ``Tlb`` compiles ``lookup``
per instance), so :meth:`LayerClock.install` patches the classes before
any simulator is built and wraps every ``Tlb.lookup`` instance closure
right after ``McmGpuSimulator.__init__`` returns.  Every workload
simulates in the benchmark process (``repro-sweep`` through the serial
backend), so both instruments see every point.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

#: (module, attribute path, layer) for every wrapped function.  Layers are
#: named after the ``src/repro`` packages they cover.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.common.events", "EventQueue.run", "events"),
    ("repro.common.events", "EventQueue.schedule", "events"),
    ("repro.common.events", "EventQueue.schedule_at", "events"),
    ("repro.common.events", "EventQueue.cancel", "events"),
    ("repro.memsim.tlb", "Tlb.insert", "memsim"),
    ("repro.memsim.tlb", "Tlb.probe", "memsim"),
    ("repro.memsim.tlb", "Tlb.invalidate", "memsim"),
    ("repro.memsim.tlb", "Tlb.invalidate_pasid", "memsim"),
    ("repro.memsim.tlb", "MshrFile.allocate", "memsim"),
    ("repro.memsim.tlb", "MshrFile.release", "memsim"),
    ("repro.memsim.tlb", "MshrFile.wait_for_slot", "memsim"),
    ("repro.memsim.links", "Link.send", "memsim"),
    ("repro.memsim.links", "Link.occupy", "memsim"),
    ("repro.memsim.links", "Mesh.send", "memsim"),
    ("repro.memsim.page_table", "PageTable.map", "memsim"),
    ("repro.memsim.page_table", "PageTable.walk", "memsim"),
    ("repro.memsim.page_table", "PageTable.is_mapped", "memsim"),
    ("repro.filters.cuckoo", "CuckooFilter.insert", "filters"),
    ("repro.filters.cuckoo", "CuckooFilter.delete", "filters"),
    ("repro.filters.cuckoo", "CuckooFilter.contains", "filters"),
    ("repro.filters.cuckoo", "CuckooFilter.clear", "filters"),
    ("repro.core.fbarre", "CoalescingAgent._on_l2_insert", "core"),
    ("repro.core.fbarre", "CoalescingAgent._on_l2_evict", "core"),
    ("repro.core.fbarre", "CoalescingAgent.apply_update", "core"),
    ("repro.core.fbarre", "CoalescingAgent.try_local", "core"),
    ("repro.core.fbarre", "CoalescingAgent.predict_sharer", "core"),
    ("repro.core.fbarre", "CoalescingAgent.handle_peer_request", "core"),
    ("repro.core.translation", "AtsHandler.resolve", "core"),
    ("repro.core.translation", "AtsHandler.deliver_response", "core"),
    ("repro.core.translation", "FBarreHandler.resolve", "core"),
    ("repro.core.translation", "LeastHandler.resolve", "core"),
    ("repro.iommu.iommu", "Iommu.receive", "iommu"),
    ("repro.iommu.iommu", "Iommu._walk_done", "iommu"),
    ("repro.iommu.iommu", "select_next", "iommu"),
    ("repro.iommu.pec", "PecLogic.calculate", "iommu"),
    ("repro.iommu.pec", "PecLogic.sibling_vpns", "iommu"),
    ("repro.iommu.pec", "PecLogic.candidate_vpns", "iommu"),
    ("repro.iommu.pec", "PecLogic.synthesize_fields", "iommu"),
    ("repro.iommu.pec", "PecLogic.record_descriptor", "iommu"),
    ("repro.gmmu.gmmu", "GmmuHandler.resolve", "iommu"),
    ("repro.gpu.mcm", "McmGpuSimulator.__init__", "gpu"),
    ("repro.gpu.mcm", "McmGpuSimulator.run", "gpu"),
    ("repro.gpu.chiplet", "Chiplet.translate", "gpu"),
    ("repro.gpu.chiplet", "Chiplet._after_l1_miss", "gpu"),
    ("repro.gpu.chiplet", "Chiplet._l2_stage", "gpu"),
    ("repro.gpu.chiplet", "Chiplet._l2_miss", "gpu"),
    ("repro.gpu.chiplet", "Chiplet._fill_l1", "gpu"),
    ("repro.gpu.chiplet", "Chiplet._fill_l2", "gpu"),
    ("repro.gpu.stream", "AccessStream.start", "gpu"),
    ("repro.gpu.stream", "AccessStream._try_issue", "gpu"),
    ("repro.gpu.stream", "AccessStream._issue_gap_over", "gpu"),
    ("repro.gpu.stream", "AccessStream._complete", "gpu"),
    ("repro.gpu.memory", "MemoryFabric.access", "gpu"),
    ("repro.migration.acud", "MigrationEngine.note_access", "gpu"),
    ("repro.gpu.mcm", "build_driver", "mapping"),
    ("repro.gpu.mcm", "allocate_workloads", "mapping"),
    ("repro.paging.demand", "DemandPager.handle_fault", "mapping"),
    ("repro.gpu.mcm", "build_access_trace", "workloads"),
    ("repro.workloads.base", "Workload.build_ctas", "workloads"),
    ("repro.experiments.runner", "run_point", "experiments"),
    ("repro.experiments.runner", "run_pair", "experiments"),
    ("repro.experiments.runner", "cached_result", "experiments"),
    ("repro.experiments.runner", "store_point", "experiments"),
    ("repro.experiments.runner", "point_key", "experiments"),
    ("repro.experiments.runner", "_load", "experiments"),
    ("repro.experiments.runner", "_atomic_write", "experiments"),
    ("repro.experiments.sweep", "sweep", "experiments"),
    ("repro.experiments.sweep", "plan_misses", "experiments"),
    # The benchmark's own calibration bursts, which ``repro-sweep`` takes
    # inside ``sweep()``: a pseudo-layer, so they are not charged to the
    # experiments layer.
    ("suites", "calib_burst", "calib"),
)

#: Layers reported as ``<layer>.self_s``.
LAYERS = ("events", "memsim", "filters", "core", "iommu", "gpu", "mapping",
          "workloads", "experiments")

#: Wrapped functions whose inclusive time is reported as a span.
SPANS = {"build_driver": "build.driver", "allocate_workloads": "build.driver",
         "build_access_trace": "build.trace"}

#: Wrapped functions whose per-call durations are kept (percentiles).
SAMPLED = ("point_key", "_load")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class LayerClock:
    """Self time per layer, inclusive time per span, and call counts."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.span_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        # Child-time accumulators of the open wrapped calls; [0] is the root.
        self._stack = [0.0]

    def wrap(self, fn, layer: str, name: str):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        span = SPANS.get(name)
        sample = self.samples[name] if name in SAMPLED else None
        span_s = self.span_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                if span is not None:
                    span_s[span] += elapsed
                if sample is not None:
                    sample.append(elapsed)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Patch every target; call before any simulator is constructed."""
        for module_name, path, layer in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, path))
        owner, attr = _resolve("repro.gpu.mcm", "McmGpuSimulator.__init__")
        built = owner.__dict__[attr]
        self._patched.append((owner, attr, built))
        wrap_lookup = self.wrap

        def init(sim, *args, **kwargs):
            built(sim, *args, **kwargs)
            tlbs = {id(t): t for c in sim.chiplets for t in (*c.l1s, c.l2)}
            for tlb in tlbs.values():
                tlb.lookup = wrap_lookup(tlb.lookup, "memsim", "Tlb.lookup")

        setattr(owner, attr, init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


class Harvest:
    """Exact per-layer counters summed over every simulation that ends."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.sums: defaultdict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.counts.clear()
        self.sums.clear()

    def install(self) -> None:
        owner, attr = _resolve("repro.gpu.mcm", "McmGpuSimulator.run")
        run = owner.__dict__[attr]
        self._patched.append((owner, attr, run))
        harvest = self

        def harvested_run(sim, *args, **kwargs):
            result = run(sim, *args, **kwargs)
            harvest.collect(sim)
            return result

        setattr(owner, attr, harvested_run)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def collect(self, sim) -> None:
        """Add one finished simulator's counters."""
        c, s = self.counts, self.sums
        c["points"] += 1
        c["events_fired"] += sim.queue.events_fired
        c["sim_cycles"] += sim.queue.now
        tlbs = {id(t): t for ch in sim.chiplets for t in (*ch.l1s, ch.l2)}
        for tlb in tlbs.values():
            c["tlb_lookups"] += tlb.stats.count("hits") + tlb.stats.count(
                "misses")
        for l2 in {id(ch.l2): ch.l2 for ch in sim.chiplets}.values():
            c["l2_hits"] += l2.stats.count("hits")
            c["l2_lookups"] += l2.stats.count("hits") + l2.stats.count(
                "misses")
        mshrs = {id(m): m for ch in sim.chiplets
                 for m in (*ch._l1_mshrs, ch.l2_mshr)}
        for mshr in mshrs.values():
            c["mshr_merges"] += mshr.stats.count("merged")
            c["mshr_stalls"] += mshr.stats.count("stalls")
        c["pcie_packets"] += sim.pcie.packets_sent
        links = [sim.pcie.up, sim.pcie.down]
        for mesh in {id(m): m for m in (sim.mesh, sim.sharing_mesh)}.values():
            c["mesh_packets"] += mesh.packets_sent
            n = mesh.num_chiplets
            links.extend(mesh.link(a, b) for a in range(n) for b in range(n)
                         if a != b)
        for link in links:
            s["link_queue_cycles"] += link.stats.sums["queueing"]
        for agent in sim.agents.values():
            st = agent.stats
            c["filter_insert_drops"] += (st.count("lcf_insert_drops")
                                         + st.count("rcf_insert_drops"))
            c["updates_sent"] += st.count("updates_sent")
            c["lcf_hits"] += st.count("lcf_hits")
            c["lcf_false_positives"] += st.count("lcf_false_positives")
        pecs = [agent.pec for agent in sim.agents.values()]
        for chiplet in sim.chiplets:
            st = getattr(chiplet.miss_handler, "stats", None)
            if st is not None:
                c["ats_fallbacks"] += st.count("ats_fallbacks")
                c["remote_attempts"] += st.count("remote_attempts")
                c["remote_hits"] += st.count("remote_hits")
        sources = [sim.iommu] if sim.iommu is not None else list(sim.gmmus)
        for src in sources:
            st = src.stats
            for key in ("ats_requests", "walks", "walk_merges",
                        "pec_coalesced", "pw_queue_overflows"):
                c[key] += st.count(key)
            s["ats_cycles"] += st.sums["processing_time"]
            c["ats_samples"] += st.samples("processing_time")
            pecs.append(src.pec)
        for pec in pecs:
            c["pec_calculations"] += pec.stats.count("calculations")
            c["pec_attempts"] += (pec.stats.count("calculations")
                                  + pec.stats.count("rejections")
                                  + pec.stats.count("descriptor_misses"))
        for stream in sim.streams:
            c["accesses"] += stream.stats.count("issued")
            c["window_stalls"] += stream.stats.count("window_stalls")
        c["pages_mapped"] += sum(len(table) for table in sim.spaces)

    def as_dict(self) -> dict:
        return {"counts": dict(self.counts), "sums": dict(self.sums)}
