"""The batch execution engine: vectorized stages, event-free inner loop.

``BatchSimulator`` advances *batches* of independent translation requests
through numpy-vectorized stages instead of one event at a time:

1. **bulk VPN decode** — the per-chiplet access stream is materialized as
   packed numpy arrays up front (extending the vectorized
   ``build_access_trace`` idiom all the way up the stack);
2. **duplicate collapse** — consecutive same-page accesses of a stream are
   resolved in bulk against the run head (an L1 hit by construction: the
   head's fill lands before the next access in program order);
3. **vectorized set-indexed TLB probes** with per-way tag compare
   (:class:`~repro.batch.vectlb.VectorTlb`) for the per-stream L1s and the
   chiplet L2;
4. **bulk cuckoo-filter fingerprint hashing** for F-Barre's LCF screen
   (:func:`~repro.batch.vectlb.bulk_fingerprint_rows`);
5. **PEC range-contiguity as sorted-array interval queries**
   (:class:`DescriptorIndex`): misses are mapped to coalescing-group
   descriptors with one ``searchsorted`` instead of a per-request buffer
   scan;
6. a **scatter/gather boundary** that drains the irregular residue —
   misses, MSHR-style merges, invalidations, unknown PASIDs — into the
   ordered scalar resolution path the event-queue engine defines, then
   scatters fills back into the vector state.

Semantics: the engine is **stage-synchronous** — probes within one batch
see the state at batch start; LRU refreshes, fills, and filter updates
apply at the batch boundary.  With ``batch_size=1`` every stage holds one
access and the engine degenerates to the event engine's sequential
protocol; the cross-engine suite (``tests/test_batch_engine.py``) pins
exact walk/miss equality there, and oracle-exact (pasid, vpn) → pfn
mappings everywhere.  Cycle-level stats come from an analytic per-stream
window model and carry a documented tolerance (docs/performance.md,
"Batch engine") — mix engines in one figure at your own risk.

Unsupported features (migration, demand paging, GMMU, Valkyrie/Least/
shared-L2 backends, tracing) raise :class:`ConfigError` naming the event
engine — that *is* the drain: configurations the vector stages cannot
express run on the reference engine unchanged.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Sequence

import numpy as np

from repro.common.addresses import PAGE_SIZE_4K
from repro.common.config import BackendKind, SimConfig
from repro.common.errors import ConfigError, TranslationError
from repro.common.stats import Histogram, LatencyHistogram
from repro.core.fbarre import FilterUpdate
from repro.core.translation import FILTER_CHECK_LATENCY, PEER_SERVE_LATENCY
from repro.filters.cuckoo import CuckooFilter
from repro.gpu.mcm import (
    McmGpuSimulator,
    SimResult,
    allocate_workloads,
    build_access_trace,
    build_driver,
)
from repro.iommu.pec import PecLogic
from repro.mapping.coalescing import PecBuffer
from repro.memsim.tlb import TlbEntry
from repro.batch.vectlb import BulkCuckooView, VectorTlb
from repro.workloads.base import Workload

#: Default accesses per batch; large enough that the vector stages
#: amortize, small enough that the stage-synchronous merge window stays
#: in the same ballpark as the event engine's in-flight window.
DEFAULT_BATCH_SIZE = 1024

#: Engines selectable via ``SimConfig.engine`` / ``REPRO_ENGINE``.
ENGINES = ("event", "batch")

#: Environment knob: overrides the default engine for configs that do not
#: pin one explicitly (see :func:`resolve_engine_config`).
ENGINE_ENV_VAR = "REPRO_ENGINE"

_BATCH_BACKENDS = (BackendKind.BASELINE, BackendKind.BARRE,
                   BackendKind.FBARRE)

#: Latency classes for the analytic cycle model (cycles are added to the
#: L1+L2 pipeline latency below).
_SRC_L1 = 0
_SRC_L2 = 1
_SRC_LOCAL = 2
_SRC_PEER = 3
_SRC_WALK = 4


def resolve_engine_config(config: SimConfig,
                          env: dict | None = None) -> SimConfig:
    """Apply the ``REPRO_ENGINE`` override to a default-engine config.

    A config whose ``engine`` differs from the default (``"event"``) is
    considered pinned and wins over the environment.  The override is
    applied *to the config* (not at construction time) so the engine
    always participates in cache keys and key manifests — results
    produced by different engines can never collide in the cache.
    """
    env = os.environ if env is None else env
    override = env.get(ENGINE_ENV_VAR, "").strip()
    if not override or config.engine != "event":
        return config
    if override not in ENGINES:
        raise ConfigError(
            f"{ENGINE_ENV_VAR}={override!r} is not one of {ENGINES}")
    if override == config.engine:
        return config
    return config.replace(engine=override)


def make_simulator(config: SimConfig, workloads: Sequence[Workload],
                   trace_scale: float = 1.0, **kwargs):
    """Engine factory: the one place that maps ``config.engine`` to a class.

    Callers that honour the environment override should pass a config
    through :func:`resolve_engine_config` first (``run_point`` does).
    """
    if config.engine == "batch":
        if kwargs.pop("trace", False):
            raise ConfigError(
                "the batch engine has no tracer; use engine='event' for "
                "span traces")
        if kwargs.pop("check_invariants", False):
            raise ConfigError(
                "the runtime invariant checker instruments the event "
                "engine's structures; use engine='event'")
        return BatchSimulator(config, workloads, trace_scale=trace_scale,
                              **kwargs)
    return McmGpuSimulator(config, workloads, trace_scale=trace_scale,
                           **kwargs)


class DescriptorIndex:
    """Sorted-array interval index over the PEC buffer's descriptors.

    Coalescing-group membership ("is this VPN in the same data range as
    the walked VPN?") is an interval-containment test.  The event engine
    answers it per request with a linear buffer scan; here the descriptor
    ranges are sorted once per pasid and a whole miss batch is resolved
    with one ``searchsorted``.  Data ranges never overlap within a pasid
    (the driver reserves disjoint VPN windows), so the candidate found by
    bisection is the only possible match.
    """

    def __init__(self, pec_buffer: PecBuffer) -> None:
        self._by_pasid: dict[int, tuple[np.ndarray, np.ndarray, list]] = {}
        per_pasid: dict[int, list] = {}
        for desc in pec_buffer:
            per_pasid.setdefault(desc.pasid, []).append(desc)
        for pasid, descs in per_pasid.items():
            descs.sort(key=lambda d: d.start_vpn)
            starts = np.array([d.start_vpn for d in descs], dtype=np.int64)
            ends = np.array([d.end_vpn for d in descs], dtype=np.int64)
            self._by_pasid[pasid] = (starts, ends, descs)

    def lookup_many(self, pasid: int, vpns: np.ndarray) -> list:
        """Descriptor (or None) for each VPN, via one bisection pass."""
        entry = self._by_pasid.get(pasid)
        if entry is None or len(vpns) == 0:
            return [None] * len(vpns)
        starts, ends, descs = entry
        pos = np.searchsorted(starts, vpns, side="right") - 1
        valid = (pos >= 0) & (vpns <= ends[np.clip(pos, 0, None)])
        return [descs[p] if ok else None
                for p, ok in zip(pos.tolist(), valid.tolist())]


class BatchAgent:
    """F-Barre's chiplet-side machinery against vectorized TLB state.

    Mirrors :class:`repro.core.fbarre.CoalescingAgent`: the LCF tracks the
    chiplet's own L2 contents, RCFs track peers' coalescing VPNs, and the
    PEC logic calculates sibling PFNs.  Filter *contents* use the exact
    scalar :class:`CuckooFilter` (kick chains and false positives replay
    bit for bit); only the membership *screen* is vectorized through
    :class:`BulkCuckooView`.  RCF updates propagate at batch granularity
    (the stage-synchronous analog of mesh-delayed best-effort updates).
    """

    def __init__(self, chiplet_id: int, config: SimConfig, l2: VectorTlb,
                 pec: PecLogic, max_merge: int) -> None:
        self.chiplet_id = chiplet_id
        self.pec = pec
        self.l2 = l2
        self.max_merge = max_merge
        self.lcf = CuckooFilter(config.cuckoo)
        self.lcf_view = BulkCuckooView(self.lcf)
        self.rcfs: dict[int, CuckooFilter] = {
            peer: CuckooFilter(config.cuckoo)
            for peer in range(config.num_chiplets) if peer != chiplet_id}
        #: (peer, FilterUpdate) pairs queued until the batch boundary.
        self.outbox: list[tuple[int, FilterUpdate]] = []
        self._send_seq = 0
        self.lcf_hits = 0
        self.lcf_false_positives = 0
        self.updates_sent = 0
        l2.on_insert = self._on_l2_insert
        l2.on_evict = self._on_l2_evict

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
        self.lcf.insert(entry.vpn)
        siblings = self._sibling_vpns(entry)
        self._post("add", entry.pasid, siblings)

    def _on_l2_evict(self, entry: TlbEntry) -> None:
        self.lcf.delete(entry.vpn)
        siblings = self._sibling_vpns(entry)
        self._post("delete", entry.pasid, siblings)

    def _post(self, command: str, pasid: int, siblings: tuple[int, ...]) -> None:
        update = FilterUpdate(command=command, sender=self.chiplet_id,
                              pasid=pasid, vpns=siblings, seq=self._send_seq)
        self._send_seq += 1
        self.outbox.extend((peer, update) for peer in self.rcfs)
        self.updates_sent += len(siblings) * len(self.rcfs)

    def apply_update(self, update: FilterUpdate) -> None:
        rcf = self.rcfs[update.sender]
        for vpn in update.vpns:
            if update.command == "add":
                rcf.insert(vpn)
            else:
                rcf.delete(vpn)

    def try_local(self, pasid: int, vpn: int) -> TlbEntry | None:
        """Local coalesced calculation; LCF screened in bulk.

        Candidate generation and the confirming probe replay the event
        agent exactly; the LCF membership tests for *all* candidates run
        through one vectorized fingerprint-hash pass.
        """
        candidates = [c for c in self.pec.candidate_vpns(
            pasid, vpn, max_merge=self.max_merge) if c != vpn]
        if not candidates:
            return None
        in_lcf = self.lcf_view.contains_many(
            np.asarray(candidates, dtype=np.int64))
        for candidate, present in zip(candidates, in_lcf.tolist()):
            if not present:
                continue
            self.lcf_hits += 1
            sibling = self.l2.entry_for(pasid, candidate)
            if sibling is None or sibling.coal is None:
                self.lcf_false_positives += 1
                continue
            entry = self._calculated_entry(pasid, vpn, sibling)
            if entry is not None:
                return entry
        return None

    def predict_sharer(self, vpn: int) -> int | None:
        for peer in sorted(self.rcfs):
            if self.rcfs[peer].contains(vpn):
                return peer
        return None

    def handle_peer_request(self, pasid: int, vpn: int) -> TlbEntry | None:
        exact = self.l2.entry_for(pasid, vpn)
        if exact is not None:
            return exact
        return self.try_local(pasid, vpn)

    def _calculated_entry(self, pasid: int, vpn: int,
                          sibling: TlbEntry) -> TlbEntry | None:
        if sibling.pec is not None:
            self.pec.record_descriptor(sibling.pec)
        pfn = self.pec.calculate(pasid, sibling.vpn, sibling.coal, vpn)
        if pfn is None:
            return None
        own = self.pec.synthesize_fields(pasid, vpn, sibling.vpn,
                                         sibling.coal)
        return TlbEntry(pasid=pasid, vpn=vpn, global_pfn=pfn, coal=own,
                        pec=sibling.pec)


class _ChipletState:
    """Vectorized translation state of one chiplet."""

    def __init__(self, cid: int, config: SimConfig) -> None:
        self.cid = cid
        self.l1s = [VectorTlb(config.l1_tlb, name=f"l1.{cid}.{s}")
                    for s in range(config.streams_per_chiplet)]
        self.l2 = VectorTlb(config.l2_tlb, name=f"l2.{cid}")
        #: Per-stream duplicate-collapse carry: (pasid, vpn, pfn) of the
        #: stream's previous access, or None.
        self.carry: list[tuple[int, int, int] | None] = [
            None for _ in range(config.streams_per_chiplet)]
        self.agent: BatchAgent | None = None


class BatchSimulator:
    """Vectorized counterpart of :class:`McmGpuSimulator`.

    Shares the driver, allocation, and trace construction with the event
    engine — mappings, CTA placement, and owner-chiplet decisions are
    identical by construction; the engines differ only in how the
    translation machinery advances.  ``run()`` returns a
    :class:`SimResult` with ``extra["engine"] == "batch"``.
    """

    def __init__(self, config: SimConfig, workloads: Sequence[Workload],
                 trace_scale: float = 1.0, *,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 verify_translations: bool = False) -> None:
        if not workloads:
            raise ConfigError("need at least one workload")
        pasids = [w.pasid for w in workloads]
        if len(set(pasids)) != len(pasids):
            raise ConfigError("workloads must use distinct PASIDs")
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        for feature, enabled in (
                ("migration", config.migration.enabled),
                ("demand paging", config.demand_paging),
                ("per-chiplet GMMUs", config.gmmu),
                ("the IOMMU-side TLB", config.iommu.tlb_entries > 0),
                ("oracle sharing", config.oracle_sharing)):
            if enabled:
                raise ConfigError(
                    f"{feature} drains to the event engine; run this "
                    f"configuration with engine='event'")
        if config.backend not in _BATCH_BACKENDS:
            raise ConfigError(
                f"backend {config.backend.value!r} drains to the event "
                f"engine; run it with engine='event'")
        self.config = config
        self.workloads = list(workloads)
        self.trace_scale = trace_scale
        self.batch_size = batch_size
        self.verify_translations = verify_translations
        self.page_scale = config.page_size // PAGE_SIZE_4K
        #: Optional per-access observer ``(chiplet, stream, pasid, vpn,
        #: pfn)`` — same contract as the event engine's, called in the
        #: engine's canonical batch order.
        self.pfn_observer = None

        self.driver = build_driver(config)
        self.spaces = self.driver.spaces
        allocate_workloads(self.driver, self.workloads, self.page_scale)

        self.barre_enabled = config.backend in (BackendKind.BARRE,
                                                BackendKind.FBARRE)
        merge = (config.merged_coal_groups
                 if config.backend is BackendKind.FBARRE else 1)
        #: IOMMU-side PEC logic over the driver's authoritative buffer.
        self.pec = PecLogic(self.driver.pec_buffer,
                            config.memory_map.chiplet_bases,
                            compact_bitmap=self.driver.compact_bitmap,
                            name="batch.pec")
        self.desc_index = DescriptorIndex(self.driver.pec_buffer)

        self.chiplets = [_ChipletState(cid, config)
                         for cid in range(config.num_chiplets)]
        if config.backend is BackendKind.FBARRE:
            for state in self.chiplets:
                chip_pec = PecLogic(
                    PecBuffer(config.pec_buffer_entries),
                    config.memory_map.chiplet_bases,
                    compact_bitmap=self.driver.compact_bitmap,
                    name=f"batch.pec.{state.cid}")
                state.agent = BatchAgent(state.cid, config, state.l2,
                                         chip_pec, merge)

        self._build_streams()
        self._reset_counters()

    # -- construction: bulk VPN decode --------------------------------------

    def _build_streams(self) -> None:
        """Materialize the access trace as per-chiplet packed arrays.

        Bucketization and ordering replay ``McmGpuSimulator._build_streams``
        (CTA ``index % streams_per_chiplet``); the canonical batch order is
        a round-robin interleave of the chiplet's streams — one access per
        live stream per turn — which is the event engine's issue order for
        symmetric streams.
        """
        cfg = self.config
        per_chiplet_ctas = build_access_trace(
            cfg, self.workloads, self.driver, self.page_scale,
            self.trace_scale)
        self.instructions = 0.0
        #: Per (cid): dict of arrays pasid/vpn/sid in canonical order.
        self._chunks: list[dict[str, np.ndarray]] = []
        #: Per (cid, sid): per-stream gap and weight arrays for timing.
        self._stream_gaps: dict[tuple[int, int], np.ndarray] = {}
        for cid in range(cfg.num_chiplets):
            buckets: list[list] = [[] for _ in range(cfg.streams_per_chiplet)]
            for index, accesses in enumerate(per_chiplet_ctas[cid]):
                buckets[index % cfg.streams_per_chiplet].extend(accesses)
            arrays = []
            for sid, accesses in enumerate(buckets):
                n = len(accesses)
                pasid = np.fromiter((a.pasid for a in accesses), np.int64, n)
                vpn = np.fromiter((a.vpn for a in accesses), np.int64, n)
                gap = np.fromiter((a.gap for a in accesses), np.int64, n)
                self.instructions += sum(a.weight for a in accesses)
                self._stream_gaps[(cid, sid)] = gap
                arrays.append((sid, pasid, vpn))
            # Round-robin interleave via length-ranked position keys.
            total = sum(len(p) for _sid, p, _v in arrays)
            pasids = np.zeros(total, dtype=np.int64)
            vpns = np.zeros(total, dtype=np.int64)
            sids = np.zeros(total, dtype=np.int64)
            turn = np.zeros(total, dtype=np.int64)
            offset = 0
            for sid, pasid, vpn in arrays:
                n = len(pasid)
                pasids[offset:offset + n] = pasid
                vpns[offset:offset + n] = vpn
                sids[offset:offset + n] = sid
                turn[offset:offset + n] = np.arange(n, dtype=np.int64)
                offset += n
            order = np.lexsort((sids, turn))
            self._chunks.append({"pasid": pasids[order], "vpn": vpns[order],
                                 "sid": sids[order]})

    def _reset_counters(self) -> None:
        self.walks = 0
        self.walk_merges = 0
        self.pec_coalesced = 0
        self.ats_requests = 0
        self.local_coalesced_hits = 0
        self.remote_attempts = 0
        self.remote_hits = 0
        self.mesh_packets = 0
        self.local_accesses = 0
        self.remote_accesses = 0
        self.vpn_gaps = Histogram()
        self._last_iommu_vpn: int | None = None
        #: Per (cid, sid): latency-class arrays accumulated across batches
        #: for the analytic cycle model.
        self._latencies: dict[tuple[int, int], list[np.ndarray]] = {
            key: [] for key in self._stream_gaps}
        self._chunks_processed = 0

    # -- maintenance (drain boundary) ----------------------------------------

    def invalidate(self, pasid: int, vpn: int) -> None:
        """Drop one translation everywhere, between batches.

        The scatter/gather boundary is the only place TLB state mutates,
        so invalidations are precise: the next batch re-misses and
        re-walks, exactly like the event engine's shootdown path.
        """
        for state in self.chiplets:
            for sid, l1 in enumerate(state.l1s):
                l1.invalidate(pasid, vpn)
                carry = state.carry[sid]
                if carry is not None and carry[0] == pasid \
                        and carry[1] == vpn:
                    state.carry[sid] = None
            state.l2.invalidate(pasid, vpn)

    # -- execution -----------------------------------------------------------

    def run(self) -> SimResult:
        num_batches = max(
            (len(c["vpn"]) + self.batch_size - 1) // self.batch_size
            for c in self._chunks) if self._chunks else 0
        for index in range(num_batches):
            lo = index * self.batch_size
            hi = lo + self.batch_size
            self._run_wave(lo, hi)
        return self._collect()

    def _run_wave(self, lo: int, hi: int) -> None:
        """One batch boundary to the next: probe → resolve → scatter fills."""
        probes = []
        iommu_queue: list[tuple[int, int, int, int]] = []  # pos,cid,pasid,vpn
        for state in self.chiplets:
            arrays = self._chunks[state.cid]
            pasid = arrays["pasid"][lo:hi]
            vpn = arrays["vpn"][lo:hi]
            sid = arrays["sid"][lo:hi]
            outcome = self._probe_stage(state, pasid, vpn, sid)
            probes.append(outcome)
            for pos, p, v in outcome["residue"]:
                iommu_queue.append((pos, state.cid, p, v))
            self._chunks_processed += 1
        responses = self._resolve_stage(iommu_queue)
        for state, outcome in zip(self.chiplets, probes):
            self._scatter_stage(state, outcome, responses)
        # Batch boundary: best-effort RCF updates propagate.
        agents = [s.agent for s in self.chiplets if s.agent is not None]
        for agent in agents:
            for peer, update in agent.outbox:
                self.chiplets[peer].agent.apply_update(update)
                self.mesh_packets += len(update)
            agent.outbox.clear()

    # -- stage 1: vectorized probes ------------------------------------------

    def _probe_stage(self, state: _ChipletState, pasid: np.ndarray,
                     vpn: np.ndarray, sid: np.ndarray) -> dict:
        """Collapse duplicates, probe L1s and the L2, split off the residue.

        Returns the per-access classification plus the irregular residue
        (chiplet-unique L2 misses) for the resolution stage.  Everything
        here reads batch-start TLB state; LRU refreshes commit in place
        (they cannot change hit/miss outcomes within the batch).
        """
        n = len(vpn)
        pfns = np.full(n, -1, dtype=np.int64)
        latency_class = np.full(n, _SRC_L1, dtype=np.int64)
        head_of_run = np.full(n, -1, dtype=np.int64)  # dup → head position
        l2_probe_pos: list[int] = []
        for s in np.unique(sid).tolist():
            mask = sid == s
            pos = np.flatnonzero(mask)
            ps, vs = pasid[pos], vpn[pos]
            # Stage 2: consecutive-duplicate collapse (per stream).
            dup = np.zeros(len(pos), dtype=bool)
            if len(pos) > 1:
                dup[1:] = (vs[1:] == vs[:-1]) & (ps[1:] == ps[:-1])
            carry = state.carry[s]
            if len(pos) and carry is not None and carry[0] == ps[0] \
                    and carry[1] == vs[0]:
                dup[0] = True
                pfns[pos[0]] = carry[2]
            # Propagate each run head's position onto its members.  A run
            # headed by the previous batch's carry uses its own first
            # element as the head (its PFN was just gathered above).
            heads = np.where(dup, 0, pos + 1)
            if len(pos) and dup[0]:
                heads[0] = pos[0] + 1
            heads = np.maximum.accumulate(heads) - 1
            head_of_run[pos] = heads
            if len(pos):
                state.carry[s] = (int(ps[-1]), int(vs[-1]), -1)
            # Stage 3: vectorized L1 probe for run heads only.
            head_pos = pos[~dup]
            hp, hv = pasid[head_pos], vpn[head_pos]
            l1 = state.l1s[s]
            hit, way = l1.probe_many(hp, hv)
            l1.commit_hits(hp, hv, hit, way)
            hit_pos = head_pos[hit]
            pfns[hit_pos] = l1.gather_pfns(hv[hit], way[hit])
            # L1 misses: first instance per key is the stream's primary
            # (goes to L2); repeats within the batch are MSHR merges.
            miss_pos = head_pos[~hit]
            seen: set[tuple[int, int]] = set()
            for p in miss_pos.tolist():
                key = (int(pasid[p]), int(vpn[p]))
                if key in seen:
                    latency_class[p] = _SRC_L2  # merged behind the primary
                    continue
                seen.add(key)
                l2_probe_pos.append(p)
        # Stage 3b: one vectorized set-indexed L2 probe for all streams.
        probe_pos = np.array(sorted(l2_probe_pos), dtype=np.int64)
        l2 = state.l2
        hit, way = l2.probe_many(pasid[probe_pos], vpn[probe_pos])
        l2.commit_hits(pasid[probe_pos], vpn[probe_pos], hit, way)
        l2_hit_pos = probe_pos[hit]
        pfns[l2_hit_pos] = l2.gather_pfns(vpn[l2_hit_pos], way[hit])
        latency_class[l2_hit_pos] = _SRC_L2
        # Scatter/gather boundary, gather half: the residue — chiplet-unique
        # missing keys, in canonical order — drains to ordered resolution.
        residue: list[tuple[int, int, int]] = []
        seen_keys: set[tuple[int, int]] = set()
        for p in probe_pos[~hit].tolist():
            key = (int(pasid[p]), int(vpn[p]))
            latency_class[p] = _SRC_WALK
            if key not in seen_keys:
                seen_keys.add(key)
                residue.append((p, key[0], key[1]))
        return {"pasid": pasid, "vpn": vpn, "sid": sid, "pfns": pfns,
                "latency_class": latency_class, "head_of_run": head_of_run,
                "l2_hit_pos": l2_hit_pos, "probe_pos": probe_pos,
                "residue": residue}

    # -- stage 2: ordered resolution -----------------------------------------

    def _resolve_stage(self, iommu_queue: list[tuple[int, int, int, int]]
                       ) -> dict[tuple[int, tuple[int, int]], tuple]:
        """Resolve the wave's misses: F-Barre intra-MCM paths, then IOMMU.

        Returns ``{(cid, key): (entry, latency_class)}``.  Requests reach
        the IOMMU in canonical wave order (batch position, then chiplet);
        same-key requests in one wave merge like in-flight walks, and
        under Barre a completed walk answers the remaining in-window
        group members through the PEC — with group membership pre-screened
        by the sorted-interval index.
        """
        responses: dict[tuple[int, tuple[int, int]], tuple] = {}
        ats: list[tuple[int, int, int]] = []  # (cid, pasid, vpn) in order
        for pos, cid, pasid, vpn in sorted(iommu_queue):
            state = self.chiplets[cid]
            agent = state.agent
            if agent is not None:
                entry = agent.try_local(pasid, vpn)
                if entry is not None:
                    self.local_coalesced_hits += 1
                    responses[(cid, (pasid, vpn))] = (entry, _SRC_LOCAL)
                    continue
                peer = agent.predict_sharer(vpn)
                if peer is not None:
                    self.remote_attempts += 1
                    self.mesh_packets += 2
                    served = self.chiplets[peer].agent.handle_peer_request(
                        pasid, vpn)
                    if served is not None:
                        self.remote_hits += 1
                        entry = served if served.vpn == vpn else TlbEntry(
                            pasid=pasid, vpn=vpn,
                            global_pfn=served.global_pfn,
                            coal=served.coal, pec=served.pec)
                        responses[(cid, (pasid, vpn))] = (entry, _SRC_PEER)
                        continue
            ats.append((cid, pasid, vpn))
        self._iommu_stage(ats, responses)
        return responses

    def _iommu_stage(self, requests: list[tuple[int, int, int]],
                     responses: dict) -> None:
        """Walk-merge, PEC-coalesce, and walk the wave's ATS residue."""
        self.ats_requests += len(requests)
        pending: deque[tuple[int, int]] = deque()
        requesters: dict[tuple[int, int], list[int]] = {}
        for cid, pasid, vpn in requests:
            if self._last_iommu_vpn is not None:
                self.vpn_gaps.add(abs(vpn - self._last_iommu_vpn))
            self._last_iommu_vpn = vpn
            key = (pasid, vpn)
            if key in requesters:
                self.walk_merges += 1      # merges with the in-wave walk
            else:
                requesters[key] = []
                pending.append(key)
            requesters[key].append(cid)
        window = self.config.iommu.pw_queue_entries
        while pending:
            pasid, vpn = pending.popleft()
            self.walks += 1
            if pasid not in self.spaces:
                raise TranslationError(
                    f"batch translation for unknown PASID {pasid} "
                    f"(VPN {vpn:#x}): no page table registered")
            fields = self.spaces.get(pasid).walk(vpn)
            self._deliver((pasid, vpn), fields.global_pfn, fields,
                          requesters, responses)
            if not (self.barre_enabled
                    and fields.coalesced_under(self.pec.compact_bitmap)
                    and pending):
                continue
            # PEC range-contiguity check as a sorted-interval query: one
            # bisection classifies every in-window pending VPN; only keys
            # inside the walked VPN's data range reach the calculator.
            walked_desc = self.desc_index.lookup_many(
                pasid, np.array([vpn], dtype=np.int64))[0]
            if walked_desc is None:
                continue
            scan = list(pending)[:window]
            vpns = np.array([k[1] for k in scan], dtype=np.int64)
            descs = self.desc_index.lookup_many(pasid, vpns)
            coalesced: set[tuple[int, int]] = set()
            for key, desc in zip(scan, descs):
                if key[0] != pasid or desc is not walked_desc:
                    continue
                pfn = self.pec.calculate(pasid, vpn, fields, key[1])
                if pfn is None:
                    continue
                self.pec_coalesced += 1
                own = self.pec.synthesize_fields(key[0], key[1], vpn,
                                                 fields)
                self._deliver(key, pfn, own, requesters, responses)
                coalesced.add(key)
            if coalesced:
                pending = deque(k for k in pending if k not in coalesced)

    def _deliver(self, key: tuple[int, int], pfn: int, fields,
                 requesters: dict, responses: dict) -> None:
        """Build the ATS-response TlbEntry for every requesting chiplet."""
        coal = fields if (fields is not None and fields.coalesced_under(
            self.pec.compact_bitmap)) else None
        desc = (self.pec.descriptor_for(key[0], key[1])
                if coal is not None else None)
        for cid in requesters[key]:
            entry = TlbEntry(pasid=key[0], vpn=key[1], global_pfn=pfn,
                             coal=coal, pec=desc)
            responses[(cid, key)] = (entry, _SRC_WALK)

    # -- stage 3: scatter ------------------------------------------------------

    def _scatter_stage(self, state: _ChipletState, outcome: dict,
                       responses: dict) -> None:
        """Scatter half of the boundary: fills, delivery, accounting."""
        pasid, vpn, sid = outcome["pasid"], outcome["vpn"], outcome["sid"]
        pfns = outcome["pfns"]
        latency_class = outcome["latency_class"]
        filled: dict[tuple[int, int], TlbEntry] = {}
        # L2 fills first (canonical order), mirroring fill-then-release.
        for pos, p, v in outcome["residue"]:
            entry, src = responses[(state.cid, (p, v))]
            state.l2.fill(entry)
            filled[(p, v)] = entry
            latency_class[pos] = src
        # Then L1 fills for every stream-primary that missed its L1.
        probe_pos = outcome["probe_pos"]
        if len(probe_pos):
            miss_primary = probe_pos[pfns[probe_pos] < 0]
            for pos in miss_primary.tolist():
                key = (int(pasid[pos]), int(vpn[pos]))
                entry = filled[key]
                state.l1s[int(sid[pos])].fill(entry)
                pfns[pos] = entry.global_pfn
            # L2 hits also fill the requesting stream's L1.
            for pos in outcome["l2_hit_pos"].tolist():
                entry = state.l2.entry_for(int(pasid[pos]), int(vpn[pos]))
                if entry is not None:
                    state.l1s[int(sid[pos])].fill(entry)
        # Remaining unresolved positions: L1-MSHR merges behind a primary
        # and duplicate-run members — gather from their head/primary.
        # Every stream primary's PFN is resolved by now, so merges gather
        # from the wave itself, never from post-fill TLB state (a wave's
        # own L2 fills may already have evicted an earlier hit's entry).
        resolved_keys = {(int(pasid[pos]), int(vpn[pos])): int(pfns[pos])
                         for pos in probe_pos.tolist()}
        unresolved = np.flatnonzero(pfns < 0)
        for pos in unresolved.tolist():
            head = int(outcome["head_of_run"][pos])
            if head >= 0 and pfns[head] >= 0:
                pfns[pos] = pfns[head]
                continue
            pfns[pos] = resolved_keys[(int(pasid[pos]), int(vpn[pos]))]
            latency_class[pos] = max(latency_class[pos], _SRC_L2)
        # Refresh the duplicate-collapse carry with real PFNs.
        for s in np.unique(sid).tolist():
            pos = np.flatnonzero(sid == s)
            if len(pos):
                last = int(pos[-1])
                state.carry[s] = (int(pasid[last]), int(vpn[last]),
                                  int(pfns[last]))
        # Data-side accounting: owner chiplet from the PFN window.
        owners = pfns // self.config.frames_per_chiplet
        remote = owners != state.cid
        self.remote_accesses += int(remote.sum())
        self.local_accesses += len(pfns) - int(remote.sum())
        self.mesh_packets += int(remote.sum())
        self._record_latencies(state.cid, sid, latency_class, remote)
        if self.verify_translations:
            for pos in range(len(pfns)):
                expected = self.spaces.get(int(pasid[pos])).walk(
                    int(vpn[pos])).global_pfn
                if int(pfns[pos]) != expected:
                    raise TranslationError(
                        f"wrong batch translation: VPN {int(vpn[pos]):#x} "
                        f"-> {int(pfns[pos]):#x}, page table says "
                        f"{expected:#x}")
        if self.pfn_observer is not None:
            for pos in range(len(pfns)):
                self.pfn_observer(state.cid, int(sid[pos]),
                                  int(pasid[pos]), int(vpn[pos]),
                                  int(pfns[pos]))

    def _record_latencies(self, cid: int, sid: np.ndarray,
                          latency_class: np.ndarray,
                          remote: np.ndarray) -> None:
        cfg = self.config
        l1 = cfg.l1_tlb.lookup_latency
        l12 = l1 + cfg.l2_tlb.lookup_latency
        walk_latency = (l12 + 2 * cfg.pcie.latency
                        + cfg.iommu.walk_latency
                        + (cfg.iommu.tlb_latency if cfg.iommu.tlb_entries
                           else 0))
        lat_by_class = np.array([
            l1,                                              # _SRC_L1
            l12,                                             # _SRC_L2
            l12 + FILTER_CHECK_LATENCY + cfg.l2_tlb.lookup_latency,
            l12 + 2 * cfg.mesh.latency + PEER_SERVE_LATENCY,  # _SRC_PEER
            walk_latency,                                    # _SRC_WALK
        ], dtype=np.int64)
        translation = lat_by_class[latency_class]
        data = cfg.dram_latency + 2 * cfg.mesh.latency * remote
        total = translation + data
        for s in np.unique(sid).tolist():
            mask = sid == s
            self._latencies[(cid, int(s))].append(
                np.stack([translation[mask], total[mask]]))

    # -- collection -----------------------------------------------------------

    def _collect(self) -> SimResult:
        cfg = self.config
        latency_hist = LatencyHistogram()
        cycles = 0
        for key, gaps in self._stream_gaps.items():
            parts = self._latencies[key]
            if parts:
                stacked = np.concatenate(parts, axis=1)
                translation, total = stacked[0], stacked[1]
            else:
                translation = total = np.zeros(0, dtype=np.int64)
            for latency, count in zip(
                    *np.unique(translation, return_counts=True)):
                bucket = int(latency).bit_length()
                latency_hist.buckets[bucket] += int(count)
                latency_hist.sum += int(latency) * int(count)
                latency_hist.max = max(latency_hist.max, int(latency))
            cycles = max(cycles, self._stream_cycles(gaps, total))
        # In the wave model every IOMMU-served request (walk, in-wave merge,
        # PEC calculation) completes at its walk's completion, so the mean
        # IOMMU processing time is the walk latency itself.
        mean_ats = (float(cfg.iommu.walk_latency)
                    if self.ats_requests else 0.0)
        total_accesses = self.local_accesses + self.remote_accesses
        result = SimResult(
            app="+".join(w.abbr for w in self.workloads),
            backend=cfg.backend.value,
            cycles=int(cycles),
            instructions=self.instructions,
            l2_misses=sum(s.l2.misses for s in self.chiplets),
            l2_lookups=sum(s.l2.misses + s.l2.hits for s in self.chiplets),
            ats_requests=self.ats_requests,
            pcie_packets=2 * self.ats_requests,
            mesh_packets=self.mesh_packets,
            walks=self.walks,
            pec_coalesced=self.pec_coalesced,
            mean_ats_time=mean_ats,
            remote_data_fraction=(self.remote_accesses / total_accesses
                                  if total_accesses else 0.0),
            vpn_gaps=self.vpn_gaps,
            translation_latency=latency_hist,
        )
        result.local_coalesced_hits = self.local_coalesced_hits
        result.remote_attempts = self.remote_attempts
        result.remote_hits = self.remote_hits
        for state in self.chiplets:
            if state.agent is not None:
                result.lcf_hits += state.agent.lcf_hits
                result.lcf_false_positives += \
                    state.agent.lcf_false_positives
        result.extra["engine"] = "batch"
        result.extra["batch_size"] = self.batch_size
        result.extra["walk_merges"] = self.walk_merges
        return result

    def _stream_cycles(self, gaps: np.ndarray, total: np.ndarray) -> int:
        """Analytic per-stream runtime: window-limited issue recurrence.

        ``t_complete[i] = max(issue_base[i], t_complete[i - W]) + lat[i]``
        — access *i* cannot issue before its compute gap elapses nor while
        the window is full.  Computed as a scan over ``W``-wide vector
        slices (the residue classes advance together), so the integration
        itself is vectorized.  This models pipelining exactly and ignores
        only shared-resource contention (PCIe/DRAM serialization, walker
        counts), which is the documented cycle-tolerance gap.
        """
        n = len(total)
        if n == 0:
            return 0
        window = self.config.stream_window
        issue_base = np.zeros(n, dtype=np.int64)
        issue_base[1:] = np.cumsum(1 + gaps[:-1])
        if n <= window:
            return int((issue_base + total).max())
        complete = issue_base.astype(np.int64) + total
        for start in range(window, n, window):
            stop = min(start + window, n)
            lag = complete[start - window:stop - window]
            complete[start:stop] = np.maximum(
                issue_base[start:stop], lag[:stop - start]) + total[start:stop]
            # Within a window slice, issues are additionally serialized by
            # their own gaps; the maximum above already dominates when the
            # translation path stalls, so the residual error is bounded by
            # one window of gaps.
        return int(complete.max())
