"""Runtime invariant checker: structural assertions while events fire.

``McmGpuSimulator(..., check_invariants=True)`` installs an
:class:`InvariantChecker` on the freshly built machine.  The checker wraps
per-instance methods of the structural components — it never schedules
events and never mutates simulated state, so a checked run fires the
identical event sequence as an unchecked one (only slower).

Checked invariants:

* **PEC correctness** — every PFN a :class:`~repro.iommu.pec.PecLogic`
  calculates equals what a page-table walk of the pending VPN returns
  (skipped under migration, where in-flight calculations legitimately
  race remaps — the same caveat as ``verify_translations``).
* **Filter honesty** — the F-Barre LCF/RCFs may false-positive but must
  never false-negative for a key whose insert succeeded and which has not
  been deleted since.  Enforced by :class:`CheckedCuckooFilter` shadows.
* **TLB structure** — no set ever exceeds its way count; entries live in
  the set their VPN indexes; occupancy is consistent.
* **MSHR legality** — ``merged`` only for an outstanding key,
  ``primary`` only for a fresh key with capacity left, ``full`` only at
  capacity; releases only for outstanding keys; never over capacity.
* **Remap consistency** — after ``driver.migrate_page`` the migrated PTE
  is uncoalesced and resident on the destination chiplet, and (bitmap
  semantics) no surviving group member's ``coal_bitmap`` still names the
  vacated chiplet.
* **Span partitioning** — every finished trace span's phase intervals
  partition its duration exactly (checked at end of run when tracing).

Violations raise :class:`~repro.common.errors.InvariantViolation`
immediately (fail fast, with cycle and component context).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Sequence

from repro.common.errors import InvariantViolation, TranslationError
from repro.common.stats import StatSet
from repro.common.trace import RecordingTracer
from repro.filters.cuckoo import CuckooFilter, FilterEffect
from repro.memsim.tlb import MshrFile, Tlb

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpu.mcm import McmGpuSimulator

#: Events between periodic structural sweeps of the whole machine.
SWEEP_INTERVAL = 4096


class CheckedCuckooFilter:
    """Shadow-tracking proxy asserting a filter's no-false-negative contract.

    Tracks the exact multiset of keys whose ``insert`` succeeded (dropped
    best-effort inserts are *not* protected — the paper allows them).  Any
    ``contains`` that returns False for a protected key is a violation.

    One subtlety keeps the check sound rather than merely probabilistic:
    deleting a key whose own insert was dropped can remove an *aliasing*
    resident fingerprint (same fingerprint, shared bucket).  That is
    legitimate best-effort behaviour, so the proxy demotes one matching
    protected key to unprotected instead of reporting it later as a false
    negative.
    """

    def __init__(self, inner: CuckooFilter, name: str,
                 stats: StatSet | None = None) -> None:
        self._inner = inner
        self.name = name
        self.stats = stats if stats is not None else StatSet(f"checked.{name}")
        self._protected: Counter[int] = Counter()
        #: key -> (fingerprint, bucket1, bucket2), for alias demotion.
        self._where: dict[int, tuple[int, int, int]] = {}

    # -- the CuckooFilter surface the agent uses ---------------------------

    def insert(self, item: int) -> bool:
        ok = self._inner.insert(item)
        self._note_insert(item, ok)
        return ok

    def delete(self, item: int) -> bool:
        ok = self._inner.delete(item)
        self._note_delete(item, ok)
        return ok

    def apply_batch(self, add: bool, items: Sequence[int], seq: int,
                    effect: FilterEffect | None = None) -> FilterEffect:
        """Stream batch, computed or replayed: the shadow follows the
        recorded per-item outcomes exactly as if each item had gone
        through :meth:`insert`/:meth:`delete`."""
        effect = self._inner.apply_batch(add, items, seq, effect)
        note = self._note_insert if add else self._note_delete
        for item, ok in zip(items, effect.results):
            note(item, ok)
        return effect

    def contains(self, item: int) -> bool:
        present = self._inner.contains(item)
        self.stats.bump("contains_checks")
        if not present and self._protected.get(item, 0) > 0:
            raise InvariantViolation(
                f"filter {self.name}: false negative for resident key "
                f"{item:#x} ({self._protected[item]} protected copies)")
        return present

    def clear(self) -> None:
        self._inner.clear()
        self._protected.clear()
        self._where.clear()

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    # -- shadow bookkeeping -------------------------------------------------

    def _note_insert(self, item: int, ok: bool) -> None:
        if ok:
            self._protected[item] += 1
            self._where[item] = self._inner._candidate_rows(item)

    def _note_delete(self, item: int, ok: bool) -> None:
        if self._protected.get(item, 0) > 0:
            if not ok:
                raise InvariantViolation(
                    f"filter {self.name}: delete({item:#x}) found no "
                    f"fingerprint for a key whose insert succeeded")
            self._unprotect(item)
        elif ok:
            # Removed a fingerprint that was not this key's: an aliasing
            # protected key (if any) just lost its cover.
            self._demote_alias(item)

    def _unprotect(self, item: int) -> None:
        self._protected[item] -= 1
        if not self._protected[item]:
            del self._protected[item]
            self._where.pop(item, None)

    def _demote_alias(self, item: int) -> None:
        fp, i1, i2 = self._inner._candidate_rows(item)
        for key, (kfp, k1, k2) in self._where.items():
            if kfp == fp and {k1, k2} & {i1, i2}:
                self.stats.bump("alias_demotions")
                self._unprotect(key)
                return

    def check_all_resident(self) -> int:
        """Assert every protected key is still found; returns keys checked."""
        for key, count in self._protected.items():
            if count > 0 and not self._inner.contains(key):
                raise InvariantViolation(
                    f"filter {self.name}: resident key {key:#x} vanished "
                    f"(sweep check)")
        self.stats.bump("sweeps")
        return len(self._protected)


class InvariantChecker:
    """Wraps one simulator's structural components with runtime checks."""

    def __init__(self, sim: "McmGpuSimulator",
                 sweep_interval: int = SWEEP_INTERVAL) -> None:
        self.sim = sim
        self.sweep_interval = sweep_interval
        self.stats = StatSet("invariants")
        #: PEC-vs-page-table comparison is racy once PTEs mutate mid-run.
        self.check_pec = (sim.migration is None
                          and not sim.config.demand_paging)
        self._tlbs: list[Tlb] = []
        self._mshrs: list[MshrFile] = []
        self._filters: list[CheckedCuckooFilter] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every structural component; idempotence is not needed —
        the simulator installs exactly once, right after ``_build``."""
        sim = self.sim
        seen_tlbs: set[int] = set()
        seen_mshrs: set[int] = set()
        for chiplet in sim.chiplets:
            for tlb in [*chiplet.l1s, chiplet.l2]:
                if id(tlb) not in seen_tlbs:  # shared-L2 dedup
                    seen_tlbs.add(id(tlb))
                    self._wrap_tlb(tlb)
            for mshr in [*chiplet._l1_mshrs, chiplet.l2_mshr]:
                if id(mshr) not in seen_mshrs:
                    seen_mshrs.add(id(mshr))
                    self._wrap_mshr(mshr)
        pecs = []
        if sim.iommu is not None:
            pecs.append(("iommu", sim.iommu.pec))
        for gmmu in sim.gmmus:
            pecs.append((f"gmmu.{gmmu.chiplet_id}", gmmu.pec))
        for cid, agent in sim.agents.items():
            pecs.append((f"agent.{cid}", agent.pec))
            self._shadow_filters(agent)
        if self.check_pec:
            for label, pec in pecs:
                self._wrap_pec(pec, label)
        self._wrap_driver()
        self._wrap_queue()

    def _shadow_filters(self, agent) -> None:
        cid = agent.chiplet_id
        agent.lcf = CheckedCuckooFilter(agent.lcf, f"lcf.{cid}")
        agent.rcfs = {
            peer: CheckedCuckooFilter(rcf, f"rcf.{cid}<-{peer}")
            for peer, rcf in agent.rcfs.items()}
        self._filters.append(agent.lcf)
        self._filters.extend(agent.rcfs.values())

    # -- per-component wrappers ---------------------------------------------

    def _wrap_tlb(self, tlb: Tlb) -> None:
        self._tlbs.append(tlb)
        orig_insert = tlb.insert

        def insert(entry):
            victim = orig_insert(entry)
            affected = tlb._set_for(entry.vpn)
            if len(affected) > tlb.config.ways:
                raise InvariantViolation(
                    f"{tlb.stats.name}: set holds {len(affected)} entries, "
                    f"ways={tlb.config.ways} (cycle {self.sim.queue.now})")
            self.stats.bump("tlb_insert_checks")
            return victim

        tlb.insert = insert

    def _wrap_mshr(self, mshr: MshrFile) -> None:
        self._mshrs.append(mshr)
        orig_allocate, orig_release = mshr.allocate, mshr.release

        def allocate(key, callback):
            was_pending = mshr.is_pending(key)
            before = mshr.outstanding()
            status = orig_allocate(key, callback)
            legal = {
                "primary": not was_pending and before < mshr.capacity,
                "merged": was_pending,
                "full": not was_pending and before >= mshr.capacity,
            }[status]
            if not legal or mshr.outstanding() > mshr.capacity:
                raise InvariantViolation(
                    f"{mshr.stats.name}: illegal '{status}' for key {key} "
                    f"(pending={was_pending}, outstanding {before}/"
                    f"{mshr.capacity}, cycle {self.sim.queue.now})")
            self.stats.bump("mshr_checks")
            return status

        def release(key, result):
            if not mshr.is_pending(key):
                raise InvariantViolation(
                    f"{mshr.stats.name}: release of key {key} with no "
                    f"outstanding miss (cycle {self.sim.queue.now})")
            orig_release(key, result)
            self.stats.bump("mshr_checks")

        mshr.allocate = allocate
        mshr.release = release

    def _wrap_pec(self, pec, label: str) -> None:
        orig = pec.calculate

        def calculate(pasid, pte_vpn, fields, pending_vpn):
            pfn = orig(pasid, pte_vpn, fields, pending_vpn)
            if pfn is not None:
                try:
                    expected = self.sim.spaces.get(pasid).walk(
                        pending_vpn).global_pfn
                except TranslationError as exc:
                    raise InvariantViolation(
                        f"pec[{label}] calculated PFN {pfn:#x} for unmapped "
                        f"VPN {pending_vpn:#x} (pasid {pasid})") from exc
                if pfn != expected:
                    raise InvariantViolation(
                        f"pec[{label}] calculated PFN {pfn:#x} for VPN "
                        f"{pending_vpn:#x} (pasid {pasid}), page table says "
                        f"{expected:#x} (from sibling PTE {pte_vpn:#x}, "
                        f"cycle {self.sim.queue.now})")
                self.stats.bump("pec_checks")
            return pfn

        pec.calculate = calculate

    def _wrap_driver(self) -> None:
        driver = self.sim.driver
        orig = driver.migrate_page

        def migrate_page(pasid, vpn, dest):
            record = driver.record_for(pasid, vpn)
            old = record.chiplet_by_vpn.get(vpn)
            affected = orig(pasid, vpn, dest)
            if not affected:
                return affected
            table = driver.spaces.get(pasid)
            fields = table.walk(vpn)
            base = driver.memory_map.base_of(dest)
            if not base <= fields.global_pfn < base + driver.memory_map.frames_per_chiplet:
                raise InvariantViolation(
                    f"migrate_page({pasid}, {vpn:#x}, {dest}): new PFN "
                    f"{fields.global_pfn:#x} is not in chiplet {dest}'s range")
            if fields.is_coalesced:
                raise InvariantViolation(
                    f"migrate_page({pasid}, {vpn:#x}, {dest}): migrated "
                    f"page is still marked coalesced")
            if record.chiplet_by_vpn.get(vpn) != dest:
                raise InvariantViolation(
                    f"migrate_page({pasid}, {vpn:#x}, {dest}): ownership "
                    f"record disagrees with the remap")
            if not driver.compact_bitmap and old is not None:
                for member in affected[1:]:
                    m_fields = table.walk(member)
                    if (m_fields.coal_bitmap >> old) & 1:
                        raise InvariantViolation(
                            f"migrate_page({pasid}, {vpn:#x}, {dest}): "
                            f"group member {member:#x} still names vacated "
                            f"chiplet {old} in its coal_bitmap")
            self.stats.bump("remap_checks")
            return affected

        driver.migrate_page = migrate_page

    def _wrap_queue(self) -> None:
        """Install on the event queue: a structural sweep every N events.

        Uses the kernel's ``on_step`` hook; its presence also routes
        ``run()`` through the instrumented per-step path instead of the
        uninstrumented fast loop, so checked runs sweep on schedule.
        """
        queue = self.sim.queue
        interval = self.sweep_interval

        def on_step():
            if queue.events_fired % interval == 0:
                self.sweep()

        queue.on_step = on_step

    # -- whole-machine sweeps -----------------------------------------------

    def sweep(self) -> None:
        """Full structural scan of TLBs, MSHRs, and filter shadows."""
        for tlb in self._tlbs:
            occupancy = 0
            for index, entries in enumerate(tlb._sets):
                if len(entries) > tlb.config.ways:
                    raise InvariantViolation(
                        f"{tlb.stats.name}: set {index} holds "
                        f"{len(entries)} entries, ways={tlb.config.ways}")
                for (pasid, vpn), entry in entries.items():
                    if vpn % tlb.config.sets != index:
                        raise InvariantViolation(
                            f"{tlb.stats.name}: VPN {vpn:#x} filed in set "
                            f"{index}, indexes to {vpn % tlb.config.sets}")
                    if entry.key != (pasid, vpn):
                        raise InvariantViolation(
                            f"{tlb.stats.name}: entry keyed {(pasid, vpn)} "
                            f"carries {entry.key}")
                occupancy += len(entries)
            if occupancy != tlb.occupancy():
                raise InvariantViolation(
                    f"{tlb.stats.name}: occupancy mismatch")
        for mshr in self._mshrs:
            if mshr.outstanding() > mshr.capacity:
                raise InvariantViolation(
                    f"{mshr.stats.name}: {mshr.outstanding()} outstanding "
                    f"exceeds capacity {mshr.capacity}")
        for proxy in self._filters:
            proxy.check_all_resident()
        # The LCF mirrors its L2's exact VPNs: every resident L2 entry whose
        # LCF insert succeeded must still be found (Section V-A2).
        for agent in self.sim.agents.values():
            for entry in agent.l2.entries():
                agent.lcf.contains(entry.vpn)
        self._sweep_dead_pasids()
        self.stats.bump("sweeps")

    def _sweep_dead_pasids(self) -> None:
        """No state of a torn-down PASID may survive its teardown.

        Scans every structure that is keyed by PASID — TLB entries
        (including the IOMMU TLB), MSHR slots, ATS/GMMU handler wait
        queues, PEC-buffer descriptors, and the address-space registry —
        for keys belonging to ``sim.dead_pasids``.  Cuckoo filters are
        keyed by bare VPN and the walkers' in-flight walks die in their
        own dead-PASID guards, so neither is scanned here.
        """
        sim = self.sim
        dead = getattr(sim, "dead_pasids", None)
        if not dead:
            return
        now = sim.queue.now
        for tlb in self._tlbs:
            for entries in tlb._sets:
                for pasid, vpn in entries:
                    if pasid in dead:
                        raise InvariantViolation(
                            f"{tlb.stats.name}: entry ({pasid}, {vpn:#x}) "
                            f"survived PASID teardown (cycle {now})")
        iommu_tlb = sim.iommu._tlb if sim.iommu is not None else None
        if iommu_tlb is not None:
            for entries in iommu_tlb._sets:
                for pasid, vpn in entries:
                    if pasid in dead:
                        raise InvariantViolation(
                            f"{iommu_tlb.stats.name}: entry ({pasid}, "
                            f"{vpn:#x}) survived PASID teardown (cycle {now})")
        for mshr in self._mshrs:
            for key in mshr._slots:
                if isinstance(key, tuple) and key and key[0] in dead:
                    raise InvariantViolation(
                        f"{mshr.stats.name}: slot {key} survived PASID "
                        f"teardown (cycle {now})")
        for handler in sim._ats_handlers.values():
            for pasid, vpn in handler._waiting:
                if pasid in dead:
                    raise InvariantViolation(
                        f"ats.{handler.chiplet_id}: waiter ({pasid}, "
                        f"{vpn:#x}) survived PASID teardown (cycle {now})")
        for handler in sim._gmmu_handlers:
            for pasid, vpn in handler._waiting:
                if pasid in dead:
                    raise InvariantViolation(
                        f"gmmu-handler.{handler.chiplet_id}: waiter "
                        f"({pasid}, {vpn:#x}) survived PASID teardown "
                        f"(cycle {now})")
        buffers = [("driver", sim.driver.pec_buffer)]
        buffers += [(f"agent.{cid}", agent.pec.pec_buffer)
                    for cid, agent in sim.agents.items()]
        for label, buffer in buffers:
            for desc in buffer._entries:
                if desc.pasid in dead:
                    raise InvariantViolation(
                        f"pec buffer [{label}]: descriptor for dead PASID "
                        f"{desc.pasid} survived teardown (cycle {now})")
        for pasid in dead:
            if pasid in sim.spaces:
                raise InvariantViolation(
                    f"page table of dead PASID {pasid} still registered "
                    f"(cycle {now})")
        self.stats.bump("teardown_sweeps")

    def verify_end_of_run(self) -> None:
        """Drained-machine checks: run by ``McmGpuSimulator.run``."""
        self.sweep()
        for mshr in self._mshrs:
            if mshr.outstanding():
                raise InvariantViolation(
                    f"{mshr.stats.name}: {mshr.outstanding()} misses still "
                    f"outstanding after the run drained")
        tracer = self.sim.tracer
        dead = getattr(self.sim, "dead_pasids", frozenset())
        if isinstance(tracer, RecordingTracer):
            for span in tracer.spans:
                if span.pasid in dead:
                    continue  # teardown legitimately abandons open spans
                if span.end is None:
                    raise InvariantViolation(
                        f"span {span.span_id} (pasid {span.pasid}, vpn "
                        f"{span.vpn:#x}) never closed")
                covered = sum(c for _p, _s, c in span.intervals())
                if covered != span.duration:
                    raise InvariantViolation(
                        f"span {span.span_id}: intervals cover {covered} "
                        f"cycles of a {span.duration}-cycle span")
                cycles = [cycle for cycle, _phase in span.events]
                if (cycles != sorted(cycles) or cycles[0] != span.start
                        or cycles[-1] > span.end):
                    raise InvariantViolation(
                        f"span {span.span_id}: stamps not monotonic within "
                        f"[{span.start}, {span.end}]: {cycles}")
            self.stats.bump("span_checks", len(tracer.spans))
