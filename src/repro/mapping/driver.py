"""GPU driver model: virtual allocation + Barre's mapping enforcement.

``GpuDriver.malloc`` is the paper's modified LASP malloc (Section IV-G):

1. the mapping policy picks interleave granularity and chiplet order;
2. for each coalescing group, the driver searches for a local PFN that is
   free on *every* sharer chiplet and maps all members to it;
3. with contiguity-aware expansion enabled, it first tries runs of
   consecutive common-free PFNs and emits merged groups (Section V-B);
4. when no common PFN exists, it falls back to the default per-chiplet
   allocation (no coalescing bits) — exactly the paper's fallback.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field

from repro.common.config import MemoryMap
from repro.common.errors import AllocationError, ConfigError, InvariantViolation
from repro.mapping.allocator import FrameAllocatorGroup
from repro.mapping.coalescing import DataDescriptor, PecBuffer
from repro.mapping.policies import AllocationRequest, MappingPolicy, PlacementPlan
from repro.memsim.page_table import AddressSpaceRegistry
from repro.memsim.pte import (
    MAX_CHIPLETS_EXTENDED,
    MAX_CHIPLETS_STANDARD,
    MAX_MERGED_GROUPS,
    PFN_MASK,
    PFN_SHIFT,
    PteFields,
    encode_pte,
)

#: Gap between consecutive data objects in virtual space, so VPN arithmetic
#: can never accidentally cross data boundaries.
_VA_GAP_PAGES = 64


@dataclass
class AllocatedData:
    """The driver's record of one mapped data object."""

    request: AllocationRequest
    plan: PlacementPlan
    start_vpn: int
    end_vpn: int
    descriptor: DataDescriptor | None
    #: vpn -> owning chiplet (for data-access locality modelling).
    chiplet_by_vpn: dict[int, int] = field(default_factory=dict)
    #: Number of pages that landed in a coalescing group of >= 2 members.
    coalesced_pages: int = 0
    #: Number of pages allocated through the fallback path.
    fallback_pages: int = 0

    @property
    def num_pages(self) -> int:
        return self.end_vpn - self.start_vpn + 1


class GpuDriver:
    """Allocates virtual ranges, maps frames, writes PTEs, fills PEC buffer."""

    def __init__(self, memory_map: MemoryMap, allocators: FrameAllocatorGroup,
                 spaces: AddressSpaceRegistry, policy: MappingPolicy, *,
                 barre_enabled: bool = False, merge_max: int = 1,
                 pec_buffer_entries: int = 5) -> None:
        if merge_max < 1:
            raise ConfigError("merge_max must be >= 1")
        self.memory_map = memory_map
        self.allocators = allocators
        self.spaces = spaces
        self.policy = policy
        self.barre_enabled = barre_enabled
        self.merge_max = merge_max
        self.extended_ptes = merge_max > 1
        num_chiplets = memory_map.num_chiplets
        self.compact_bitmap = num_chiplets > MAX_CHIPLETS_STANDARD
        if self.extended_ptes and num_chiplets > MAX_CHIPLETS_EXTENDED:
            raise ConfigError(
                f"contiguity-aware Barre Chord supports up to "
                f"{MAX_CHIPLETS_EXTENDED} chiplets (Section VI), got {num_chiplets}")
        if merge_max > MAX_MERGED_GROUPS:
            raise ConfigError(
                f"at most {MAX_MERGED_GROUPS} merged groups fit in the PTE")
        if num_chiplets * memory_map.frames_per_chiplet > PFN_MASK + 1:
            raise ConfigError("global PFNs exceed the PTE's 40-bit PFN field")
        self._bases = memory_map.chiplet_bases
        #: Raw PTE per (coal_bitmap, inter, intra, merged) layout with PFN 0,
        #: validated once through PteFields; see :meth:`_pte`.
        self._pte_templates: dict[tuple[int, int, int, int], int] = {}
        #: IOMMU-side PEC buffer, filled as data is allocated (Section IV-G).
        self.pec_buffer = PecBuffer(pec_buffer_entries)
        self.data: dict[tuple[int, int], AllocatedData] = {}
        self._next_vpn: dict[int, int] = {}

    # -- virtual space -----------------------------------------------------

    def _reserve_vpns(self, pasid: int, pages: int) -> int:
        start = self._next_vpn.get(pasid, _VA_GAP_PAGES)
        self._next_vpn[pasid] = start + pages + _VA_GAP_PAGES
        return start

    def _page_table(self, pasid: int):
        if pasid in self.spaces:
            return self.spaces.get(pasid)
        return self.spaces.create(pasid, extended_ptes=self.extended_ptes)

    # -- allocation --------------------------------------------------------

    def malloc(self, request: AllocationRequest) -> AllocatedData:
        """Map one data object; the coalescing-enforced path when enabled."""
        key = (request.pasid, request.data_id)
        if key in self.data:
            raise AllocationError(f"data {key} already allocated")
        plan = self.policy.place(request)
        start_vpn = self._reserve_vpns(request.pasid, request.pages)
        end_vpn = start_vpn + request.pages - 1
        descriptor = None
        if self.barre_enabled:
            descriptor = DataDescriptor(
                data_id=request.data_id, pasid=request.pasid,
                start_vpn=start_vpn, end_vpn=end_vpn,
                interlv_gran=plan.interlv_gran,
                gpu_map=plan.gpu_map[:MAX_CHIPLETS_STANDARD]
                if not self.compact_bitmap else plan.gpu_map)
        record = AllocatedData(request=request, plan=plan, start_vpn=start_vpn,
                               end_vpn=end_vpn, descriptor=descriptor)
        if self.barre_enabled:
            ptes = self._map_coalesced(record)
            self.pec_buffer.insert(descriptor)
        else:
            ptes = self._map_individually(record)
        self._page_table(request.pasid).map_many(ptes, self.extended_ptes)
        self.data[key] = record
        return record

    def malloc_lazy(self, request: AllocationRequest) -> AllocatedData:
        """Reserve virtual space without mapping frames (on-demand paging).

        Section VI: Barre integrates with on-demand paging by fetching and
        evicting *in units of coalescing groups*.  Pages are materialized by
        :meth:`fault_in` on first touch; with Barre enabled a single fault
        maps the whole coalescing group.
        """
        key = (request.pasid, request.data_id)
        if key in self.data:
            raise AllocationError(f"data {key} already allocated")
        plan = self.policy.place(request)
        start_vpn = self._reserve_vpns(request.pasid, request.pages)
        end_vpn = start_vpn + request.pages - 1
        descriptor = None
        if self.barre_enabled:
            descriptor = DataDescriptor(
                data_id=request.data_id, pasid=request.pasid,
                start_vpn=start_vpn, end_vpn=end_vpn,
                interlv_gran=plan.interlv_gran,
                gpu_map=plan.gpu_map[:MAX_CHIPLETS_STANDARD]
                if not self.compact_bitmap else plan.gpu_map)
            self.pec_buffer.insert(descriptor)
        self._page_table(request.pasid)  # ensure the table exists
        record = AllocatedData(request=request, plan=plan, start_vpn=start_vpn,
                               end_vpn=end_vpn, descriptor=descriptor)
        self.data[key] = record
        return record

    def fault_in(self, pasid: int, vpn: int) -> list[int]:
        """Materialize a faulting page; group-granular under Barre.

        Returns the VPNs mapped by this fault (the whole coalescing group
        when Barre's enforcement holds, else just ``vpn``).  Idempotent: an
        already-mapped VPN returns an empty list.
        """
        record = self.record_for(pasid, vpn)
        table = self._page_table(pasid)
        if table.is_mapped(vpn):
            return []
        desc = record.descriptor
        ptes: dict[int, int] = {}
        if desc is None:
            chiplet = record.plan.chiplet_of_offset(vpn - record.start_vpn)
            ptes[vpn] = self._pte(chiplet,
                                  self.allocators[chiplet].allocate_any())
            record.chiplet_by_vpn[vpn] = chiplet
            record.fallback_pages += 1
        else:
            rnd, _inter, intra = desc.position(vpn)
            members = [(j, m) for j, m in self._group_members(desc, rnd, intra)
                       if not table.is_mapped(m)]
            self._map_single_group(record, rnd, intra, members, ptes)
        table.map_many(ptes, self.extended_ptes)
        return list(ptes)

    def _pte(self, chiplet: int, local_pfn: int, coal_bitmap: int = 0,
             inter: int = 0, intra: int = 0, merged: int = 1) -> int:
        """Raw PTE of a frame: its layout's cached template ORed with the PFN."""
        key = (coal_bitmap, inter, intra, merged)
        template = self._pte_templates.get(key)
        if template is None:
            template = self._pte_templates[key] = encode_pte(PteFields(
                present=True, global_pfn=0, coal_bitmap=coal_bitmap,
                inter_gpu_coal_order=inter, intra_gpu_coal_order=intra,
                merged_groups=merged, extended=self.extended_ptes))
        return template | (self._bases[chiplet] + local_pfn) << PFN_SHIFT

    def _map_individually(self, record: AllocatedData) -> dict[int, int]:
        """Default driver path: each page gets any free local frame."""
        owners = [record.plan.chiplet_of_offset(offset)
                  for offset in range(record.num_pages)]
        frames = {chiplet: iter(self.allocators[chiplet].allocate_many(count))
                  for chiplet, count in Counter(owners).items()}
        ptes = {vpn: self._pte(chiplet, next(frames[chiplet]))
                for vpn, chiplet in enumerate(owners, record.start_vpn)}
        record.chiplet_by_vpn.update(zip(ptes, owners))
        record.fallback_pages += len(owners)
        return ptes

    def _map_coalesced(self, record: AllocatedData) -> dict[int, int]:
        """Barre enforcement: same local PFN across sharers per group."""
        desc = record.descriptor
        if desc is None:
            raise InvariantViolation(
                f"coalesced mapping of data {record.request.data_id} "
                f"(pasid {record.request.pasid}) without a descriptor")
        gran = desc.interlv_gran
        rounds = -(-record.num_pages // desc.round_pages)
        ptes: dict[int, int] = {}
        for rnd in range(rounds):
            intra = 0
            while intra < gran:
                members = self._group_members(desc, rnd, intra)
                if not members:
                    break
                run = self._mergeable_run(desc, record, rnd, intra)
                if run > 1:
                    self._map_merged_run(record, rnd, intra, run, ptes)
                    intra += run
                    continue
                self._map_single_group(record, rnd, intra, members, ptes)
                intra += 1
        return ptes

    def _group_members(self, desc: DataDescriptor, rnd: int,
                       intra: int) -> list[tuple[int, int]]:
        """Existing (inter_order, vpn) pairs of group (rnd, intra).

        Member ``j`` sits at ``vpn_at(rnd, j, intra)``, one interleave
        chunk after member ``j - 1``; the group ends at the data's end.
        """
        vpns = range(desc.vpn_at(rnd, 0, intra), desc.end_vpn + 1,
                     desc.interlv_gran)
        return list(enumerate(vpns[:desc.num_sharers]))

    def _mergeable_run(self, desc: DataDescriptor, record: AllocatedData,
                       rnd: int, intra: int) -> int:
        """Longest merged run starting at ``intra`` that can be allocated.

        Requires the extended layout, a full group at every covered intra
        offset, and a run of consecutive common-free PFNs.
        """
        if not self.extended_ptes:
            return 1
        max_run = min(self.merge_max, desc.interlv_gran - intra)
        full = 0
        for step in range(max_run):
            members = self._group_members(desc, rnd, intra + step)
            if len(members) != desc.num_sharers:
                break
            full += 1
        sharers = tuple(desc.gpu_map)
        for run in range(full, 1, -1):
            if self.allocators.find_common_free_run(sharers, run) is not None:
                return run
        return 1

    def _map_merged_run(self, record: AllocatedData, rnd: int, intra: int,
                        run: int, ptes: dict[int, int]) -> None:
        desc = record.descriptor
        if desc is None:
            raise InvariantViolation(
                f"merged-run mapping of data {record.request.data_id} "
                f"(pasid {record.request.pasid}) without a descriptor")
        sharers = tuple(desc.gpu_map)
        base_pfn = self.allocators.find_common_free_run(sharers, run)
        if base_pfn is None:
            # _mergeable_run found this run moments ago; losing it means
            # the allocators mutated between the probe and the commit.
            raise InvariantViolation(
                f"common-free run of {run} on chiplets {sharers} vanished "
                f"between probe and allocation (data "
                f"{record.request.data_id}, round {rnd}, intra {intra})")
        bitmap = self._bitmap_for(desc, sharers)
        for offset in range(run):
            self.allocators.allocate_common(sharers, base_pfn + offset)
        for j, chiplet in enumerate(desc.gpu_map):
            first = desc.vpn_at(rnd, j, intra)
            for i in range(run):
                ptes[first + i] = self._pte(chiplet, base_pfn + i, bitmap,
                                            j, i, run)
                record.chiplet_by_vpn[first + i] = chiplet
        record.coalesced_pages += run * len(desc.gpu_map)

    def _map_single_group(self, record: AllocatedData, rnd: int, intra: int,
                          members: list[tuple[int, int]],
                          ptes: dict[int, int]) -> None:
        desc = record.descriptor
        if desc is None:
            raise InvariantViolation(
                f"group mapping of data {record.request.data_id} "
                f"(pasid {record.request.pasid}) without a descriptor")
        sharers = tuple(desc.gpu_map[j] for j, _vpn in members)
        local_pfn = (self.allocators.find_common_free(sharers)
                     if len(members) > 1 else None)
        if local_pfn is None:
            # Fallback: map the members individually (Section IV-G).
            for j, vpn in members:
                chiplet = desc.gpu_map[j]
                ptes[vpn] = self._pte(chiplet,
                                      self.allocators[chiplet].allocate_any())
                record.chiplet_by_vpn[vpn] = chiplet
            record.fallback_pages += len(members)
            return
        self.allocators.allocate_common(sharers, local_pfn)
        bitmap = self._bitmap_for(desc, sharers)
        for j, vpn in members:
            chiplet = desc.gpu_map[j]
            ptes[vpn] = self._pte(chiplet, local_pfn, bitmap,
                                  min(j, 7) if self.compact_bitmap else j)
            record.chiplet_by_vpn[vpn] = chiplet
        record.coalesced_pages += len(members)

    def _bitmap_for(self, desc: DataDescriptor,
                    sharers: tuple[int, ...]) -> int:
        """PTE coal_bitmap: chiplet mask, or sharer count when compact.

        The compact (count) representation is the Section VI scalability
        configuration for MCM-GPUs with more than 8 chiplets.
        """
        if self.compact_bitmap:
            return len(sharers)
        bitmap = 0
        for chiplet in sharers:
            bitmap |= 1 << chiplet
        return bitmap

    # -- teardown / migration support ---------------------------------------

    def free(self, pasid: int, data_id: int) -> None:
        """Unmap a data object and release its frames.

        Iterates the *materialized* pages (``chiplet_by_vpn``), not the
        whole VPN range: a lazily-allocated object may have faulted in only
        some of its pages, and walking an unmapped VPN would raise.
        """
        record = self.data.pop((pasid, data_id))
        table = self.spaces.get(pasid)
        for vpn, chiplet in record.chiplet_by_vpn.items():
            fields = table.walk(vpn)
            local_pfn = fields.global_pfn - self.memory_map.base_of(chiplet)
            table.unmap(vpn)
            self.allocators[chiplet].release(local_pfn)
        self.allocators.reset_hints()

    def destroy_pasid(self, pasid: int) -> int:
        """Tear down one address space: free its data, drop its PEC
        descriptors, forget its VA cursor, unregister its page table.

        Returns the number of data objects freed.  The caller (simulator
        teardown path) is responsible for invalidating cached translation
        state — TLBs, MSHRs, in-flight walks — which lives outside the
        driver.
        """
        data_ids = [d for (p, d) in self.data if p == pasid]
        for data_id in data_ids:
            self.free(pasid, data_id)
        self.pec_buffer.remove_pasid(pasid)
        self._next_vpn.pop(pasid, None)
        if pasid in self.spaces:
            self.spaces.destroy(pasid)
        return len(data_ids)

    def chiplet_of(self, pasid: int, vpn: int) -> int:
        """Owning chiplet of a VPN (data-access locality model).

        Falls back to the placement plan for not-yet-faulted lazy pages
        (their eventual home under Barre enforcement).
        """
        record = self.record_for(pasid, vpn)
        chiplet = record.chiplet_by_vpn.get(vpn)
        if chiplet is None:
            return record.plan.chiplet_of_offset(vpn - record.start_vpn)
        return chiplet

    def record_for(self, pasid: int, vpn: int) -> AllocatedData:
        """The allocation record containing a VPN."""
        for record in self.data.values():
            if record.request.pasid == pasid and record.start_vpn <= vpn <= record.end_vpn:
                return record
        raise AllocationError(f"VPN {vpn:#x} (pasid {pasid}) not allocated")

    def migrate_page(self, pasid: int, vpn: int, dest: int) -> list[int]:
        """Move one page to ``dest`` and exclude it from its group.

        The migrated page becomes uncoalesced at its new home; its former
        group members' PTEs drop the migrated chiplet from their coal_bitmap
        ("we reset coal_bitmap to exclude the page", Section VI).  Returns
        every VPN whose PTE changed, so the caller can shoot down stale TLB
        entries.
        """
        if not 0 <= dest < self.memory_map.num_chiplets:
            raise ConfigError(f"migrate_page: no chiplet {dest}")
        record = self.record_for(pasid, vpn)
        old_chiplet = record.chiplet_by_vpn.get(vpn)
        if old_chiplet is None:
            # Covers lazily-allocated pages that were never faulted in.
            raise AllocationError(
                f"migrate_page: VPN {vpn:#x} (pasid {pasid}) has no "
                f"materialized frame to migrate")
        table = self.spaces.get(pasid)
        fields = table.walk(vpn)
        if old_chiplet == dest:
            return []
        affected = [vpn]
        if fields.is_coalesced and record.descriptor is not None:
            from repro.mapping.coalescing import merged_group_vpns
            if self.compact_bitmap:
                # Count semantics cannot drop an interior member; demote the
                # whole group instead (conservative, correctness first).
                for member in merged_group_vpns(record.descriptor, vpn, fields):
                    if member == vpn:
                        continue
                    m_fields = table.walk(member)
                    table.map(member, dataclasses.replace(
                        m_fields, coal_bitmap=0, inter_gpu_coal_order=0,
                        intra_gpu_coal_order=0, merged_groups=1))
                    affected.append(member)
            else:
                for member in merged_group_vpns(record.descriptor, vpn, fields):
                    if member == vpn:
                        continue
                    m_fields = table.walk(member)
                    if not m_fields.coal_bitmap >> old_chiplet & 1:
                        continue  # already excluded (e.g. itself migrated)
                    table.map(member, dataclasses.replace(
                        m_fields,
                        coal_bitmap=m_fields.coal_bitmap & ~(1 << old_chiplet)))
                    affected.append(member)
        old_local = fields.global_pfn - self.memory_map.base_of(old_chiplet)
        new_local = self.allocators[dest].allocate_any()
        self.allocators[old_chiplet].release(old_local)
        self.allocators.reset_hints()
        table.map_many({vpn: self._pte(dest, new_local)}, self.extended_ptes)
        record.chiplet_by_vpn[vpn] = dest
        return affected
