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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Gap between consecutive data objects in virtual space, so VPN arithmetic
#: can never accidentally cross data boundaries.
_VA_GAP_PAGES = 64

#: Radix that packs a page's (inter, intra, merged) layout into one code:
#: intra offsets and merged-group counts both stay below it.
_LAYOUTS = MAX_MERGED_GROUPS + 1


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
        import numpy as np
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
        self._bases = np.array(memory_map.chiplet_bases, dtype=np.int64)
        #: Raw PTE per (coal_bitmap, inter, intra, merged) layout with PFN 0,
        #: validated once through PteFields; see :meth:`_template`.
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
        import numpy as np
        record = self.record_for(pasid, vpn)
        table = self._page_table(pasid)
        if table.is_mapped(vpn):
            return []
        desc = record.descriptor
        if desc is None:
            chiplet = record.plan.chiplet_of_offset(vpn - record.start_vpn)
            ptes = self._encode(record, np.array([vpn]), np.array([chiplet]),
                                self.allocators[chiplet].allocate_any(),
                                self._template())
            record.fallback_pages += 1
        else:
            members = [(j, m) for j, m in enumerate(desc.group_vpns(vpn))
                       if not table.is_mapped(m)]
            inters = np.array([j for j, _m in members])
            vpns = np.array([m for _j, m in members])
            sharers = tuple(desc.gpu_map[j] for j, _m in members)
            local_pfn = (self.allocators.find_common_free(sharers)
                         if len(members) > 1 else None)
            if local_pfn is None:
                # Fallback: map the members individually (Section IV-G).
                frames = [self.allocators[c].allocate_any() for c in sharers]
                ptes = self._encode(record, vpns, np.array(sharers),
                                    np.array(frames), self._template())
                record.fallback_pages += len(members)
            else:
                self.allocators.allocate_common(sharers, local_pfn)
                ptes = self._encode(record, vpns, np.array(sharers),
                                    local_pfn,
                                    self._group_templates(inters, sharers))
                record.coalesced_pages += len(members)
        table.map_many(ptes, self.extended_ptes)
        return list(ptes)

    def _template(self, coal_bitmap: int = 0, inter: int = 0, intra: int = 0,
                  merged: int = 1) -> int:
        """Raw PTE of one layout with PFN 0, validated once through
        :class:`PteFields` and cached; a page's PTE ORs in its PFN."""
        key = (coal_bitmap, inter, intra, merged)
        template = self._pte_templates.get(key)
        if template is None:
            template = self._pte_templates[key] = encode_pte(PteFields(
                present=True, global_pfn=0, coal_bitmap=coal_bitmap,
                inter_gpu_coal_order=inter, intra_gpu_coal_order=intra,
                merged_groups=merged, extended=self.extended_ptes))
        return template

    def _encode(self, record: AllocatedData, vpns: np.ndarray,
                chiplets: np.ndarray, local_pfns, templates) -> dict[int, int]:
        """The PTEs of pages ``vpns``, in mapping order: frame
        ``local_pfns`` of chiplet ``chiplets`` ORed into ``templates``.

        Records each page's owner in ``record.chiplet_by_vpn`` in the same
        order.  ``local_pfns`` and ``templates`` may be scalars.
        """
        raw = templates | (self._bases[chiplets] + local_pfns) << PFN_SHIFT
        vpn_list = vpns.tolist()
        record.chiplet_by_vpn.update(zip(vpn_list, chiplets.tolist()))
        return dict(zip(vpn_list, raw.tolist()))

    def _group_templates(self, inters: np.ndarray, sharers: tuple[int, ...],
                         intras=0, merged=1) -> np.ndarray:
        """Templates of coalesced pages at inter orders ``inters`` of a
        group over ``sharers`` (and, merged, at ``intras`` of ``merged``
        groups): the group encoder of both ``malloc`` and ``fault_in``."""
        import numpy as np
        bitmap = self._bitmap_for(sharers)
        if self.compact_bitmap:
            inters = np.minimum(inters, 7)
        # One template per distinct (inter, intra, merged) layout.
        codes = (inters * _LAYOUTS + intras) * _LAYOUTS + merged
        keys, index = np.unique(codes, return_inverse=True)
        table = [self._template(bitmap, code // _LAYOUTS ** 2,
                                code // _LAYOUTS % _LAYOUTS, code % _LAYOUTS)
                 for code in keys.tolist()]
        return np.array(table, dtype=np.int64)[index]

    def _map_individually(self, record: AllocatedData) -> dict[int, int]:
        """Default driver path: each page gets the lowest free local frame
        of its owner, pages taking their owner's frames in VPN order."""
        import numpy as np
        plan = record.plan
        offsets = np.arange(record.num_pages)
        owners = np.array(plan.gpu_map)[
            offsets % (plan.interlv_gran * len(plan.gpu_map))
            // plan.interlv_gran]
        local = np.empty_like(offsets)
        for chiplet in plan.gpu_map:
            mine = owners == chiplet
            count = int(np.count_nonzero(mine))
            if count:
                local[mine] = self.allocators[chiplet].allocate_many(count)
        record.fallback_pages += record.num_pages
        return self._encode(record, offsets + record.start_vpn, owners,
                            local, self._template())

    def _map_coalesced(self, record: AllocatedData) -> dict[int, int]:
        """Barre enforcement (Section IV-G) in one pass over the data.

        Groups are mapped in order, round by round and intra offset by
        intra offset.  Consecutive groups with the same member count form a
        stretch: every full group, then the shrinking groups of a partial
        last round.  Each stretch ANDs its sharers' free maps once and takes
        each group's frame from that byte map: the lowest common-free frame
        left or, with contiguity-aware expansion (Section V-B), first the
        longest run of them that its round still has full groups for.
        When the map runs dry, the stretch's remaining groups fall back to
        per-member frames.
        """
        import numpy as np
        desc = record.descriptor
        if desc is None:
            raise InvariantViolation(
                f"coalesced mapping of data {record.request.data_id} "
                f"(pasid {record.request.pasid}) without a descriptor")
        gran, sharers = desc.interlv_gran, desc.gpu_map
        pages, round_pages = record.num_pages, desc.round_pages
        rounds, rest = divmod(pages, round_pages)
        # Group g is (round g // gran, intra g % gran): its first page's
        # offset and its member count (non-increasing in g).
        groups = np.arange(rounds * gran + min(gran, rest))
        firsts = groups // gran * round_pages + groups % gran
        members = np.minimum(len(sharers), -((firsts - pages) // gran))
        # Full groups of the partial last round: a prefix of it.
        last_full = max(0, min(gran, rest - (len(sharers) - 1) * gran))
        ptes: dict[int, int] = {}
        bounds = [0, *(np.flatnonzero(np.diff(members)) + 1).tolist(),
                  len(groups)]
        for start, stop in zip(bounds, bounds[1:]):
            count = int(members[start])
            group_sharers = sharers[:count]
            merging = self.merge_max > 1 and count == len(sharers)
            heads, pfns, runs = self._claim_groups(
                group_sharers, start, stop, gran, rounds, last_full, merging)
            claimed = int(runs.sum())
            if claimed:
                sizes = runs * count
                element = np.repeat(np.arange(len(runs)), sizes)
                k = np.arange(len(element)) - np.repeat(
                    np.cumsum(sizes) - sizes, sizes)
                run = runs[element]
                j, i = np.divmod(k, run)
                frames = pfns[element] + i
                self.allocators.claim_common(
                    group_sharers, frames[j == 0])
                ptes.update(self._encode(
                    record, firsts[heads[element]] + j * gran + i
                    + record.start_vpn,
                    np.array(group_sharers)[j], frames,
                    self._group_templates(j, group_sharers, i, run)))
                record.coalesced_pages += claimed * count
            # Fallback: map each remaining group's members individually.
            fallback = groups[start + claimed:stop]
            if len(fallback):
                frames = np.array([self.allocators[c].allocate_many(
                    len(fallback)) for c in group_sharers]).T
                ptes.update(self._encode(
                    record,
                    (firsts[fallback, None] + np.arange(count) * gran).ravel()
                    + record.start_vpn,
                    np.tile(np.array(group_sharers), len(fallback)),
                    frames.ravel(), self._template()))
                record.fallback_pages += len(fallback) * count
        return ptes

    def _claim_groups(self, sharers: tuple[int, ...], start: int, stop: int,
                      gran: int, rounds: int, last_full: int,
                      merging: bool) -> tuple[np.ndarray, ...]:
        """Common frames for groups ``start``..``stop`` over ``sharers``, in
        order, as three arrays: each claim's group, first frame and merged
        group count.

        Stops at the first group the common-free map cannot serve: every
        later group of the stretch falls back.  A one-member group never
        coalesces.
        """
        import numpy as np
        if len(sharers) < 2:
            return (np.empty(0, dtype=np.int64),) * 3
        common = self.allocators.common_free_map(sharers)
        if not merging:
            # Each group takes the lowest common-free frame left, so the
            # groups take the map's free frames in ascending order.
            pfns = np.flatnonzero(np.frombuffer(common, dtype=np.uint8))
            pfns = pfns[:stop - start]
            return (np.arange(start, start + len(pfns)), pfns,
                    np.ones_like(pfns))
        runs = range(min(self.merge_max, gran), 1, -1)
        patterns = {run: b"\x01" * run for run in runs}
        # Lowest position each run length can still be found at: common
        #: frames only ever get claimed here, so a search resumes there.
        hints = dict.fromkeys([1, *runs], 0)
        claims = []
        group = start
        while group < stop:
            run = 1
            rnd, intra = divmod(group, gran)
            span = (gran if rnd < rounds else last_full) - intra
            for length in runs:
                if length > span:
                    continue
                found = common.find(patterns[length], hints[length])
                if found >= 0:
                    hints[length], run = found, length
                    break
                hints[length] = len(common) + 1
            if run == 1:
                found = common.find(1, hints[1])
                if found < 0:
                    break
                hints[1] = found
            common[found:found + run] = bytes(run)
            claims.append((group, found, run))
            group += run
        return tuple(np.array(claims, dtype=np.int64).reshape(-1, 3).T)

    def _bitmap_for(self, sharers: tuple[int, ...]) -> int:
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
        import numpy as np
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
        table.map_many(self._encode(record, np.array([vpn]), np.array([dest]),
                                    new_local, self._template()),
                       self.extended_ptes)
        return affected
