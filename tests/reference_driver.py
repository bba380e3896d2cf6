"""A frozen copy of the GPU driver's mapping pass: the differential oracle.

This is :class:`repro.mapping.driver.GpuDriver`'s frame search and PTE
construction as it stood before the mapping pass was rewritten to search
one common-free byte map per data object: group by group, one
``find_common_free`` (or ``find_common_free_run``) scan over the sharers'
free maps per group, per-member fallback frames, and one ``_pte`` call
per page.  ``tests/test_driver_differential.py`` maps the same requests
through this driver and the production one, on pristine and fragmented
allocators, and requires identical PTEs, ``chiplet_by_vpn`` order, free
maps and free counts.  Keep it as it is: it is the fixed point those
checks compare to.
"""

from __future__ import annotations

from collections import Counter

from repro.common.errors import InvariantViolation
from repro.mapping.coalescing import DataDescriptor
from repro.mapping.driver import AllocatedData, GpuDriver
from repro.memsim.pte import PFN_SHIFT, PteFields, encode_pte


class ReferenceDriver(GpuDriver):
    """``GpuDriver`` with the group-by-group mapping pass.

    ``branches`` counts the paths the pass took (merged run, coalesced
    group, per-member fallback, tail group), so a test can show that its
    inputs reach each of them.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.branches: Counter = Counter()

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
                if len(members) < desc.num_sharers:
                    self.branches["tail_group"] += 1
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
        if full > 1:
            self.branches["no_merge_run"] += 1
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
        self.branches["merged_run"] += 1
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
            self.branches["fallback"] += 1
            for j, vpn in members:
                chiplet = desc.gpu_map[j]
                ptes[vpn] = self._pte(chiplet,
                                      self.allocators[chiplet].allocate_any())
                record.chiplet_by_vpn[vpn] = chiplet
            record.fallback_pages += len(members)
            return
        self.branches["coalesced_group"] += 1
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
