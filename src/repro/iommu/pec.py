"""Page Entry Coalescing (PEC) logic — Fig 9's comparators + PFN calculator.

One PEC logic instance serves a PTW (in the IOMMU) or a chiplet (in
F-Barre).  It wraps a :class:`~repro.mapping.coalescing.PecBuffer` and the
pure group math, and adds the bookkeeping both sides share: find the
descriptor, test group membership, calculate PFNs, and enumerate sibling
(coalescing) VPNs.
"""

from __future__ import annotations

from repro.common.stats import StatSet
from repro.common.trace import NULL_TRACER
from repro.mapping.coalescing import (
    DataDescriptor,
    PecBuffer,
    calculate_pending_pfn,
    merged_group_vpns,
)
from repro.memsim.pte import PteFields


class PecLogic:
    """Comparators + PFN calculator over a PEC buffer."""

    def __init__(self, pec_buffer: PecBuffer, chiplet_bases: tuple[int, ...],
                 compact_bitmap: bool = False, name: str = "pec") -> None:
        self.pec_buffer = pec_buffer
        self.chiplet_bases = chiplet_bases
        self.compact_bitmap = compact_bitmap
        #: Translation-path tracer (no-op unless the owner enables tracing;
        #: assigned after construction, so the setter refreshes the cached
        #: enabled flag).
        self.tracer = NULL_TRACER
        self.stats = StatSet(name)
        #: Test-only fault injection: added to every calculated PFN.  The
        #: validation harness sets this to a non-zero offset to prove the
        #: oracle/invariant checker catches a miscalculating PEC datapath
        #: (it must stay 0 in real runs).
        self.inject_pfn_offset = 0

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        self._trace_on = tracer.enabled

    def descriptor_for(self, pasid: int, vpn: int) -> DataDescriptor | None:
        return self.pec_buffer.lookup(pasid, vpn)

    def calculate(self, pasid: int, pte_vpn: int, fields: PteFields,
                  pending_vpn: int) -> int | None:
        """Global PFN of ``pending_vpn`` from a translated sibling, or None.

        This is the Section IV-F flow: look up the data in the PEC buffer,
        check the pending VPN is in range, then run the PFN calculator.
        """
        if not fields.coalesced_under(self.compact_bitmap):
            return None
        desc = self.descriptor_for(pasid, pte_vpn)
        if desc is None:
            self.stats.bump("descriptor_misses")
            return None
        pfn = calculate_pending_pfn(desc, pte_vpn, fields, pending_vpn,
                                    self.chiplet_bases,
                                    compact=self.compact_bitmap)
        self.stats.bump("calculations" if pfn is not None else "rejections")
        if pfn is not None and self._trace_on:
            self.tracer.phase(pasid, pending_vpn, "pec_calculated")
        if pfn is not None and self.inject_pfn_offset:
            pfn += self.inject_pfn_offset
        return pfn

    def sibling_vpns(self, pasid: int, vpn: int,
                     fields: PteFields) -> list[int]:
        """All VPNs in ``vpn``'s (merged) coalescing group, itself included.

        These are the *coalescing VPNs* that filter updates propagate
        (Section V-A2).
        """
        if not fields.coalesced_under(self.compact_bitmap):
            return [vpn]
        desc = self.descriptor_for(pasid, vpn)
        if desc is None:
            return [vpn]
        return merged_group_vpns(desc, vpn, fields)

    def candidate_vpns(self, pasid: int, vpn: int,
                       max_merge: int = 1) -> list[int]:
        """Candidate coalescing VPNs for a *request* (no PTE yet).

        Used by F-Barre's LCF search: candidates are the requested VPN
        shifted by multiples of ``interlv_gran`` within its round, plus —
        when merged groups are possible — the intra-offset neighbours within
        the merge window (Section V-A3).
        """
        desc = self.descriptor_for(pasid, vpn)
        if desc is None:
            return []
        gran = desc.interlv_gran
        round_pages = desc.round_pages
        rnd, within = divmod(vpn - desc.start_vpn, round_pages)
        intra = within % gran
        intra_lo = max(0, intra - (max_merge - 1))
        intra_hi = min(gran - 1, intra + (max_merge - 1))
        # Each sharer's row starts inside the data, so only its end bounds.
        stop = desc.end_vpn + 1
        first = desc.start_vpn + rnd * round_pages
        candidates = []
        for row in range(first, first + round_pages, gran):
            candidates.extend(range(row + intra_lo,
                                    min(row + intra_hi + 1, stop)))
        return candidates

    def synthesize_fields(self, pasid: int, pending_vpn: int,
                          sibling_vpn: int,
                          sibling_fields: PteFields) -> PteFields | None:
        """Reconstruct the pending VPN's own PTE coalescing fields.

        A PEC-calculated translation never walks the pending page's PTE, but
        its TLB entry still needs that page's coalescing metadata (bitmap,
        orders) so it can serve later calculations.  The driver wrote those
        fields deterministically from the descriptor, so they can be rebuilt.
        """
        desc = self.descriptor_for(pasid, sibling_vpn)
        if desc is None or not desc.contains(pending_vpn):
            return None
        pfn = calculate_pending_pfn(desc, sibling_vpn, sibling_fields,
                                    pending_vpn, self.chiplet_bases,
                                    compact=self.compact_bitmap)
        if pfn is None:
            return None
        gran = desc.interlv_gran
        if sibling_fields.extended and sibling_fields.merged_groups > 1:
            first = (sibling_vpn - sibling_fields.intra_gpu_coal_order
                     - gran * sibling_fields.inter_gpu_coal_order)
            j, i = divmod(pending_vpn - first, gran)
            return PteFields(
                present=True, global_pfn=pfn,
                coal_bitmap=sibling_fields.coal_bitmap,
                inter_gpu_coal_order=j, intra_gpu_coal_order=i,
                merged_groups=sibling_fields.merged_groups, extended=True)
        _rnd, inter, _intra = desc.position(pending_vpn)
        return PteFields(
            present=True, global_pfn=pfn,
            coal_bitmap=sibling_fields.coal_bitmap,
            inter_gpu_coal_order=min(inter, 7),
            merged_groups=1,
            intra_gpu_coal_order=0,
            extended=sibling_fields.extended)

    def record_descriptor(self, desc: DataDescriptor) -> None:
        """Install a descriptor (chiplet side: learned from ATS responses)."""
        self.pec_buffer.insert(desc)
