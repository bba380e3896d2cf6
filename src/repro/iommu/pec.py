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
                 compact_bitmap: bool = False, name: str = "pec", *,
                 tracer=NULL_TRACER) -> None:
        self.pec_buffer = pec_buffer
        self.chiplet_bases = chiplet_bases
        self.compact_bitmap = compact_bitmap
        self.tracer = tracer
        self._trace_on = tracer.enabled
        self.stats = StatSet(name)
        self._counters = self.stats.counters
        #: Descriptor of the last successful :meth:`calculate`, which
        #: :meth:`calculate_entry` reuses instead of looking it up again.
        self._calculated_from: DataDescriptor | None = None
        #: Test-only fault injection: added to every calculated PFN.  The
        #: validation harness sets this to a non-zero offset to prove the
        #: oracle/invariant checker catches a miscalculating PEC datapath
        #: (it must stay 0 in real runs).
        self.inject_pfn_offset = 0

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
        desc = self.pec_buffer.lookup(pasid, pte_vpn)
        if desc is None:
            self._counters["descriptor_misses"] += 1
            return None
        pfn = calculate_pending_pfn(desc, pte_vpn, fields, pending_vpn,
                                    self.chiplet_bases, self.compact_bitmap)
        if pfn is None:
            self._counters["rejections"] += 1
            return None
        self._counters["calculations"] += 1
        self._calculated_from = desc
        if self._trace_on:
            self.tracer.phase(pasid, pending_vpn, "pec_calculated")
        if self.inject_pfn_offset:
            pfn += self.inject_pfn_offset
        return pfn

    def calculate_entry(self, pasid: int, pending_vpn: int, sibling_vpn: int,
                        sibling_fields: PteFields
                        ) -> tuple[int, PteFields] | None:
        """:meth:`calculate` and :meth:`synthesize_fields` in one pass.

        Returns ``(pfn, own_fields)`` for ``pending_vpn``, or None when the
        sibling cannot calculate it.  The PFN comes from ``self.calculate``
        (so a per-instance wrapper, such as the invariant checker's, sees
        it) and is computed once: the fields reuse it and the descriptor
        that calculation found.
        """
        pfn = self.calculate(pasid, sibling_vpn, sibling_fields, pending_vpn)
        if pfn is None:
            return None
        # The test-only fault offset corrupts the returned PFN only.
        return pfn, self._own_fields(
            self._calculated_from, pending_vpn, sibling_vpn, sibling_fields,
            pfn - self.inject_pfn_offset)

    def sibling_vpns(self, pasid: int, vpn: int,
                     fields: PteFields) -> list[int]:
        """All VPNs in ``vpn``'s (merged) coalescing group, itself included.

        These are the *coalescing VPNs* that filter updates propagate
        (Section V-A2).
        """
        if not fields.coalesced_under(self.compact_bitmap):
            return [vpn]
        desc = self.pec_buffer.lookup(pasid, vpn)
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
        desc = self.pec_buffer.lookup(pasid, vpn)
        if desc is None:
            return []
        gran = desc.interlv_gran
        round_end = desc.round_pages
        within = (vpn - desc.start_vpn) % round_end
        first = vpn - within
        round_end += first
        intra = within % gran
        lo = intra - max_merge + 1
        if lo < 0:
            lo = 0
        hi = intra + max_merge
        if hi > gran:
            hi = gran
        # Each sharer's row starts inside the data, so only its end bounds.
        stop = desc.end_vpn + 1
        if hi - lo == 1:
            return list(range(first + lo, min(round_end, stop), gran))
        return [candidate for row in range(first, round_end, gran)
                for candidate in range(row + lo, min(row + hi, stop))]

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
        return self._own_fields(desc, pending_vpn, sibling_vpn,
                                sibling_fields, pfn)

    @staticmethod
    def _own_fields(desc: DataDescriptor, pending_vpn: int, sibling_vpn: int,
                    sibling_fields: PteFields, pfn: int) -> PteFields:
        """The pending page's PTE fields, given its calculated PFN."""
        if sibling_fields.extended and sibling_fields.merged_groups > 1:
            gran = desc.interlv_gran
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
