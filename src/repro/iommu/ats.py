"""Address Translation Service (ATS) packet types.

On an L2 TLB miss, a chiplet sends an :class:`AtsRequest` to the host IOMMU
over PCIe; the IOMMU answers with an :class:`AtsResponse`.  When the
translated PTE is coalesced, the response piggybacks the PTE's coalescing
fields and the matching PEC-buffer descriptor (Section V-A3) so the chiplet
can later calculate sibling PFNs locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.memsim.pte import PteFields


@dataclass(slots=True)
class AtsRequest:
    """One translation request as it travels to the IOMMU."""

    pasid: int
    vpn: int
    src_chiplet: int
    #: True for translations speculatively requested (Valkyrie L2 prefetch);
    #: these never block real requests in PEC bookkeeping.
    prefetch: bool = False
    #: Cycle the request reached the walk source, set by ``Iommu.receive``;
    #: its processing time is charged from here.
    arrival: int = 0


@dataclass(slots=True)
class AtsResponse:
    """The IOMMU's answer, routed back to the requesting chiplet."""

    pasid: int
    vpn: int
    global_pfn: int
    dst_chiplet: int
    #: How the translation was produced: "walk", "pec" (calculated from a
    #: sibling's walk), or "iommu_tlb".
    source: str = "walk"
    #: Decoded coalescing PTE fields (None when uncoalesced).
    coal: PteFields | None = None
    #: PEC-buffer descriptor for the data (None when uncoalesced).
    pec: Any = None
    prefetch: bool = False
