"""Host IOMMU: ATS packets, PW-queue, PTWs, PEC logic, scheduling."""

from repro.iommu.ats import AtsRequest, AtsResponse, FILTER_UPDATE_BITS
from repro.iommu.iommu import Iommu
from repro.iommu.pec import PecLogic
from repro.iommu.scheduler import select_next

__all__ = [
    "AtsRequest",
    "AtsResponse",
    "FILTER_UPDATE_BITS",
    "Iommu",
    "PecLogic",
    "select_next",
]
