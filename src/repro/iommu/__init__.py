"""Host IOMMU: ATS packets, PW-queue, PTWs, PEC logic, scheduling."""

from repro.iommu.ats import AtsRequest, AtsResponse
from repro.iommu.iommu import Iommu
from repro.iommu.pec import PecLogic
from repro.iommu.scheduler import select_next

__all__ = [
    "AtsRequest",
    "AtsResponse",
    "Iommu",
    "PecLogic",
    "select_next",
]
