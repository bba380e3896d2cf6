"""Page mapping: allocators, policies, coalescing groups, the GPU driver."""

import importlib

#: Public name -> the module that defines it.  Names load on first access
#: (PEP 562): a workload's allocation requests need the policies, not the
#: driver or numpy.
_EXPORTS = {
    "AllocatedData": "repro.mapping.driver",
    "AllocationRequest": "repro.mapping.policies",
    "ChunkingPolicy": "repro.mapping.policies",
    "CodaPolicy": "repro.mapping.policies",
    "DataDescriptor": "repro.mapping.coalescing",
    "FrameAllocator": "repro.mapping.allocator",
    "FrameAllocatorGroup": "repro.mapping.allocator",
    "GpuDriver": "repro.mapping.driver",
    "LaspPolicy": "repro.mapping.policies",
    "MappingPolicy": "repro.mapping.policies",
    "PEC_ENTRY_BITS": "repro.mapping.coalescing",
    "PecBuffer": "repro.mapping.coalescing",
    "PlacementPlan": "repro.mapping.policies",
    "RoundRobinPolicy": "repro.mapping.policies",
    "calculate_pending_pfn": "repro.mapping.coalescing",
    "make_policy": "repro.mapping.policies",
    "merged_group_vpns": "repro.mapping.coalescing",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
