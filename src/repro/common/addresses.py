"""Address arithmetic shared across the simulator.

The simulator works at page granularity.  A *VPN* (virtual page number) is a
non-negative integer below 2**40 (the paper's filter-update messages carry a
40-bit VPN, Section V-A2).  A *local PFN* indexes a frame within one GPU
chiplet's memory; a *global PFN* is ``chiplet_base + local_pfn`` where each
chiplet owns a disjoint base window (Fig 7a's "global PFN map").
"""

from __future__ import annotations

from repro.common.errors import AddressError

#: Width of a virtual page number in bits (Section V-A2).
VPN_BITS = 40
MAX_VPN = (1 << VPN_BITS) - 1

#: Default page size used by the paper's baseline (Table II context).
PAGE_SIZE_4K = 4 * 1024
PAGE_SIZE_64K = 64 * 1024
PAGE_SIZE_2M = 2 * 1024 * 1024

SUPPORTED_PAGE_SIZES = (PAGE_SIZE_4K, PAGE_SIZE_64K, PAGE_SIZE_2M)


def check_vpn(vpn: int) -> int:
    """Validate a VPN and return it unchanged."""
    if not 0 <= vpn <= MAX_VPN:
        raise AddressError(f"VPN {vpn:#x} outside 40-bit range")
    return vpn


def pages_for_bytes(num_bytes: int, page_size: int = PAGE_SIZE_4K) -> int:
    """Number of pages needed to hold ``num_bytes`` (ceiling division)."""
    if num_bytes < 0:
        raise AddressError(f"negative byte count {num_bytes}")
    if page_size not in SUPPORTED_PAGE_SIZES:
        raise AddressError(f"unsupported page size {page_size}")
    return -(-num_bytes // page_size)


def vpn_of(vaddr: int, page_size: int = PAGE_SIZE_4K) -> int:
    """Virtual page number containing byte address ``vaddr``."""
    if vaddr < 0:
        raise AddressError(f"negative virtual address {vaddr:#x}")
    return vaddr // page_size
