"""Memory-system substrate: PTEs, page tables, TLBs, links."""

from repro.memsim.links import DuplexLink, Link, Mesh
from repro.memsim.page_table import AddressSpaceRegistry, PageTable
from repro.memsim.pte import (
    MAX_CHIPLETS_EXTENDED,
    MAX_CHIPLETS_STANDARD,
    MAX_MERGED_GROUPS,
    PteFields,
    coalescing_info_bits,
    decode_pte,
    encode_pte,
)
from repro.memsim.tlb import MshrFile, Tlb, TlbEntry

__all__ = [
    "AddressSpaceRegistry",
    "DuplexLink",
    "Link",
    "MAX_CHIPLETS_EXTENDED",
    "MAX_CHIPLETS_STANDARD",
    "MAX_MERGED_GROUPS",
    "Mesh",
    "MshrFile",
    "PageTable",
    "PteFields",
    "Tlb",
    "TlbEntry",
    "coalescing_info_bits",
    "decode_pte",
    "encode_pte",
]
