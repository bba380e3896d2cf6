"""64-bit page-table-entry codec with Barre's coalescing bits.

The paper encodes coalescing-group information in the unused bits (52-62) of
an x86-64 PTE.  Two layouts exist:

* **Standard Barre** (Fig 8): 8-bit ``coal_bitmap`` (which chiplets
  participate) + 3-bit ``inter_gpu_coal_order`` (the page's position within
  the group).  Supports up to 8 chiplets.
* **Extended / contiguity-aware** (Fig 13): within the same 11 bits, a 4-bit
  ``coal_bitmap`` + 2-bit ``inter_gpu_coal_order`` + 2-bit
  ``intra_gpu_coal_order`` + 2-bit ``merged_coal_groups`` (stored as count-1,
  so up to 4 merged groups).  Supports up to 4 chiplets — exactly the
  trade-off Section VI (*Scalability*) describes.

The PFN field holds the **global** PFN (chiplet base + local frame).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import AddressError

_PRESENT_BIT = 1 << 0
PFN_SHIFT = 12
PFN_MASK = (1 << 40) - 1

_SOFT_SHIFT = 52          # first unused bit in an x86-64 PTE
_SOFT_MASK = (1 << 11) - 1

# Standard layout (Fig 8)
_STD_BITMAP_BITS = 8
_STD_ORDER_BITS = 3

# Extended layout (Fig 13)
_EXT_BITMAP_BITS = 4
_EXT_INTER_BITS = 2
_EXT_INTRA_BITS = 2
_EXT_MERGE_BITS = 2

MAX_CHIPLETS_STANDARD = _STD_BITMAP_BITS
MAX_CHIPLETS_EXTENDED = _EXT_BITMAP_BITS
MAX_MERGED_GROUPS = 1 << _EXT_MERGE_BITS  # stored as count-1


@dataclass(frozen=True, slots=True)
class PteFields:
    """Decoded view of a PTE.

    ``coal_bitmap`` bit *i* set means chiplet *i* participates in the page's
    coalescing group.  A page outside any group has ``coal_bitmap == 0``.
    ``merged_groups`` is the number of merged coalescing groups (>= 1); it is
    only meaningful in the extended layout and is stored on-disk as count-1.
    """

    present: bool
    global_pfn: int
    coal_bitmap: int = 0
    inter_gpu_coal_order: int = 0
    intra_gpu_coal_order: int = 0
    merged_groups: int = 1
    extended: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.global_pfn <= PFN_MASK:
            raise AddressError(f"global PFN {self.global_pfn:#x} exceeds 40 bits")
        max_chiplets = MAX_CHIPLETS_EXTENDED if self.extended else MAX_CHIPLETS_STANDARD
        if not 0 <= self.coal_bitmap < (1 << max_chiplets):
            raise AddressError(
                f"coal_bitmap {self.coal_bitmap:#b} needs more than "
                f"{max_chiplets} chiplet bits")
        max_order = (1 << _EXT_INTER_BITS) if self.extended else (1 << _STD_ORDER_BITS)
        if not 0 <= self.inter_gpu_coal_order < max_order:
            raise AddressError(
                f"inter_gpu_coal_order {self.inter_gpu_coal_order} out of range")
        if self.extended:
            if not 0 <= self.intra_gpu_coal_order < (1 << _EXT_INTRA_BITS):
                raise AddressError(
                    f"intra_gpu_coal_order {self.intra_gpu_coal_order} out of range")
            if not 1 <= self.merged_groups <= MAX_MERGED_GROUPS:
                raise AddressError(
                    f"merged_groups {self.merged_groups} out of [1, {MAX_MERGED_GROUPS}]")
        else:
            if self.intra_gpu_coal_order or self.merged_groups != 1:
                raise AddressError(
                    "intra order / merged groups require the extended layout")

    @property
    def is_coalesced(self) -> bool:
        """True when more than one chiplet participates (Section IV-F)."""
        return bin(self.coal_bitmap).count("1") > 1

    def coalesced_under(self, compact: bool) -> bool:
        """Coalescing test under either bitmap encoding.

        In the Section VI scalability encoding (``compact``), the field
        holds a *count* of consecutive participating GPU_map positions, so
        "more than one sharer" means a value >= 2 — a popcount test would
        wrongly reject counts of 2, 4, 8, and 16.
        """
        if compact:
            return self.coal_bitmap >= 2
        return self.is_coalesced

    @property
    def num_sharers(self) -> int:
        return bin(self.coal_bitmap).count("1")

    def sharer_chiplets(self) -> tuple[int, ...]:
        """Chiplet ids participating in the coalescing group, ascending."""
        return tuple(i for i in range(MAX_CHIPLETS_STANDARD)
                     if self.coal_bitmap >> i & 1)


def encode_pte(fields: PteFields) -> int:
    """Pack :class:`PteFields` into a 64-bit integer PTE."""
    raw = 0
    if fields.present:
        raw |= _PRESENT_BIT
    raw |= (fields.global_pfn & PFN_MASK) << PFN_SHIFT
    if fields.extended:
        soft = fields.coal_bitmap
        soft |= fields.inter_gpu_coal_order << _EXT_BITMAP_BITS
        soft |= fields.intra_gpu_coal_order << (_EXT_BITMAP_BITS + _EXT_INTER_BITS)
        soft |= (fields.merged_groups - 1) << (
            _EXT_BITMAP_BITS + _EXT_INTER_BITS + _EXT_INTRA_BITS)
    else:
        soft = fields.coal_bitmap
        soft |= fields.inter_gpu_coal_order << _STD_BITMAP_BITS
    raw |= (soft & _SOFT_MASK) << _SOFT_SHIFT
    return raw


def decode_pte(raw: int, extended: bool = False) -> PteFields:
    """Unpack a 64-bit PTE; ``extended`` selects the Fig 13 layout."""
    present = bool(raw & _PRESENT_BIT)
    global_pfn = (raw >> PFN_SHIFT) & PFN_MASK
    soft = (raw >> _SOFT_SHIFT) & _SOFT_MASK
    if extended:
        bitmap = soft & ((1 << _EXT_BITMAP_BITS) - 1)
        inter = (soft >> _EXT_BITMAP_BITS) & ((1 << _EXT_INTER_BITS) - 1)
        intra = (soft >> (_EXT_BITMAP_BITS + _EXT_INTER_BITS)) & (
            (1 << _EXT_INTRA_BITS) - 1)
        merged = ((soft >> (_EXT_BITMAP_BITS + _EXT_INTER_BITS + _EXT_INTRA_BITS))
                  & ((1 << _EXT_MERGE_BITS) - 1)) + 1
        return PteFields(present=present, global_pfn=global_pfn,
                         coal_bitmap=bitmap, inter_gpu_coal_order=inter,
                         intra_gpu_coal_order=intra, merged_groups=merged,
                         extended=True)
    bitmap = soft & ((1 << _STD_BITMAP_BITS) - 1)
    inter = (soft >> _STD_BITMAP_BITS) & ((1 << _STD_ORDER_BITS) - 1)
    return PteFields(present=present, global_pfn=global_pfn,
                     coal_bitmap=bitmap, inter_gpu_coal_order=inter)


def coalescing_info_bits(extended: bool) -> int:
    """Bits of coalescing metadata a PTE carries (10 in the paper, V-A3)."""
    if extended:
        return _EXT_BITMAP_BITS + _EXT_INTER_BITS + _EXT_INTRA_BITS + _EXT_MERGE_BITS
    return _STD_BITMAP_BITS + _STD_ORDER_BITS
