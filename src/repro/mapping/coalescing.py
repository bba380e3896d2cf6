"""Coalescing groups: descriptors, membership math, PFN calculation.

This module is the arithmetic core of the paper: the PEC-buffer *data
descriptor* (Section IV-E), the coalescing-VPN candidate generation
(Section IV-F, Example 4), and the merged-group PFN formulas (Section V-B).
All functions are pure so they can be property-tested exhaustively; the
IOMMU's PEC logic and F-Barre's chiplet-side PEC logic both call into here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import AddressError, TranslationError
from repro.memsim.pte import PteFields

#: PEC buffer entry field widths (sums to the paper's 118 bits, Section V-A3).
_START_VPN_BITS = 40
_END_VPN_BITS = 40
_GRAN_BITS = 14
_GPU_MAP_BITS = 24  # 8 chiplets x 3 bits (Example 3)
PEC_ENTRY_BITS = _START_VPN_BITS + _END_VPN_BITS + _GRAN_BITS + _GPU_MAP_BITS
assert PEC_ENTRY_BITS == 118


@dataclass(frozen=True)
class DataDescriptor:
    """One PEC-buffer entry: everything needed to coalesce one data object.

    ``gpu_map[j]`` is the chiplet that holds the group's *j*-th VPN
    (Section IV-E, Fig 10); ``interlv_gran`` is the number of consecutive
    VPNs each chiplet holds per round (Example 3).
    """

    data_id: int
    pasid: int
    start_vpn: int
    end_vpn: int          # inclusive, like the paper's Start/End VPN fields
    interlv_gran: int
    gpu_map: tuple[int, ...]
    #: VPNs covered by one full round across all sharers (derived once, so
    #: it stays out of repr, eq and hash).
    round_pages: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.start_vpn > self.end_vpn:
            raise AddressError(f"empty descriptor: {self.start_vpn:#x}..{self.end_vpn:#x}")
        if self.interlv_gran <= 0:
            raise AddressError(f"interlv_gran must be positive: {self.interlv_gran}")
        if self.interlv_gran >= (1 << _GRAN_BITS):
            raise AddressError(f"interlv_gran {self.interlv_gran} exceeds field width")
        if not self.gpu_map:
            raise AddressError("gpu_map cannot be empty")
        # 8 chiplets fit the paper's 24-bit GPU_map field; up to 16 are
        # allowed for the Section VI scalability configuration (Fig 20).
        if len(self.gpu_map) > 16:
            raise AddressError("gpu_map supports at most 16 chiplets")
        if len(set(self.gpu_map)) != len(self.gpu_map):
            raise AddressError(f"gpu_map has duplicate chiplets: {self.gpu_map}")
        object.__setattr__(self, "round_pages",
                           self.interlv_gran * len(self.gpu_map))

    @property
    def num_sharers(self) -> int:
        return len(self.gpu_map)

    @property
    def num_pages(self) -> int:
        return self.end_vpn - self.start_vpn + 1

    def contains(self, vpn: int) -> bool:
        return self.start_vpn <= vpn <= self.end_vpn

    def position(self, vpn: int) -> tuple[int, int, int]:
        """Decompose a member VPN into (round, inter_order, intra_offset).

        ``inter_order`` is the paper's inter-GPU_coal_order — the page's
        position across chiplets; ``intra_offset`` is its index within the
        chiplet's consecutive chunk for that round.
        """
        if not self.contains(vpn):
            raise TranslationError(f"VPN {vpn:#x} not in data {self.data_id}")
        offset = vpn - self.start_vpn
        rnd, within = divmod(offset, self.round_pages)
        inter, intra = divmod(within, self.interlv_gran)
        return rnd, inter, intra

    def chiplet_of(self, vpn: int) -> int:
        """The chiplet a member VPN is mapped to (via GPU_map)."""
        _rnd, inter, _intra = self.position(vpn)
        return self.gpu_map[inter]

    def vpn_at(self, rnd: int, inter: int, intra: int) -> int:
        """Inverse of :meth:`position` (may fall outside the data)."""
        return (self.start_vpn + rnd * self.round_pages
                + inter * self.interlv_gran + intra)

    def group_vpns(self, vpn: int) -> list[int]:
        """All VPNs in ``vpn``'s (unmerged) coalescing group, ascending.

        These are Example 4's candidate *coalescing VPNs*: the member VPN
        incremented/decremented by ``interlv_gran``, bounded to the data.
        """
        rnd, _inter, intra = self.position(vpn)
        first = self.vpn_at(rnd, 0, intra)
        return list(range(first, min(first + self.round_pages,
                                     self.end_vpn + 1), self.interlv_gran))

    def encoded_bits(self) -> int:
        """Storage cost of this entry (118 bits at the paper's 8-chiplet map).

        The scalability configuration (>8 chiplets) needs a wider GPU_map,
        so the cost grows with the map; at 8 entries this is exactly the
        paper's 118 bits.
        """
        gpu_map_bits = max(len(self.gpu_map), 8) * 3
        return _START_VPN_BITS + _END_VPN_BITS + _GRAN_BITS + gpu_map_bits


def merged_group_vpns(desc: DataDescriptor, vpn: int,
                      fields: PteFields) -> list[int]:
    """All member VPNs of a (possibly merged) coalescing group.

    For a merged group of *m* coalesced groups (Section V-B), each sharer
    chiplet holds ``m`` consecutive VPNs; the members are
    ``VPN_first + interlv_gran*j + i`` for sharer position *j* and intra
    offset *i* in ``[0, m)``.
    """
    if not fields.extended or fields.merged_groups == 1:
        return desc.group_vpns(vpn)
    gran = desc.interlv_gran
    first = (vpn - fields.intra_gpu_coal_order
             - gran * fields.inter_gpu_coal_order)
    start, stop = desc.start_vpn, desc.end_vpn + 1
    width = fields.merged_groups
    return [member for row in range(first, first + desc.round_pages, gran)
            for member in range(row if row > start else start,
                                min(row + width, stop))]


def calculate_pending_pfn(desc: DataDescriptor, pte_vpn: int,
                          fields: PteFields, pending_vpn: int,
                          chiplet_bases: tuple[int, ...],
                          compact: bool = False) -> int | None:
    """Compute the pending VPN's global PFN from a translated sibling PTE.

    Implements Section IV-F (standard groups) and the Section V-B formula
    (merged groups).  Returns ``None`` when ``pending_vpn`` is not in the
    translated PTE's (merged) coalescing group — the caller then falls back
    to a normal page-table walk.

    ``compact`` selects the Section VI scalability encoding where
    ``coal_bitmap`` holds the count of consecutive participating GPU_map
    positions instead of a chiplet mask (needed beyond 8 chiplets).
    """
    start = desc.start_vpn
    if not (start <= pte_vpn <= desc.end_vpn
            and start <= pending_vpn <= desc.end_vpn):
        return None
    if pending_vpn == pte_vpn:
        return fields.global_pfn
    gran = desc.interlv_gran
    pte_inter = (pte_vpn - start) % desc.round_pages // gran
    pte_base = chiplet_bases[desc.gpu_map[pte_inter]]

    if fields.extended and fields.merged_groups > 1:
        first = (pte_vpn - fields.intra_gpu_coal_order
                 - gran * fields.inter_gpu_coal_order)
        offset = pending_vpn - first
        j, i = divmod(offset, gran)
        if not (0 <= j < desc.num_sharers and 0 <= i < fields.merged_groups):
            return None
        pending_chiplet = desc.gpu_map[j]
        if not _participates(fields, j, pending_chiplet, compact):
            return None
        # PFN_pending = PFN_PTE - base_PTE - intra_PTE + base_pending + intra_pending
        return (fields.global_pfn - pte_base - fields.intra_gpu_coal_order
                + chiplet_bases[pending_chiplet] + i)

    # Standard group: pending must sit at pte_vpn +/- k * interlv_gran within
    # the same round (Example 4's increment/decrement search).  A multiple
    # of the granule keeps the intra offset; the round is kept exactly when
    # the shifted inter order still names a sharer.
    k, rem = divmod(pending_vpn - pte_vpn, gran)
    if rem:
        return None
    pending_inter = pte_inter + k
    if not 0 <= pending_inter < len(desc.gpu_map):
        return None
    pending_chiplet = desc.gpu_map[pending_inter]
    if not _participates(fields, pending_inter, pending_chiplet, compact):
        return None
    local_pfn = fields.global_pfn - pte_base
    return chiplet_bases[pending_chiplet] + local_pfn


def _participates(fields: PteFields, inter_order: int, chiplet: int,
                  compact: bool) -> bool:
    """Is this group position part of the PTE's coalescing group?"""
    if compact:
        return inter_order < fields.coal_bitmap  # bitmap holds a count
    return bool(fields.coal_bitmap >> chiplet & 1)


class PecBuffer:
    """The shared PEC buffer: a small table of data descriptors.

    The paper's buffer has five 118-bit entries; "when the table is full, a
    new data overwrites an entry having smaller data's information"
    (Section IV-E).
    """

    def __init__(self, capacity: int = 5) -> None:
        if capacity <= 0:
            raise AddressError("PEC buffer needs positive capacity")
        self.capacity = capacity
        self._entries: list[DataDescriptor] = []
        #: (pasid, vpn) -> :meth:`group_key`, dropped whenever the entries
        #: change (a tenant's data arriving, its address space departing).
        self._group_keys: dict[tuple[int, int],
                               tuple[int, int, int, int] | None] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def insert(self, desc: DataDescriptor) -> DataDescriptor | None:
        """Add a descriptor, evicting the smallest-data entry when full.

        Returns the evicted descriptor, if any.  Re-inserting a descriptor
        for the same (pasid, data_id) replaces the old entry; re-inserting
        the very descriptor already held changes nothing.
        """
        entries = self._entries
        for existing in entries:
            if existing is desc:
                return None
        pasid, data_id = desc.pasid, desc.data_id
        for i, existing in enumerate(entries):
            if existing.pasid == pasid and existing.data_id == data_id:
                entries[i] = desc
                self._group_keys.clear()
                return None
        if len(self._entries) < self.capacity:
            self._entries.append(desc)
            self._group_keys.clear()
            return None
        victim_index = min(range(len(self._entries)),
                           key=lambda i: self._entries[i].num_pages)
        if desc.num_pages <= self._entries[victim_index].num_pages:
            return desc  # new data is the smallest: drop it instead
        victim = self._entries[victim_index]
        self._entries[victim_index] = desc
        self._group_keys.clear()
        return victim

    def lookup(self, pasid: int, vpn: int) -> DataDescriptor | None:
        """Find the descriptor whose VPN range contains ``vpn``."""
        for desc in self._entries:
            if desc.pasid == pasid and desc.start_vpn <= vpn <= desc.end_vpn:
                return desc
        return None

    def group_key(self, pasid: int,
                  vpn: int) -> tuple[int, int, int, int] | None:
        """A hashable id of the coalescing group a VPN would belong to.

        Two requests with equal group keys are served by one page-table
        walk (ignoring per-group fallback cases, which only cost a lost
        optimization, never correctness — the PFN calculator re-checks
        membership).  Memoized per VPN until the entries next change.
        """
        try:
            return self._group_keys[pasid, vpn]
        except KeyError:
            pass
        desc = self.lookup(pasid, vpn)
        key = None
        if desc is not None:
            rnd, within = divmod(vpn - desc.start_vpn, desc.round_pages)
            key = (desc.pasid, desc.data_id, rnd, within % desc.interlv_gran)
        self._group_keys[pasid, vpn] = key
        return key

    def remove_pasid(self, pasid: int) -> int:
        """Drop every descriptor belonging to ``pasid`` (address-space
        teardown); returns how many entries were removed."""
        before = len(self._entries)
        self._entries = [d for d in self._entries if d.pasid != pasid]
        self._group_keys.clear()
        return before - len(self._entries)

    def size_bits(self) -> int:
        """Total storage (Section VII-K: 5 x 118 = 590 bits)."""
        return self.capacity * PEC_ENTRY_BITS

    def clear(self) -> None:
        self._entries.clear()
        self._group_keys.clear()
