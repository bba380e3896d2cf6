"""Per-process page tables: a flat VPN -> raw 64-bit PTE map.

The IOMMU's PTWs charge the paper's fixed 500-cycle walk latency (Table II)
— the same simplification the paper makes — so walk *timing* never depends
on the table's shape, and one dict lookup stands in for the radix levels.
"""

from __future__ import annotations

from typing import Iterator

from repro.common.addresses import check_vpn
from repro.common.errors import TranslationError
from repro.memsim.pte import PteFields, decode_pte, encode_pte


class PageTable:
    """One process's page table mapping VPN -> raw 64-bit PTE."""

    def __init__(self, pasid: int = 0, extended_ptes: bool = False) -> None:
        self.pasid = pasid
        self.extended_ptes = extended_ptes
        self._ptes: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._ptes)

    def _check_layout(self, extended: bool) -> None:
        if extended != self.extended_ptes:
            raise TranslationError(
                f"PTE layout mismatch: table extended={self.extended_ptes}, "
                f"fields extended={extended}")

    def map(self, vpn: int, fields: PteFields) -> None:
        """Install a leaf PTE for ``vpn`` (overwrites an existing mapping)."""
        check_vpn(vpn)
        self._check_layout(fields.extended)
        self._ptes[vpn] = encode_pte(fields)

    def map_many(self, ptes: dict[int, int], extended: bool) -> None:
        """Install pre-encoded PTEs of the ``extended`` layout in one batch.

        Checks the layout and every VPN's bounds before writing anything.
        """
        self._check_layout(extended)
        if ptes:
            check_vpn(min(ptes))
            check_vpn(max(ptes))
        self._ptes.update(ptes)

    def unmap(self, vpn: int) -> None:
        """Remove the mapping for ``vpn``; raises if not mapped."""
        if self._ptes.pop(vpn, None) is None:
            raise TranslationError(f"unmap of unmapped VPN {vpn:#x}")

    def is_mapped(self, vpn: int) -> bool:
        return vpn in self._ptes

    def walk(self, vpn: int) -> PteFields:
        """Translate ``vpn``; raises :class:`TranslationError` if unmapped.

        The simulator maps all pages before kernel launch (Section II-B), so
        an unmapped VPN here indicates a bug, not a demand fault.
        """
        check_vpn(vpn)
        raw = self._ptes.get(vpn)
        if raw is None:
            raise TranslationError(
                f"page table walk on unmapped VPN {vpn:#x} (pasid {self.pasid})")
        fields = decode_pte(raw, extended=self.extended_ptes)
        if not fields.present:
            raise TranslationError(f"PTE for VPN {vpn:#x} not present")
        return fields

    def raw_pte(self, vpn: int) -> int:
        """The stored 64-bit PTE integer (for encoding-level tests)."""
        raw = self._ptes.get(vpn)
        if raw is None:
            raise TranslationError(f"no PTE for VPN {vpn:#x}")
        return raw

    def mappings(self) -> Iterator[tuple[int, PteFields]]:
        """Iterate (vpn, fields) over all leaf mappings, ascending VPN."""
        for vpn in sorted(self._ptes):
            yield vpn, decode_pte(self._ptes[vpn], extended=self.extended_ptes)


class AddressSpaceRegistry:
    """PASID -> page table, as the IOMMU sees it (multi-app, Section VII-I)."""

    def __init__(self) -> None:
        self._tables: dict[int, PageTable] = {}

    def create(self, pasid: int, extended_ptes: bool = False) -> PageTable:
        if pasid in self._tables:
            raise TranslationError(f"PASID {pasid} already registered")
        table = PageTable(pasid=pasid, extended_ptes=extended_ptes)
        self._tables[pasid] = table
        return table

    def get(self, pasid: int) -> PageTable:
        try:
            return self._tables[pasid]
        except KeyError:
            raise TranslationError(f"no page table for PASID {pasid}") from None

    def destroy(self, pasid: int) -> PageTable:
        """Unregister a PASID's table; raises if it was never registered.

        After this, ``pasid in registry`` is False and any in-flight walk
        for it must be dropped by the walker, not resolved.
        """
        try:
            return self._tables.pop(pasid)
        except KeyError:
            raise TranslationError(f"no page table for PASID {pasid}") from None

    def __contains__(self, pasid: int) -> bool:
        return pasid in self._tables

    def __iter__(self) -> Iterator[PageTable]:
        return iter(self._tables.values())
