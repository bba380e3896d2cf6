"""GPU driver tests: Barre's mapping enforcement end to end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import AllocationError, ConfigError, MappingKind, MemoryMap
from repro.mapping import (
    AllocationRequest,
    FrameAllocatorGroup,
    GpuDriver,
    calculate_pending_pfn,
    make_policy,
)
from repro.memsim import AddressSpaceRegistry


def make_driver(num_chiplets=4, frames=256, barre=True, merge=1,
                mapping=MappingKind.LASP):
    mm = MemoryMap(num_chiplets=num_chiplets, frames_per_chiplet=frames)
    allocators = FrameAllocatorGroup(num_chiplets, frames)
    spaces = AddressSpaceRegistry()
    driver = GpuDriver(mm, allocators, spaces,
                       make_policy(mapping, num_chiplets),
                       barre_enabled=barre, merge_max=merge)
    return driver, allocators, spaces, mm


def test_barre_maps_groups_to_common_local_pfns():
    """Example 1: group members share the local PFN across chiplets."""
    driver, _alloc, spaces, mm = make_driver()
    rec = driver.malloc(AllocationRequest(data_id=1, pages=12, row_pages=3))
    table = spaces.get(0)
    desc = rec.descriptor
    assert desc is not None
    for vpn in range(rec.start_vpn, rec.end_vpn + 1):
        group = desc.group_vpns(vpn)
        locals_ = []
        for member in group:
            fields = table.walk(member)
            chiplet = desc.chiplet_of(member)
            locals_.append(fields.global_pfn - mm.base_of(chiplet))
        assert len(set(locals_)) == 1  # same local PFN across the group
    assert rec.coalesced_pages == 12
    assert rec.fallback_pages == 0


def test_barre_ptes_carry_group_metadata():
    driver, _alloc, spaces, _mm = make_driver()
    rec = driver.malloc(AllocationRequest(data_id=1, pages=12, row_pages=3))
    table = spaces.get(0)
    fields = table.walk(rec.start_vpn + 3)  # 0th VPN of chiplet 1's chunk
    assert fields.coal_bitmap == 0b1111
    assert fields.inter_gpu_coal_order == 1
    assert fields.is_coalesced


def test_calculated_pfns_match_walked_pfns():
    """PEC arithmetic agrees with the page table for every member pair."""
    driver, _alloc, spaces, mm = make_driver()
    rec = driver.malloc(AllocationRequest(data_id=1, pages=24, row_pages=2))
    table = spaces.get(0)
    desc = rec.descriptor
    for pte_vpn in range(rec.start_vpn, rec.end_vpn + 1):
        fields = table.walk(pte_vpn)
        for pending in desc.group_vpns(pte_vpn):
            calc = calculate_pending_pfn(desc, pte_vpn, fields, pending,
                                         mm.chiplet_bases)
            assert calc == table.walk(pending).global_pfn


def test_partial_tail_group_has_partial_bitmap():
    driver, _alloc, spaces, _mm = make_driver()
    rec = driver.malloc(AllocationRequest(data_id=1, pages=3, row_pages=1))
    table = spaces.get(0)
    fields = table.walk(rec.start_vpn)
    assert fields.coal_bitmap == 0b0111  # only 3 of 4 chiplets participate
    assert rec.coalesced_pages == 3


def test_single_page_data_is_not_coalesced():
    driver, _alloc, spaces, _mm = make_driver()
    rec = driver.malloc(AllocationRequest(data_id=1, pages=1))
    fields = spaces.get(0).walk(rec.start_vpn)
    assert fields.coal_bitmap == 0
    assert rec.coalesced_pages == 0
    assert rec.fallback_pages == 1


def test_fallback_when_no_common_frames():
    """When chiplets have disjoint free frames, mapping still succeeds."""
    driver, alloc, spaces, _mm = make_driver(num_chiplets=2, frames=8)
    # Make free sets disjoint: chiplet 0 keeps evens, chiplet 1 keeps odds.
    for pfn in range(8):
        if pfn % 2:
            alloc[0].allocate(pfn)
        else:
            alloc[1].allocate(pfn)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=2))
    assert rec.coalesced_pages == 0
    assert rec.fallback_pages == 4
    table = spaces.get(0)
    for vpn in range(rec.start_vpn, rec.end_vpn + 1):
        assert table.walk(vpn).coal_bitmap == 0


def test_merged_groups_use_consecutive_pfns():
    driver, _alloc, spaces, mm = make_driver(merge=2)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=8, row_pages=2))
    table = spaces.get(0)
    fields0 = table.walk(rec.start_vpn)      # intra 0
    fields1 = table.walk(rec.start_vpn + 1)  # intra 1
    assert fields0.merged_groups == 2
    assert fields1.merged_groups == 2
    assert fields1.global_pfn == fields0.global_pfn + 1
    assert fields1.intra_gpu_coal_order == 1


def test_merged_pfn_calculation_matches_page_table():
    driver, _alloc, spaces, mm = make_driver(merge=2)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=16, row_pages=4))
    table = spaces.get(0)
    desc = rec.descriptor
    from repro.mapping import merged_group_vpns
    for pte_vpn in range(rec.start_vpn, rec.end_vpn + 1):
        fields = table.walk(pte_vpn)
        for pending in merged_group_vpns(desc, pte_vpn, fields):
            calc = calculate_pending_pfn(desc, pte_vpn, fields, pending,
                                         mm.chiplet_bases)
            assert calc == table.walk(pending).global_pfn


def test_merging_respects_fragmentation():
    """No consecutive common runs -> falls back to single groups."""
    driver, alloc, spaces, _mm = make_driver(num_chiplets=2, frames=32, merge=2)
    for pfn in range(0, 32, 2):
        alloc[0].allocate(pfn)  # chiplet 0 free frames are all odd: no runs
    rec = driver.malloc(AllocationRequest(data_id=1, pages=8, row_pages=4))
    table = spaces.get(0)
    assert rec.coalesced_pages == 8  # still coalesced, just not merged
    for vpn in range(rec.start_vpn, rec.end_vpn + 1):
        assert table.walk(vpn).merged_groups == 1


def test_pec_buffer_filled_on_malloc():
    driver, _alloc, _spaces, _mm = make_driver()
    rec = driver.malloc(AllocationRequest(data_id=1, pages=12, row_pages=3))
    desc = driver.pec_buffer.lookup(0, rec.start_vpn + 5)
    assert desc is not None and desc.data_id == 1


def test_non_barre_driver_writes_plain_ptes():
    driver, _alloc, spaces, _mm = make_driver(barre=False)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=12, row_pages=3))
    assert rec.descriptor is None
    table = spaces.get(0)
    for vpn in range(rec.start_vpn, rec.end_vpn + 1):
        assert table.walk(vpn).coal_bitmap == 0


def test_free_releases_frames_and_mappings():
    driver, alloc, spaces, _mm = make_driver(num_chiplets=2, frames=16)
    before = [alloc[c].free_count for c in range(2)]
    driver.malloc(AllocationRequest(data_id=1, pages=8, row_pages=4))
    driver.free(pasid=0, data_id=1)
    assert [alloc[c].free_count for c in range(2)] == before
    assert len(spaces.get(0)) == 0


def test_chiplet_of_tracks_ownership():
    driver, _alloc, _spaces, _mm = make_driver()
    rec = driver.malloc(AllocationRequest(data_id=1, pages=12, row_pages=3))
    assert driver.chiplet_of(0, rec.start_vpn) == 0
    assert driver.chiplet_of(0, rec.start_vpn + 11) == 3
    with pytest.raises(AllocationError):
        driver.chiplet_of(0, 999999)


def test_duplicate_malloc_rejected():
    driver, _alloc, _spaces, _mm = make_driver()
    driver.malloc(AllocationRequest(data_id=1, pages=4))
    with pytest.raises(AllocationError):
        driver.malloc(AllocationRequest(data_id=1, pages=4))


def test_merge_beyond_pte_capacity_rejected():
    with pytest.raises(ConfigError):
        make_driver(merge=5)


def test_extended_layout_limits_chiplets():
    with pytest.raises(ConfigError):
        make_driver(num_chiplets=8, merge=2)


def test_global_pfns_must_fit_the_pte():
    """2**40 global frames fill the PTE's PFN field; one more cannot fit."""
    def driver_for(frames_per_chiplet):
        return GpuDriver(MemoryMap(num_chiplets=4,
                                   frames_per_chiplet=frames_per_chiplet),
                         FrameAllocatorGroup(4, 8), AddressSpaceRegistry(),
                         make_policy(MappingKind.LASP, 4))
    driver_for(1 << 38)
    with pytest.raises(ConfigError, match="40-bit"):
        driver_for((1 << 38) + 1)


class TestMigration:
    def test_migrated_page_leaves_group(self):
        driver, _alloc, spaces, mm = make_driver()
        rec = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=1))
        table = spaces.get(0)
        affected = driver.migrate_page(0, rec.start_vpn, dest=2)
        assert set(affected) == set(range(rec.start_vpn, rec.start_vpn + 4))
        moved = table.walk(rec.start_vpn)
        assert moved.coal_bitmap == 0
        assert mm.base_of(2) <= moved.global_pfn < mm.base_of(3)
        # Siblings dropped the migrated chiplet from their bitmaps.
        for vpn in range(rec.start_vpn + 1, rec.start_vpn + 4):
            assert table.walk(vpn).coal_bitmap == 0b1110

    def test_migrate_to_same_chiplet_is_noop(self):
        driver, _alloc, _spaces, _mm = make_driver()
        rec = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=1))
        assert driver.migrate_page(0, rec.start_vpn, dest=0) == []

    def test_double_migration_does_not_recoalesce(self):
        """A second member migrating must not restore the first one's bits."""
        driver, _alloc, spaces, mm = make_driver()
        rec = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=1))
        table = spaces.get(0)
        driver.migrate_page(0, rec.start_vpn, dest=2)      # member 0 leaves
        driver.migrate_page(0, rec.start_vpn + 1, dest=3)  # member 1 leaves
        first = table.walk(rec.start_vpn)
        assert first.coal_bitmap == 0  # must NOT be re-coalesced
        for vpn in (rec.start_vpn + 2, rec.start_vpn + 3):
            assert table.walk(vpn).coal_bitmap == 0b1100

    def test_calculation_rejects_migrated_member(self):
        driver, _alloc, spaces, mm = make_driver()
        rec = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=1))
        table = spaces.get(0)
        driver.migrate_page(0, rec.start_vpn + 3, dest=0)
        sibling_vpn = rec.start_vpn
        fields = table.walk(sibling_vpn)
        # Calculating the migrated page from a sibling must now fail.
        assert calculate_pending_pfn(rec.descriptor, sibling_vpn, fields,
                                     rec.start_vpn + 3,
                                     mm.chiplet_bases) is None
        # Other members still calculate fine.
        assert calculate_pending_pfn(rec.descriptor, sibling_vpn, fields,
                                     rec.start_vpn + 1, mm.chiplet_bases) \
            == table.walk(rec.start_vpn + 1).global_pfn

    def test_migration_releases_and_claims_frames(self):
        driver, alloc, _spaces, _mm = make_driver(num_chiplets=2, frames=32)
        rec = driver.malloc(AllocationRequest(data_id=1, pages=2, row_pages=1))
        free_before = [alloc[c].free_count for c in range(2)]
        driver.migrate_page(0, rec.start_vpn, dest=1)
        assert alloc[0].free_count == free_before[0] + 1
        assert alloc[1].free_count == free_before[1] - 1


def test_compact_bitmap_for_16_chiplets():
    driver, _alloc, spaces, mm = make_driver(num_chiplets=16, frames=64)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=16, row_pages=1))
    table = spaces.get(0)
    fields = table.walk(rec.start_vpn)
    assert driver.compact_bitmap
    assert fields.coal_bitmap == 16  # sharer count, not a mask
    desc = rec.descriptor
    calc = calculate_pending_pfn(desc, rec.start_vpn, fields,
                                 rec.start_vpn + 15, mm.chiplet_bases,
                                 compact=True)
    assert calc == table.walk(rec.start_vpn + 15).global_pfn


@settings(max_examples=40, deadline=None)
@given(pages=st.integers(min_value=1, max_value=64),
       row_pages=st.integers(min_value=0, max_value=9),
       merge=st.sampled_from([1, 2, 4]),
       chiplets=st.sampled_from([2, 4]))
def test_property_driver_mapping_is_complete_and_consistent(
        pages, row_pages, merge, chiplets):
    """Every allocation maps every page exactly once, to its plan's chiplet,
    and PEC calculation never contradicts the page table."""
    driver, _alloc, spaces, mm = make_driver(
        num_chiplets=chiplets, frames=4096, merge=merge)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=pages,
                                          row_pages=row_pages))
    table = spaces.get(0)
    assert len(table) == pages
    from repro.mapping import merged_group_vpns
    desc = rec.descriptor
    seen_frames = set()
    for vpn in range(rec.start_vpn, rec.end_vpn + 1):
        fields = table.walk(vpn)
        key = fields.global_pfn
        assert key not in seen_frames or fields.coal_bitmap  # frames unique
        seen_frames.add(key)
        expected_chiplet = rec.plan.chiplet_of_offset(vpn - rec.start_vpn)
        assert rec.chiplet_by_vpn[vpn] == expected_chiplet
        if fields.is_coalesced:
            for pending in merged_group_vpns(desc, vpn, fields):
                calc = calculate_pending_pfn(desc, vpn, fields, pending,
                                             mm.chiplet_bases)
                assert calc == table.walk(pending).global_pfn


class TestTypedExceptions:
    """Driver misuse raises typed exceptions, not bare asserts.

    These guards must hold even under ``python -O`` (which strips assert
    statements), so the driver uses explicit raises; the subprocess test
    at the bottom proves the -O behavior for the whole family.
    """

    def test_migrate_to_unknown_chiplet_is_config_error(self):
        driver, _alloc, _spaces, _mm = make_driver(num_chiplets=2)
        rec = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=1))
        for dest in (-1, 2, 99):
            with pytest.raises(ConfigError, match="no chiplet"):
                driver.migrate_page(0, rec.start_vpn, dest=dest)

    def test_migrate_unmaterialized_lazy_page_is_allocation_error(self):
        driver, _alloc, _spaces, _mm = make_driver()
        rec = driver.malloc_lazy(
            AllocationRequest(data_id=1, pages=8, row_pages=2))
        with pytest.raises(AllocationError, match="no materialized frame"):
            driver.migrate_page(0, rec.start_vpn, dest=1)
        # After fault-in the same call succeeds.
        driver.fault_in(0, rec.start_vpn)
        assert driver.migrate_page(0, rec.start_vpn, dest=1)

    def test_unallocated_vpn_is_allocation_error(self):
        driver, _alloc, _spaces, _mm = make_driver()
        with pytest.raises(AllocationError, match="not allocated"):
            driver.record_for(0, 0x4000)

    def test_mapping_without_descriptor_is_invariant_violation(self):
        from repro.common import InvariantViolation
        plain, _a, _s, _m = make_driver(barre=False)
        rec = plain.malloc(AllocationRequest(data_id=1, pages=8, row_pages=2))
        assert rec.descriptor is None
        barre_driver, _a2, _s2, _m2 = make_driver()
        with pytest.raises(InvariantViolation, match="without a descriptor"):
            barre_driver._map_coalesced(rec)

    def test_guards_survive_python_O(self):
        """The raise sites fire with asserts stripped (-O)."""
        import subprocess
        import sys
        program = (
            "from repro.common import AllocationError, ConfigError, "
            "MappingKind, MemoryMap\n"
            "from repro.mapping import (AllocationRequest, "
            "FrameAllocatorGroup, GpuDriver, make_policy)\n"
            "from repro.memsim import AddressSpaceRegistry\n"
            "assert False  # proves -O is active: must NOT raise\n"
            "driver = GpuDriver(MemoryMap(num_chiplets=2, "
            "frames_per_chiplet=64), FrameAllocatorGroup(2, 64), "
            "AddressSpaceRegistry(), make_policy(MappingKind.LASP, 2), "
            "barre_enabled=True, merge_max=1)\n"
            "rec = driver.malloc(AllocationRequest(data_id=1, pages=4, "
            "row_pages=1))\n"
            "try:\n"
            "    driver.migrate_page(0, rec.start_vpn, dest=7)\n"
            "except ConfigError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('ConfigError lost under -O')\n"
            "try:\n"
            "    driver.record_for(0, 0x9000)\n"
            "except AllocationError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('AllocationError lost under -O')\n"
            "print('OK')\n")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", program],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip() == "OK"


def _driver_state_digest(driver) -> str:
    """sha256 over the state ``allocate_workloads`` leaves in a driver.

    Covers every PTE as sorted (pasid, vpn, raw), each chiplet's free
    count, and every record's ``chiplet_by_vpn`` in insertion order.
    """
    import hashlib
    h = hashlib.sha256()
    ptes = sorted((table.pasid, vpn, table.raw_pte(vpn))
                  for table in driver.spaces for vpn, _f in table.mappings())
    h.update(repr(ptes).encode())
    h.update(repr([a.free_count for a in driver.allocators.allocators]).encode())
    for key, record in driver.data.items():
        h.update(repr((key, list(record.chiplet_by_vpn.items()))).encode())
    return h.hexdigest()


def _pin_cases():
    import dataclasses
    from repro.common.addresses import PAGE_SIZE_64K
    from repro.experiments import configs
    from repro.workloads import get_workload
    pair = [get_workload("gemv"),
            dataclasses.replace(get_workload("spmv"), pasid=1)]
    return {
        "baseline-lasp": (configs.baseline(), pair),
        "barre": (configs.barre(), pair),
        "fbarre-merge2": (configs.fbarre(merge=2), pair),
        "fbarre-merge4": (configs.fbarre(merge=4), pair),
        "barre-16-chiplets": (configs.barre(num_chiplets=16), pair),
        "fbarre-chunking": (configs.fbarre(mapping=MappingKind.CHUNKING), pair),
        "fbarre-spmv-x16-64k": (
            configs.fbarre(page_size=PAGE_SIZE_64K, frames_per_chiplet=1 << 18),
            [get_workload("spmv").scaled(16)]),
    }


#: Digests of the driver state after ``allocate_workloads``; a change to
#: how pages are mapped (frame choice, PTE bits, ownership order) moves them.
PINNED_DRIVER_STATE = {
    "baseline-lasp":
        "d605225f3ddb2204f97f90a4bc821cfeb0da10e43436772665e00c66c922d8fc",
    "barre":
        "2a5874bf0bff6ad037d9502621fbfeb4390adb3bafd5abb5bcda51ad5a2beba3",
    "fbarre-merge2":
        "1e481f9ab677235cfd710768d43fbcc9891ea6debfd6800c3eb0a9170ca16137",
    "fbarre-merge4":
        "708ba3affbd4678a724c8e296132bedd403f04666c160106a44b8037293f6a85",
    "barre-16-chiplets":
        "ce8bd5eac63b4c54244d58aad7537657ff72a73a515fd33a2ef7a331b7aed858",
    "fbarre-chunking":
        "4c3b11ca7cca444fa11515b67b68e4cb7abcf4afe90400c82c541e77070d6886",
    "fbarre-spmv-x16-64k":
        "153ee7d0463b628656e9b69c9ff82bc52a3483e518874df86a0ea8832a1dd2a0",
}


@pytest.mark.parametrize("case", sorted(PINNED_DRIVER_STATE))
def test_built_driver_state_is_pinned(case):
    from repro.common.addresses import PAGE_SIZE_4K
    from repro.gpu.mcm import allocate_workloads, build_driver
    config, workloads = _pin_cases()[case]
    driver = build_driver(config)
    allocate_workloads(driver, workloads, config.page_size // PAGE_SIZE_4K)
    assert _driver_state_digest(driver) == PINNED_DRIVER_STATE[case]
