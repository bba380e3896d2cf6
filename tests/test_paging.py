"""On-demand paging tests (Section VI extension)."""

import pytest

from repro.common import ConfigError, MappingKind, MemoryMap, SimConfig
from repro.experiments import configs
from repro.gpu import McmGpuSimulator
from repro.mapping import (
    AllocationRequest,
    FrameAllocatorGroup,
    GpuDriver,
    make_policy,
)
from repro.memsim import AddressSpaceRegistry
from repro.paging import DemandPager
from repro.workloads import get_workload
from tests.translation_check import verify_translations


def make_driver(barre=True, num_chiplets=4, frames=512):
    mm = MemoryMap(num_chiplets=num_chiplets, frames_per_chiplet=frames)
    allocators = FrameAllocatorGroup(num_chiplets, frames)
    spaces = AddressSpaceRegistry()
    driver = GpuDriver(mm, allocators, spaces,
                       make_policy(MappingKind.LASP, num_chiplets),
                       barre_enabled=barre)
    return driver, spaces


class TestDriverLazyPath:
    def test_lazy_malloc_maps_nothing(self):
        driver, spaces = make_driver()
        rec = driver.malloc_lazy(AllocationRequest(data_id=1, pages=8,
                                                   row_pages=2))
        assert len(spaces.get(0)) == 0
        assert rec.descriptor is not None
        assert driver.pec_buffer.lookup(0, rec.start_vpn) is not None

    def test_fault_in_maps_whole_group_under_barre(self):
        driver, spaces = make_driver(barre=True)
        rec = driver.malloc_lazy(AllocationRequest(data_id=1, pages=8,
                                                   row_pages=2))
        mapped = driver.fault_in(0, rec.start_vpn)
        # Group of vpn: one page per chiplet (gran 2 -> members 0,2,4,6).
        assert sorted(mapped) == [rec.start_vpn + i for i in (0, 2, 4, 6)]
        table = spaces.get(0)
        for vpn in mapped:
            assert table.walk(vpn).is_coalesced

    def test_each_fault_returns_only_its_group_in_member_order(self):
        """Later faults report their own group, not pages mapped earlier."""
        driver, spaces = make_driver(barre=True)
        rec = driver.malloc_lazy(AllocationRequest(data_id=1, pages=16,
                                                   row_pages=2))
        seen = []
        for vpn in range(rec.start_vpn, rec.end_vpn + 1):
            mapped = driver.fault_in(0, vpn)
            if mapped:
                rnd, _inter, intra = rec.descriptor.position(vpn)
                assert mapped == [rec.descriptor.vpn_at(rnd, j, intra)
                                  for j in range(4)]
            seen += mapped
        assert sorted(seen) == list(range(rec.start_vpn, rec.end_vpn + 1))
        assert len(spaces.get(0)) == 16

    def test_fault_in_is_idempotent(self):
        driver, _spaces = make_driver()
        rec = driver.malloc_lazy(AllocationRequest(data_id=1, pages=4))
        assert driver.fault_in(0, rec.start_vpn)
        assert driver.fault_in(0, rec.start_vpn) == []
        assert driver.fault_in(0, rec.start_vpn + 1) == []  # same group

    def test_fault_in_single_page_without_barre(self):
        driver, spaces = make_driver(barre=False)
        rec = driver.malloc_lazy(AllocationRequest(data_id=1, pages=8,
                                                   row_pages=2))
        mapped = driver.fault_in(0, rec.start_vpn)
        assert mapped == [rec.start_vpn]
        assert len(spaces.get(0)) == 1

    def test_chiplet_of_falls_back_to_plan_before_fault(self):
        driver, _spaces = make_driver()
        rec = driver.malloc_lazy(AllocationRequest(data_id=1, pages=8,
                                                   row_pages=2))
        # gran 2: offsets 0-1 -> chiplet 0, 2-3 -> chiplet 1, ...
        assert driver.chiplet_of(0, rec.start_vpn + 2) == 1


class TestDemandPager:
    def test_group_fetch_amortization(self):
        driver, _spaces = make_driver(barre=True)
        pager = DemandPager(driver, fault_latency=1000)
        pager.malloc(AllocationRequest(data_id=1, pages=8, row_pages=2))
        rec = driver.data[(0, 1)]
        assert pager.handle_fault(0, rec.start_vpn) == 1000
        assert pager.pages_per_fault() == 4.0
        assert pager.stats.count("group_fetches") == 1

    def test_rejects_bad_latency(self):
        driver, _spaces = make_driver()
        with pytest.raises(ConfigError):
            DemandPager(driver, fault_latency=0)


class TestEndToEnd:
    def test_demand_paging_runs_and_faults(self):
        cfg = configs.baseline(demand_paging=True, fault_latency=2000)
        result = verify_translations(McmGpuSimulator(
            cfg, [get_workload("fft")], trace_scale=0.05)).run()
        assert result.page_faults > 0
        assert result.pages_per_fault >= 1.0

    def test_barre_groups_amortize_faults(self):
        """Group-granular fetch: F-Barre takes far fewer faults."""
        base = McmGpuSimulator(
            configs.baseline(demand_paging=True),
            [get_workload("fft")], trace_scale=0.05).run()
        chord = McmGpuSimulator(
            configs.fbarre(demand_paging=True),
            [get_workload("fft")], trace_scale=0.05).run()
        assert chord.pages_per_fault > 1.5
        assert chord.page_faults < base.page_faults
        assert chord.cycles < base.cycles

    def test_demand_paging_with_gmmu(self):
        cfg = configs.mgvm(barre_chord=True).replace(demand_paging=True)
        result = verify_translations(McmGpuSimulator(
            cfg, [get_workload("fft")], trace_scale=0.05)).run()
        assert result.page_faults > 0

    def test_demand_paging_excludes_migration(self):
        with pytest.raises(ConfigError):
            SimConfig(demand_paging=True,
                      migration=SimConfig().migration.__class__(enabled=True))
