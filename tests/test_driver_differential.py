"""Differential check: the one-pass mapping against a frozen group-by-group copy.

``tests/reference_driver.py`` keeps the driver's mapping pass as it stood
before each data object was mapped from one common-free byte map.  Both
drivers map the same Table I data objects, plus odd-sized ones whose last
round is partial, and after every ``malloc`` their PTEs (in insertion
order), every record's ``chiplet_by_vpn`` (in insertion order) and page
counts, and every chiplet's free map and free count must agree.

The allocators start pristine or fragmented by :func:`apply_aging` at
several fractions, so the common-free maps run dry part-way and groups
fall back to per-member frames.  The configurations cover merge 1/2/4
(contiguity-aware expansion), 16 chiplets (the compact bitmap) and 64 KB
pages.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.common import MappingKind
from repro.common.addresses import PAGE_SIZE_4K, PAGE_SIZE_64K
from repro.experiments import configs
from repro.gpu.mcm import build_driver
from repro.mapping import AllocationRequest, GpuDriver
from repro.scenarios.scenario import AgingPlan, Scenario, TenantPlan, apply_aging
from repro.workloads import get_workload
from tests.reference_driver import ReferenceDriver

#: Small frame windows, so the larger objects exhaust the common-free
#: frames of an aged allocator.
FRAMES = 16384

CONFIGS = {
    "barre": lambda: configs.barre(frames_per_chiplet=FRAMES),
    "fbarre-merge2": lambda: configs.fbarre(merge=2,
                                            frames_per_chiplet=FRAMES),
    "fbarre-merge4": lambda: configs.fbarre(merge=4,
                                            frames_per_chiplet=FRAMES),
    "fbarre-merge4-chunking": lambda: configs.fbarre(
        merge=4, mapping=MappingKind.CHUNKING, frames_per_chiplet=FRAMES),
    "barre-16-chiplets": lambda: configs.barre(num_chiplets=16,
                                               frames_per_chiplet=FRAMES),
    "fbarre-64k": lambda: configs.fbarre(page_size=PAGE_SIZE_64K,
                                         frames_per_chiplet=FRAMES),
    "baseline": lambda: configs.baseline(frames_per_chiplet=FRAMES),
}

FRACTIONS = (0.0, 0.3, 0.6, 0.9)


def _requests(config) -> list[AllocationRequest]:
    """Table I data objects, then odd sizes with partial last rounds."""
    page_scale = config.page_size // PAGE_SIZE_4K
    requests = [
        r for pasid, app in enumerate(("gemv", "spmv", "fft", "st2d"))
        for r in dataclasses.replace(get_workload(app), pasid=pasid)
        .requests(page_scale)]
    odd = [AllocationRequest(data_id=i, pages=pages, row_pages=row, pasid=9)
           for i, (pages, row) in enumerate(
               [(1, 0), (3, 1), (13, 3), (37, 2), (250, 7), (1021, 16),
                (2050, 64)])]
    return requests + odd


def _driver(cls, config, fraction: float) -> GpuDriver:
    base = build_driver(config)
    if fraction:
        tenant = TenantPlan(get_workload("gemv"))
        apply_aging(base.allocators, Scenario(
            name="aged", seed=7, tenants=(tenant,),
            aging=AgingPlan(fraction=fraction)))
    return cls(base.memory_map, base.allocators, base.spaces, base.policy,
               barre_enabled=base.barre_enabled, merge_max=base.merge_max,
               pec_buffer_entries=config.pec_buffer_entries)


def _state(driver: GpuDriver) -> tuple:
    tables = [(t.pasid, list(t._ptes.items())) for t in driver.spaces]
    records = [(key, r.start_vpn, r.coalesced_pages, r.fallback_pages,
                list(r.chiplet_by_vpn.items()))
               for key, r in driver.data.items()]
    frames = [(bytes(a.free_map), a.free_count)
              for a in driver.allocators.allocators]
    return tables, records, frames


def _compare(case: str, fraction: float) -> Counter:
    """Map every request through both drivers; returns the branches the
    reference took."""
    config = CONFIGS[case]()
    fast = _driver(GpuDriver, config, fraction)
    ref = _driver(ReferenceDriver, config, fraction)
    assert _state(fast) == _state(ref)
    for request in _requests(config):
        assert fast.malloc(request).num_pages == ref.malloc(request).num_pages
        assert _state(fast) == _state(ref), (
            f"{case} at aging {fraction}: state diverged after data "
            f"{request.data_id} ({request.pages} pages)")
    return ref.branches


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_mapping_matches_reference(case: str, fraction: float) -> None:
    _compare(case, fraction)


def test_cases_reach_every_branch() -> None:
    """The inputs above reach the tail-group, no-merge-run and
    per-member-fallback branches (and the merged and coalesced ones)."""
    branches = _compare("fbarre-merge4", 0.9)
    for branch in ("tail_group", "no_merge_run", "fallback", "merged_run",
                   "coalesced_group"):
        assert branches[branch] > 0, (branch, branches)
