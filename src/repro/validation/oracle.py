"""Reference translator: ground-truth PFNs with no translation hardware.

The simulator's entire translation machinery — TLBs, MSHRs, cuckoo
filters, PEC calculation, walk scheduling — is an *accelerator* for one
pure function: look the VPN up in the page table the driver wrote at
allocation time.  This module computes that function directly.

It reuses the exact construction helpers the simulator itself uses
(:func:`repro.gpu.mcm.build_driver`, :func:`~repro.gpu.mcm.allocate_workloads`,
:func:`~repro.gpu.mcm.build_access_trace`), so the replayed access stream
is bit-identical to the one the timing simulation issues: trace building
draws from a fresh ``default_rng(config.seed)`` inside
``build_cta_traces``, so replaying it here reproduces every access
exactly (memoized or not).  What the oracle
*omits* is everything timed — so any disagreement between a simulated
translation and the oracle is a translation-path bug, never a modelling
choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.common.addresses import PAGE_SIZE_4K
from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.gpu.mcm import allocate_workloads, build_access_trace, build_driver
from repro.scenarios.scenario import apply_aging
from repro.workloads.base import Workload


@dataclass(frozen=True)
class RefAccess:
    """One access in canonical replay order, with its ground-truth PFN.

    Canonical order is (chiplet, CTA position, access index) — the order
    :func:`~repro.gpu.mcm.build_access_trace` emits, which both the oracle
    and the differential harness use to name "the first divergent access".
    """

    order: int
    chiplet: int
    cta: int
    index: int
    pasid: int
    vpn: int
    pfn: int

    def describe(self) -> str:
        return (f"access #{self.order} (chiplet {self.chiplet}, "
                f"cta {self.cta}, index {self.index}): "
                f"pasid {self.pasid} vpn {self.vpn:#x}")


class ReferenceResult:
    """Ground truth for one (config, workloads, trace_scale) point."""

    def __init__(self, accesses: list[RefAccess],
                 translations: dict[tuple[int, int], int]) -> None:
        #: Every access, canonical order.
        self.accesses = accesses
        #: ``(pasid, vpn) -> global PFN`` for every accessed page.
        self.translations = translations

    def __len__(self) -> int:
        return len(self.accesses)

    def first_access_of(self, pasid: int, vpn: int) -> RefAccess | None:
        """Earliest canonical access touching ``(pasid, vpn)``."""
        for access in self.accesses:
            if access.pasid == pasid and access.vpn == vpn:
                return access
        return None


def reference_translation(config: SimConfig, workloads: Sequence[Workload],
                          trace_scale: float = 1.0) -> ReferenceResult:
    """Replay allocation + trace generation; walk every access's PTE.

    Pure and timing-free: builds the same driver stack the simulator
    builds, maps the same data, generates the same access stream from a
    fresh seeded RNG, and resolves each access by a direct page-table
    walk.  Raises :class:`ConfigError` for configurations whose page
    tables mutate *during* the run (demand paging, migration) — a static
    ground-truth map does not exist for those.
    """
    if config.demand_paging:
        raise ConfigError("reference translation needs pre-mapped pages; "
                          "demand paging mutates the tables mid-run")
    if config.migration.enabled:
        raise ConfigError("reference translation is undefined under "
                          "migration (PTEs change mid-run)")
    driver = build_driver(config)
    page_scale = config.page_size // PAGE_SIZE_4K
    scenario = (getattr(workloads[0], "scenario", None)
                if len(workloads) == 1 else None)
    accesses: list[RefAccess] = []
    translations: dict[tuple[int, int], int] = {}

    def record(per_chiplet_ctas) -> None:
        order = len(accesses)
        for chiplet, ctas in enumerate(per_chiplet_ctas):
            for cta, trace in enumerate(ctas):
                for index, acc in enumerate(trace):
                    key = (acc.pasid, acc.vpn)
                    pfn = translations.get(key)
                    if pfn is None:
                        pfn = driver.spaces.get(
                            acc.pasid).walk(acc.vpn).global_pfn
                        translations[key] = pfn
                    accesses.append(RefAccess(
                        order=order, chiplet=chiplet, cta=cta, index=index,
                        pasid=acc.pasid, vpn=acc.vpn, pfn=pfn))
                    order += 1

    if scenario is not None:
        # Replay the canonical lifecycle order the simulator schedules.
        # Only lifecycle events mutate driver state (translation never
        # does, and the guards above exclude paging/migration), so each
        # tenant's ground truth is fixed over its whole lifetime and the
        # free-frame pool evolves identically to the timed run.
        apply_aging(driver.allocators, scenario)
        for event in scenario.lifecycle_events():
            if event.kind == "depart":
                driver.destroy_pasid(event.tenant.pasid)
                continue
            workload = event.tenant.workload
            allocate_workloads(driver, [workload], page_scale)
            record(build_access_trace(config, [workload], driver,
                                      page_scale, trace_scale))
        return ReferenceResult(accesses, translations)

    allocate_workloads(driver, workloads, page_scale)
    record(build_access_trace(config, workloads, driver, page_scale,
                              trace_scale))
    return ReferenceResult(accesses, translations)
