"""Canonical configurations for the paper's evaluated schemes."""

from __future__ import annotations

import dataclasses

from repro.common.config import (
    BackendKind,
    MappingKind,
    MigrationConfig,
    SimConfig,
)
from repro.common.addresses import PAGE_SIZE_2M


def baseline(**overrides) -> SimConfig:
    """Table II baseline: private TLBs, plain IOMMU, LASP."""
    return SimConfig.baseline().replace(**overrides)


def valkyrie(**overrides) -> SimConfig:
    """Valkyrie [8] extended with inter-L1 sharing + L2 prefetch."""
    return baseline(backend=BackendKind.VALKYRIE, **overrides)


def least(**overrides) -> SimConfig:
    """Least [27]: inter-chiplet L2 sharing with an ideal tracker."""
    return baseline(backend=BackendKind.LEAST, **overrides)


def shared_l2(**overrides) -> SimConfig:
    """The hypothetical ideal shared L2 TLB of Fig 6."""
    return baseline(backend=BackendKind.SHARED_L2, **overrides)


def barre(*, scheduling: bool = False, **overrides) -> SimConfig:
    """Barre: IOMMU-side coalesced translation only (Section IV)."""
    cfg = baseline(backend=BackendKind.BARRE, **overrides)
    return cfg.replace(iommu=dataclasses.replace(
        cfg.iommu, coalescing_aware_scheduling=scheduling))


def fbarre(*, merge: int = 2, scheduling: bool = True,
           oracle_sharing: bool = False, **overrides) -> SimConfig:
    """F-Barre: intra-MCM translation + PTW scheduling (Section V).

    ``merge=1`` is the paper's F-Barre-NoMerge; 2 and 4 are
    F-Barre-2Merge/4Merge.  Contiguity-aware merging only fits the PTE up
    to 4 chiplets (Section VI), so merge is forced to 1 beyond that.
    """
    cfg = baseline(backend=BackendKind.FBARRE,
                   oracle_sharing=oracle_sharing, **overrides)
    if cfg.num_chiplets > 4:
        merge = 1
    cfg = cfg.replace(merged_coal_groups=merge)
    return cfg.replace(iommu=dataclasses.replace(
        cfg.iommu, coalescing_aware_scheduling=scheduling))


def with_migration(cfg: SimConfig, threshold: int = 16) -> SimConfig:
    """Enable ACUD-style counter-based migration (Section VII-G)."""
    return cfg.replace(migration=MigrationConfig(enabled=True,
                                                 threshold=threshold))


def superpage(**overrides) -> SimConfig:
    """2 MB super pages on the baseline backend (Figs 2 and 25)."""
    return baseline(page_size=PAGE_SIZE_2M, **overrides)


def mgvm(*, barre_chord: bool = False, **overrides) -> SimConfig:
    """MGvm [41]: per-chiplet GMMUs with coarse (chunked) mapping.

    ``barre_chord=True`` integrates Barre Chord into the GMMUs (Fig 21).
    """
    backend = BackendKind.FBARRE if barre_chord else BackendKind.BASELINE
    cfg = baseline(gmmu=True, mapping=MappingKind.CHUNKING,
                   backend=backend, **overrides)
    if barre_chord:
        cfg = cfg.replace(iommu=dataclasses.replace(
            cfg.iommu, coalescing_aware_scheduling=True))
    return cfg


def with_iommu_tlb(cfg: SimConfig, entries: int = 2048,
                   latency: int = 200) -> SimConfig:
    """Add the Section VII-J IOMMU TLB."""
    return cfg.replace(iommu=dataclasses.replace(
        cfg.iommu, tlb_entries=entries, tlb_latency=latency))


def with_ptws(cfg: SimConfig, num_ptws: int) -> SimConfig:
    return cfg.replace(iommu=dataclasses.replace(cfg.iommu,
                                                 num_ptws=num_ptws))


def with_l2_mshrs(cfg: SimConfig, mshrs: int) -> SimConfig:
    return cfg.replace(l2_tlb=dataclasses.replace(cfg.l2_tlb, mshrs=mshrs))


def with_cuckoo_rows(cfg: SimConfig, rows: int) -> SimConfig:
    return cfg.replace(cuckoo=dataclasses.replace(cfg.cuckoo, rows=rows))


#: The named schemes the CLI accepts, by name.
SCHEMES = {
    "baseline": baseline,
    "shared-l2": shared_l2,
    "valkyrie": valkyrie,
    "least": least,
    "barre": barre,
    "fbarre": fbarre,
    "mgvm": mgvm,
}
