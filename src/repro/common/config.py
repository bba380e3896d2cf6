"""Simulation configuration (paper Table II defaults).

Everything an experiment can vary lives here, as frozen-ish dataclasses with
validation in ``__post_init__``.  ``SimConfig.baseline()`` reproduces the
paper's Table II; each figure's bench constructs variants via
``dataclasses.replace``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum

from repro.common.addresses import PAGE_SIZE_4K, SUPPORTED_PAGE_SIZES
from repro.common.errors import ConfigError


class BackendKind(str, Enum):
    """Which translation scheme serves L2 TLB misses."""

    BASELINE = "baseline"          # private TLBs, plain IOMMU
    SHARED_L2 = "shared_l2"        # hypothetical ideal shared L2 TLB (Fig 6)
    VALKYRIE = "valkyrie"          # intra-chiplet L1 probing + L2 prefetch
    LEAST = "least"                # inter-chiplet L2 sharing w/ cuckoo tracker
    BARRE = "barre"                # IOMMU-side coalesced translation
    FBARRE = "fbarre"              # Barre + intra-MCM translation (LCF/RCF)


class MappingKind(str, Enum):
    """Page/CTA mapping policy (Section II-B)."""

    LASP = "lasp"
    CODA = "coda"
    ROUND_ROBIN = "round_robin"
    CHUNKING = "chunking"          # kernel-wide chunking [30]


@dataclass(frozen=True)
class TlbConfig:
    """One TLB level."""

    entries: int
    ways: int
    lookup_latency: int
    mshrs: int

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.ways <= 0:
            raise ConfigError(f"TLB needs positive geometry: {self}")
        if self.entries % self.ways:
            raise ConfigError(f"entries {self.entries} not divisible by ways {self.ways}")
        if self.lookup_latency < 0 or self.mshrs <= 0:
            raise ConfigError(f"bad TLB latency/mshrs: {self}")

    @property
    def sets(self) -> int:
        return self.entries // self.ways


@dataclass(frozen=True)
class IommuConfig:
    """Host IOMMU: page-walk queue and walkers (Table II)."""

    num_ptws: int = 16
    walk_latency: int = 500
    pw_queue_entries: int = 48
    #: Optional IOMMU-side TLB (Section VII-J): 0 entries disables it.
    tlb_entries: int = 0
    tlb_latency: int = 200
    #: Coalescing-aware PTW scheduling (Section V-C, F-Barre only).
    coalescing_aware_scheduling: bool = False

    def __post_init__(self) -> None:
        if self.num_ptws <= 0 or self.walk_latency <= 0:
            raise ConfigError(f"bad IOMMU walker config: {self}")
        if self.pw_queue_entries <= 0:
            raise ConfigError("PW-queue needs at least one entry")
        if self.tlb_entries < 0:
            raise ConfigError("IOMMU TLB entries must be >= 0")


@dataclass(frozen=True)
class LinkConfig:
    """A latency + serialization link (PCIe or inter-chiplet mesh)."""

    latency: int
    #: Cycles of serialization per packet; models finite bandwidth.
    cycles_per_packet: int = 1

    def __post_init__(self) -> None:
        if self.latency < 0 or self.cycles_per_packet < 0:
            raise ConfigError(f"bad link config: {self}")


@dataclass(frozen=True)
class CuckooConfig:
    """Cuckoo filter geometry (Table II: 9-bit fp, 4-way, 256 rows)."""

    rows: int = 256
    ways: int = 4
    fingerprint_bits: int = 9
    max_kicks: int = 64

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.rows & (self.rows - 1):
            raise ConfigError(f"cuckoo rows must be a power of two: {self.rows}")
        if not 1 <= self.fingerprint_bits <= 32:
            raise ConfigError(f"bad fingerprint width: {self.fingerprint_bits}")
        if self.ways <= 0 or self.max_kicks <= 0:
            raise ConfigError(f"bad cuckoo config: {self}")

    @property
    def capacity(self) -> int:
        return self.rows * self.ways


@dataclass(frozen=True)
class MigrationConfig:
    """Counter-based page migration (ACUD-like, Section VII-G)."""

    enabled: bool = False
    threshold: int = 16
    #: Mesh-occupancy cycles per 4 KB of copied data (768 GB/s-class link).
    page_copy_latency: int = 8
    #: Fixed per-migration cost: fault handling + shootdown round trips.
    copy_fixed_overhead: int = 500

    def __post_init__(self) -> None:
        if self.threshold <= 0 or self.page_copy_latency <= 0:
            raise ConfigError(f"bad migration config: {self}")
        if self.copy_fixed_overhead < 0:
            raise ConfigError(f"bad migration overhead: {self}")


@dataclass(frozen=True)
class MemoryMap:
    """Physical memory layout: per-chiplet frame windows."""

    num_chiplets: int
    frames_per_chiplet: int

    def __post_init__(self) -> None:
        if self.num_chiplets <= 0 or self.frames_per_chiplet <= 0:
            raise ConfigError(f"bad memory map: {self}")

    @property
    def chiplet_bases(self) -> tuple[int, ...]:
        """Global base PFN of each chiplet (Fig 7a's global PFN map)."""
        return tuple(i * self.frames_per_chiplet for i in range(self.num_chiplets))

    def base_of(self, chiplet: int) -> int:
        if not 0 <= chiplet < self.num_chiplets:
            raise ConfigError(f"no chiplet {chiplet}")
        return chiplet * self.frames_per_chiplet


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulation configuration.

    Defaults reproduce the paper's Table II, with the compute side scaled to
    streams (see DESIGN.md Section 5).
    """

    num_chiplets: int = 4
    streams_per_chiplet: int = 8
    #: Max in-flight accesses per stream (stand-in for warp-level MLP).
    stream_window: int = 16
    page_size: int = PAGE_SIZE_4K
    #: Frames per chiplet memory: 2^16 x 4 KB = 256 MB per chiplet, ample
    #: for the calibrated workloads (raise for 16x-scaled inputs, Fig 24).
    frames_per_chiplet: int = 1 << 16

    l1_tlb: TlbConfig = field(default_factory=lambda: TlbConfig(
        entries=64, ways=64, lookup_latency=1, mshrs=16))
    l2_tlb: TlbConfig = field(default_factory=lambda: TlbConfig(
        entries=512, ways=16, lookup_latency=10, mshrs=16))

    iommu: IommuConfig = field(default_factory=IommuConfig)
    pcie: LinkConfig = field(default_factory=lambda: LinkConfig(
        latency=150, cycles_per_packet=2))
    mesh: LinkConfig = field(default_factory=lambda: LinkConfig(
        latency=32, cycles_per_packet=1))

    #: DRAM access latency in cycles (Table II: 100 ns ~ 100+ GPU cycles).
    dram_latency: int = 100
    #: Per-access serialization at each chiplet's DRAM (finite bandwidth;
    #: 1 TBps-class HBM serving page-touch bursts).
    dram_serialization: int = 2

    cuckoo: CuckooConfig = field(default_factory=CuckooConfig)
    #: PEC buffer entries (Table II: 5 entries of 118 bits).
    pec_buffer_entries: int = 5
    #: Max merged coalescing groups (Table II default 2; 1 = no merging).
    merged_coal_groups: int = 2

    backend: BackendKind = BackendKind.BASELINE
    mapping: MappingKind = MappingKind.LASP
    migration: MigrationConfig = field(default_factory=MigrationConfig)

    #: On-demand paging (Section VI extension): data is allocated lazily
    #: and materialized by demand faults; under Barre/F-Barre a fault
    #: fetches the whole coalescing group.
    demand_paging: bool = False
    #: Host fault-service latency in cycles (tens of microseconds on real
    #: GPUs; scaled to this simulator's cycle granularity).
    fault_latency: int = 5000

    #: Use per-chiplet GMMUs (MGvm-style, Section VII-F) instead of the host
    #: IOMMU.  Composes with Barre/F-Barre backends.
    gmmu: bool = False
    #: GMMU walkers per chiplet (MGvm distributes the IOMMU's walkers).
    gmmu_ptws_per_chiplet: int = 4

    #: Peer coalescing-information sharing (F-Barre).  "oracle" delivers
    #: filter updates and peer replies at fixed latency without consuming
    #: mesh bandwidth (Fig 19's comparison point).
    oracle_sharing: bool = False

    seed: int = 2024

    def __post_init__(self) -> None:
        if self.num_chiplets <= 0:
            raise ConfigError("need at least one chiplet")
        if self.page_size not in SUPPORTED_PAGE_SIZES:
            raise ConfigError(f"unsupported page size {self.page_size}")
        if self.streams_per_chiplet <= 0 or self.stream_window <= 0:
            raise ConfigError("streams and window must be positive")
        if self.merged_coal_groups < 1:
            raise ConfigError("merged_coal_groups must be >= 1")
        if self.pec_buffer_entries <= 0:
            raise ConfigError("PEC buffer needs at least one entry")
        if self.dram_latency <= 0:
            raise ConfigError("DRAM latency must be positive")
        if self.frames_per_chiplet <= 0:
            raise ConfigError("frames_per_chiplet must be positive")
        if self.gmmu_ptws_per_chiplet <= 0:
            raise ConfigError("GMMU needs at least one walker per chiplet")
        if self.fault_latency <= 0:
            raise ConfigError("fault latency must be positive")
        if self.demand_paging and self.migration.enabled:
            raise ConfigError(
                "demand paging and migration are separate studies; "
                "enable one at a time")

    @classmethod
    def baseline(cls, **overrides: object) -> "SimConfig":
        """The paper's Table II configuration."""
        return cls(**overrides)  # type: ignore[arg-type]

    def replace(self, **changes: object) -> "SimConfig":
        """Convenience wrapper over :func:`dataclasses.replace`."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    @property
    def memory_map(self) -> MemoryMap:
        return MemoryMap(self.num_chiplets, self.frames_per_chiplet)

    @property
    def total_streams(self) -> int:
        return self.num_chiplets * self.streams_per_chiplet
