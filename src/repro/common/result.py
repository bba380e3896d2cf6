"""The outcome of one simulation run, as experiments read and cache it.

:class:`SimResult` lives apart from the simulator (:mod:`repro.gpu.mcm`
builds and re-exports it) so that planning a sweep and reading results
back from the cache import neither the simulator nor numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SimulationError
from repro.common.stats import Histogram, LatencyHistogram


@dataclass
class SimResult:
    """Everything an experiment reads out of one simulation run."""

    app: str
    backend: str
    cycles: int
    instructions: float
    l2_misses: int
    l2_lookups: int
    ats_requests: int
    pcie_packets: int
    mesh_packets: int
    walks: int
    pec_coalesced: int
    mean_ats_time: float
    remote_data_fraction: float
    vpn_gaps: Histogram
    migrations: int = 0
    page_faults: int = 0
    pages_per_fault: float = 0.0
    local_coalesced_hits: int = 0
    remote_attempts: int = 0
    remote_hits: int = 0
    lcf_hits: int = 0
    lcf_false_positives: int = 0
    gmmu_local_walks: int = 0
    gmmu_remote_walks: int = 0
    #: Full translation-latency distribution (log2 buckets, all streams
    #: merged).  Always collected — the per-access cost is one counter
    #: bump — so cached sweep results carry p50/p90/p99 tails.
    translation_latency: LatencyHistogram = field(
        default_factory=LatencyHistogram)
    extra: dict = field(default_factory=dict)

    @property
    def mpki(self) -> float:
        """L2 TLB misses per kilo warp instruction (Table I's metric)."""
        if not self.instructions:
            return 0.0
        return self.l2_misses / (self.instructions / 1000.0)

    @property
    def coalesced_fraction(self) -> float:
        answered = self.pec_coalesced + self.walks
        return self.pec_coalesced / answered if answered else 0.0

    @property
    def remote_hit_rate(self) -> float:
        """Peer translation success rate (Fig 17a's RCF metric)."""
        return self.remote_hits / self.remote_attempts if self.remote_attempts else 0.0

    @property
    def lcf_true_positive_rate(self) -> float:
        if not self.lcf_hits:
            return 0.0
        return 1.0 - self.lcf_false_positives / self.lcf_hits

    def speedup_over(self, baseline: "SimResult") -> float:
        if self.cycles <= 0:
            raise SimulationError(f"run {self.app}/{self.backend} has no cycles")
        return baseline.cycles / self.cycles
