"""Output checks for every benchmark op.

A simulated point is correct when its serialized ``SimResult`` hashes to
the digest pinned in ``digests.json`` — pinned for one ``SIM_VERSION`` and
config seed :data:`PINNED_SEED`.  Under any other version or seed there is
no pinned answer, so the walk/ATS conservation identities are checked
instead.  A warm cache hit is correct when it serializes to the same bytes
as the cold result it was filled from.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.experiments.runner import SIM_VERSION, _serialize

PINNED_SEED = 2024
DIGESTS = Path(__file__).with_name("digests.json")


def payload_digest(result) -> str:
    """SHA-256 of the bytes the result cache would store for ``result``."""
    return hashlib.sha256(json.dumps(_serialize(result)).encode()).hexdigest()


def load_pins(workload: str, seed: int) -> dict[str, str] | None:
    """Pinned ``label -> digest`` for this workload, or None when the
    current ``SIM_VERSION`` or ``seed`` has no pinned answers."""
    if seed != PINNED_SEED or not DIGESTS.exists():
        return None
    pinned = json.loads(DIGESTS.read_text())
    if pinned.get("sim_version") != SIM_VERSION \
            or pinned.get("seed") != PINNED_SEED:
        return None
    return pinned["workloads"].get(workload)


def point_errors(label: str, result, pins: dict[str, str] | None,
                 sim=None) -> list[str]:
    """Why the point ``label`` is wrong; empty when it checks out."""
    if pins is not None:
        expected = pins.get(label)
        actual = payload_digest(result)
        if expected != actual:
            return [f"{label}: digest {actual[:12]} != pinned "
                    f"{(expected or 'none')[:12]}"]
        return []
    return [f"{label}: {e}" for e in conservation_errors(result, sim)]


def conservation_errors(result, sim=None) -> list[str]:
    """The walk/ATS identities a correct run satisfies.

    With the simulator object at hand (in-process points) the full
    single-tenant walk law is checked against the result's own fields:
    every ATS request the walkers admitted is answered by exactly one of a
    new walk, a merge into an in-flight walk, a PEC calculation, an IOMMU
    TLB hit, or a dropped prefetch.  From a result alone (points simulated
    by ``sweep()``) the identities are those its fields determine.
    """
    errors = []
    ats, walks, pec = (result.ats_requests, result.walks,
                       result.pec_coalesced)
    if walks + pec > ats:
        errors.append(f"walks {walks} + pec {pec} > ats_requests {ats}")
    if result.remote_hits > result.remote_attempts:
        errors.append("remote_hits > remote_attempts")
    if result.lcf_false_positives > result.lcf_hits:
        errors.append("lcf_false_positives > lcf_hits")
    accesses = result.translation_latency.total()
    if sim is not None:
        sources = [sim.iommu] if sim.iommu is not None else list(sim.gmmus)
        count = lambda key: sum(src.stats.count(key) for src in sources)
        answered = (walks + count("walk_merges") + pec
                    + count("iommu_tlb_hits") + count("prefetches_dropped")
                    + count("teardown_flushed"))
        if answered != ats:
            errors.append(f"walk law: ats_requests {ats} != {answered} "
                          f"answered")
        if sim.iommu is not None and (sim.pcie.up.packets_sent != ats
                                      or result.pcie_packets
                                      != sim.pcie.packets_sent):
            errors.append(f"ATS law: {sim.pcie.up.packets_sent} requests "
                          f"sent upstream, {ats} admitted")
        issued = sum(s.stats.count("issued") for s in sim.streams)
        if issued != accesses:
            errors.append(f"{issued} accesses issued, {accesses} translated")
        return errors
    if result.pcie_packets:
        # IOMMU path: every request crosses PCIe up and every answer down;
        # only Valkyrie's dropped prefetches go unanswered.
        if result.pcie_packets > 2 * ats or (
                result.backend != "valkyrie"
                and result.pcie_packets != 2 * ats):
            errors.append(f"ATS law: {result.pcie_packets} PCIe packets "
                          f"for {ats} requests")
        if result.vpn_gaps.total() != max(ats - 1, 0):
            errors.append(f"{result.vpn_gaps.total()} arrival gaps for "
                          f"{ats} requests")
    elif result.vpn_gaps.total() >= max(ats, 1):
        errors.append(f"{result.vpn_gaps.total()} arrival gaps for "
                      f"{ats} requests")
    return errors
