"""End-to-end integration tests of the MCM-GPU simulator.

Every backend is run on small traces with per-access PFN verification
against the page table — the strongest correctness check the system has:
a Barre/F-Barre *calculated* translation that disagrees with the page
table fails the run immediately.
"""

import pytest

from repro.common import BackendKind, ConfigError, MappingKind, SimConfig
from repro.experiments import configs
from repro.gpu import McmGpuSimulator
from repro.workloads import get_workload
from tests.translation_check import verify_translations

SCALE = 0.08  # small but exercises every path

ALL_BACKENDS = [
    configs.baseline(),
    configs.shared_l2(),
    configs.valkyrie(),
    configs.least(),
    configs.barre(),
    configs.barre(scheduling=True),
    configs.fbarre(merge=1),
    configs.fbarre(merge=2),
    configs.fbarre(merge=4),
    configs.mgvm(),
    configs.mgvm(barre_chord=True),
    configs.with_iommu_tlb(configs.fbarre()),
]


@pytest.mark.parametrize("cfg", ALL_BACKENDS,
                         ids=lambda c: f"{c.backend.value}"
                         f"{'-gmmu' if c.gmmu else ''}"
                         f"-m{c.merged_coal_groups}"
                         f"{'-tlb' if c.iommu.tlb_entries else ''}")
@pytest.mark.parametrize("app", ["fft", "st2d", "spmv"])
def test_every_backend_translates_correctly(cfg, app):
    """All schemes drain the trace and never deliver a wrong PFN."""
    sim = verify_translations(
        McmGpuSimulator(cfg, [get_workload(app)], trace_scale=SCALE))
    result = sim.run()
    assert result.cycles > 0
    assert result.l2_misses <= result.l2_lookups


def test_same_seed_is_deterministic():
    cfg = configs.fbarre()
    runs = [McmGpuSimulator(cfg, [get_workload("st2d")],
                            trace_scale=SCALE).run() for _ in range(2)]
    assert runs[0].cycles == runs[1].cycles
    assert runs[0].pcie_packets == runs[1].pcie_packets


def test_different_seed_changes_random_workloads():
    a = McmGpuSimulator(configs.baseline(), [get_workload("gups")],
                        trace_scale=SCALE).run()
    b = McmGpuSimulator(configs.baseline(seed=7), [get_workload("gups")],
                        trace_scale=SCALE).run()
    assert a.cycles != b.cycles


def test_data_access_counts_invariant_across_backends():
    """Translation schemes change *how* VPNs resolve, never what is accessed."""
    def accesses(cfg):
        sim = McmGpuSimulator(cfg, [get_workload("fft")], trace_scale=SCALE)
        sim.run()
        return (sim.fabric.stats.count("local_accesses")
                + sim.fabric.stats.count("remote_accesses"))

    counts = {accesses(configs.baseline()), accesses(configs.barre()),
              accesses(configs.fbarre())}
    assert len(counts) == 1


def test_barre_reduces_walks():
    base = McmGpuSimulator(configs.baseline(), [get_workload("st2d")],
                           trace_scale=SCALE).run()
    barre = McmGpuSimulator(configs.barre(), [get_workload("st2d")],
                            trace_scale=SCALE).run()
    assert barre.walks < base.walks
    assert barre.pec_coalesced > 0


def test_fbarre_reduces_pcie_traffic():
    base = McmGpuSimulator(configs.baseline(), [get_workload("st2d")],
                           trace_scale=SCALE).run()
    fb = McmGpuSimulator(configs.fbarre(), [get_workload("st2d")],
                         trace_scale=SCALE).run()
    assert fb.pcie_packets < base.pcie_packets
    assert fb.local_coalesced_hits + fb.remote_hits > 0


def test_gmmu_mode_sends_no_pcie_traffic():
    sim = McmGpuSimulator(configs.mgvm(), [get_workload("fft")],
                          trace_scale=SCALE)
    result = sim.run()
    assert result.pcie_packets == 0
    assert result.gmmu_local_walks + result.gmmu_remote_walks > 0


def test_gmmu_chunking_keeps_most_walks_local():
    sim = McmGpuSimulator(configs.mgvm(), [get_workload("fft")],
                          trace_scale=SCALE)
    result = sim.run()
    total = result.gmmu_local_walks + result.gmmu_remote_walks
    assert result.gmmu_local_walks > total * 0.5


def test_migration_runs_and_migrates():
    # pr's zipf-hot rank pages draw remote accesses past the threshold.
    cfg = configs.with_migration(configs.baseline(), threshold=4)
    sim = McmGpuSimulator(cfg, [get_workload("pr")], trace_scale=SCALE)
    result = sim.run()
    assert result.migrations > 0


def test_migration_engine_sees_every_remote_access(monkeypatch):
    """The fabric notes each remote access, and only those, to migration."""
    from repro.migration.acud import MigrationEngine
    noted = []
    real_note_access = MigrationEngine.note_access

    def note_access(self, accessor, owner, pasid, vpn):
        noted.append(accessor != owner)
        real_note_access(self, accessor, owner, pasid, vpn)

    monkeypatch.setattr(MigrationEngine, "note_access", note_access)
    cfg = configs.with_migration(configs.baseline(), threshold=4)
    sim = McmGpuSimulator(cfg, [get_workload("pr")], trace_scale=SCALE)
    result = sim.run()
    assert result.migrations > 0
    assert all(noted)
    assert len(noted) == sim.fabric.stats.count("remote_accesses") > 0


@pytest.mark.parametrize("app", ["gemv", "churn-min"])
def test_pfn_observer_set_after_build_sees_every_translation(app):
    """An observer attached after build sees each delivered translation
    once, including those of streams a tenant arrival builds mid-run."""
    from repro.scenarios import ScenarioWorkload, named_scenario
    scenario = app == "churn-min"
    workload = (ScenarioWorkload.from_scenario(named_scenario(app))
                if scenario else get_workload(app))
    sim = McmGpuSimulator(configs.fbarre(), [workload], trace_scale=SCALE)
    assert bool(sim.streams) is not scenario
    seen = []
    sim.pfn_observer = lambda *access: seen.append(access)
    result = sim.run()
    assert seen
    assert len(seen) == result.translation_latency.total()


def test_migration_with_fbarre_stays_correct():
    """Migrated pages leave their groups; translations still complete."""
    cfg = configs.with_migration(configs.fbarre(), threshold=4)
    result = McmGpuSimulator(cfg, [get_workload("pr")],
                             trace_scale=SCALE).run()
    assert result.cycles > 0
    assert result.migrations > 0


def test_multiapp_runs_with_distinct_pasids():
    first = get_workload("gemv")
    second = get_workload("fft")
    second.pasid = 1
    result = verify_translations(McmGpuSimulator(
        configs.fbarre(), [first, second], trace_scale=SCALE)).run()
    assert result.app == "gemv+fft"
    assert result.cycles > 0


def test_duplicate_pasids_rejected():
    with pytest.raises(ConfigError):
        McmGpuSimulator(configs.baseline(),
                        [get_workload("gemv"), get_workload("fft")])


def test_verify_helper_rejects_migration():
    sim = McmGpuSimulator(configs.with_migration(configs.baseline()),
                          [get_workload("gemv")], trace_scale=SCALE)
    with pytest.raises(ConfigError):
        verify_translations(sim)
    assert sim.pfn_observer is None


def test_chiplet_scaling_configs_build():
    for chiplets in (2, 8, 16):
        cfg = configs.fbarre(num_chiplets=chiplets)
        result = verify_translations(McmGpuSimulator(
            cfg, [get_workload("fft")], trace_scale=SCALE)).run()
        assert result.cycles > 0


def test_page_sizes_run():
    from repro.common import PAGE_SIZE_2M, PAGE_SIZE_64K
    for size in (PAGE_SIZE_64K, PAGE_SIZE_2M):
        cfg = configs.fbarre(page_size=size)
        result = verify_translations(McmGpuSimulator(
            cfg, [get_workload("st2d")], trace_scale=SCALE)).run()
        assert result.cycles > 0


def test_mapping_policies_run_correctly():
    for mapping in (MappingKind.ROUND_ROBIN, MappingKind.CHUNKING,
                    MappingKind.CODA):
        cfg = configs.fbarre(mapping=mapping)
        result = verify_translations(McmGpuSimulator(
            cfg, [get_workload("atax")], trace_scale=SCALE)).run()
        assert result.cycles > 0


def test_mid_run_shootdown_is_survivable():
    """A TLB shootdown mid-run (Section VI) resets filters and stays correct.

    Every TLB entry and every cuckoo-filter fingerprint is dropped at an
    arbitrary point; all later translations must still verify against the
    page table and the run must drain.
    """
    sim = verify_translations(McmGpuSimulator(
        configs.fbarre(), [get_workload("st2d")], trace_scale=SCALE))
    for when in (2_000, 9_000):
        sim.queue.schedule(when, lambda: [c.shootdown() for c in sim.chiplets])
    result = sim.run()
    assert result.cycles > 0
    assert all(c.l2.stats.count("shootdowns") >= 1 for c in sim.chiplets
               if c.l2.stats.count("shootdowns"))
    assert any(agent.stats.count("filter_resets") >= 2
               for agent in sim.agents.values())


def test_all_19_apps_run_under_fbarre():
    """Every Table I workload drains with verified translations."""
    from repro.workloads import APP_ORDER
    for app in APP_ORDER:
        result = verify_translations(McmGpuSimulator(
            configs.fbarre(), [get_workload(app)], trace_scale=0.03)).run()
        assert result.cycles > 0, app
        assert result.instructions > 0, app


def test_mpki_reported_reasonably():
    result = McmGpuSimulator(configs.baseline(), [get_workload("gesm")],
                             trace_scale=SCALE).run()
    assert result.mpki > 100  # a high-class app
    assert result.instructions > 0


class TestTraceMemo:
    """CTA-trace memoization: bit-identical reuse, LRU bounds, kill switch."""

    def _fresh(self, monkeypatch, maxsize):
        from repro.gpu import mcm
        memo = mcm._TraceMemo(maxsize=maxsize)
        monkeypatch.setattr(mcm, "TRACE_MEMO", memo)
        return mcm, memo

    def test_memo_hit_is_bit_identical_to_fresh_build(self, monkeypatch):
        import numpy as np
        mcm, memo = self._fresh(monkeypatch, maxsize=8)
        first = mcm.build_cta_traces([get_workload("fft")], 2024, SCALE)
        again = mcm.build_cta_traces([get_workload("fft")], 2024, SCALE)
        assert again is first, "second build must be served from the memo"
        assert (memo.hits, memo.misses) == (1, 1)
        mcm, _ = self._fresh(monkeypatch, maxsize=0)   # memo disabled
        plain = mcm.build_cta_traces([get_workload("fft")], 2024, SCALE)
        assert len(plain) == len(first) == 1
        for a, b in zip(first[0], plain[0]):
            assert a.cta_id == b.cta_id and a.pasid == b.pasid
            assert np.array_equal(a.data_index, b.data_index)
            assert np.array_equal(a.page_offset, b.page_offset)

    def test_key_separates_seed_scale_and_workload(self, monkeypatch):
        mcm, memo = self._fresh(monkeypatch, maxsize=8)
        mcm.build_cta_traces([get_workload("fft")], 2024, SCALE)
        mcm.build_cta_traces([get_workload("fft")], 2025, SCALE)
        mcm.build_cta_traces([get_workload("fft")], 2024, SCALE * 2)
        mcm.build_cta_traces([get_workload("gemv")], 2024, SCALE)
        assert (memo.hits, memo.misses) == (0, 4)

    def test_lru_evicts_oldest_at_capacity(self, monkeypatch):
        mcm, memo = self._fresh(monkeypatch, maxsize=2)
        apps = ("gemv", "fft", "atax")
        for app in apps:
            mcm.build_cta_traces([get_workload(app)], 2024, SCALE)
        assert len(memo) == 2
        # gemv (oldest, never re-touched) was evicted; fft/atax are hits.
        mcm.build_cta_traces([get_workload("atax")], 2024, SCALE)
        mcm.build_cta_traces([get_workload("fft")], 2024, SCALE)
        assert memo.hits == 2
        mcm.build_cta_traces([get_workload("gemv")], 2024, SCALE)
        assert memo.misses == 4

    def test_default_size_is_32(self):
        from repro.gpu import mcm
        assert mcm._TraceMemo().maxsize == 32

    def test_maxsize_zero_disables_memoization(self):
        from repro.gpu import mcm
        memo = mcm._TraceMemo(maxsize=0)
        memo.store(("key",), [])
        assert memo.lookup(("key",)) is None
        assert len(memo) == 0
        assert (memo.hits, memo.misses) == (0, 0)

    def test_simulation_unchanged_by_memo_reuse(self, monkeypatch):
        """Two back-to-back simulations (second hits the memo) match one
        run with the memo disabled — the memo cannot leak state."""
        from repro.experiments.runner import _serialize
        from repro.gpu import mcm
        cfg = configs.baseline()
        monkeypatch.setattr(mcm, "TRACE_MEMO", mcm._TraceMemo(maxsize=8))
        McmGpuSimulator(cfg, [get_workload("gemv")], trace_scale=SCALE).run()
        memo_hit = McmGpuSimulator(cfg, [get_workload("gemv")],
                                   trace_scale=SCALE).run()
        assert mcm.TRACE_MEMO.hits >= 1
        monkeypatch.setattr(mcm, "TRACE_MEMO", mcm._TraceMemo(maxsize=0))
        plain = McmGpuSimulator(cfg, [get_workload("gemv")],
                                trace_scale=SCALE).run()
        assert _serialize(memo_hit) == _serialize(plain)
