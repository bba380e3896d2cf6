"""Property tests for the multi-tenant scenario layer (churn + teardown).

Four law families, per the scenario subsystem's contract:

* **Conservation** — ``ats_requests == walks + walk_merges + pec_coalesced
  + iommu_tlb_hits + prefetches_dropped + teardown_flushed`` per PASID,
  and the law must survive mid-walk address-space teardown.
* **No stale translation** — nothing keyed by a dead PASID survives
  teardown in any TLB, MSHR, PEC buffer, or handler queue; an injected
  stale entry must trip the invariant checker.
* **Determinism** — the same seeded scenario yields byte-identical
  serialized results, run after run and on both sweep paths (inline and
  the worker pool).
* **Oracle equality** — the differential harness reports zero divergences
  over the seeded churn corpus for every scheme.

Plus pinned regressions for the latent single-tenant assumptions the
generator surfaced (dead-PASID guards, teardown frame accounting,
mapping-grouped cross-checks).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.common import InvariantViolation
from repro.common.config import TlbConfig
from repro.common.errors import ConfigError
from repro.experiments import configs
from repro.experiments.runner import _serialize
from repro.gpu import McmGpuSimulator
from repro.gpu.mcm import allocate_workloads, build_driver
from repro.memsim.tlb import MshrFile, Tlb, TlbEntry
from repro.scenarios import (
    NAMED_SCENARIOS,
    AgingPlan,
    Scenario,
    ScenarioWorkload,
    TenantPlan,
    conservation_violations,
    named_scenario,
)
from repro.validation import run_validation, validate_point
from repro.validation.differential import SCHEME_FACTORIES
from repro.validation.fuzz import churn_scenario
from repro.workloads import DataSpec, Workload


def tenant(abbr: str, pasid: int, pages: int = 32,
           pattern: str = "stream") -> Workload:
    return Workload(
        abbr=abbr, app_name=f"tenant {abbr}", suite="test", category="mid",
        paper_mpki=0.0, data=(DataSpec(f"{abbr}-d", pages=pages),),
        pattern=pattern, weight=1.0, gap=2, num_ctas=8,
        accesses_per_cta=16, pasid=pasid)


def scenario_workload(name: str, seed: int = 0) -> ScenarioWorkload:
    return ScenarioWorkload.from_scenario(named_scenario(name, seed))


# -- timeline construction -------------------------------------------------

def test_duplicate_pasids_rejected():
    with pytest.raises(ConfigError, match="reuses a PASID"):
        Scenario(name="dup", seed=0,
                 tenants=(TenantPlan(tenant("a", pasid=0)),
                          TenantPlan(tenant("b", pasid=0))))


def test_departure_must_follow_arrival():
    with pytest.raises(ConfigError, match="must follow arrival"):
        TenantPlan(tenant("a", pasid=0), arrival=100, departure=100)


def test_aging_knobs_validated():
    with pytest.raises(ConfigError, match="aging fraction"):
        AgingPlan(fraction=1.0)
    with pytest.raises(ConfigError, match="release_every"):
        AgingPlan(release_every=0)


def test_unknown_named_scenario():
    with pytest.raises(ConfigError, match="unknown scenario"):
        named_scenario("nope")


def test_lifecycle_events_canonical_order():
    """Same-cycle ties: arrivals before departures, then by PASID."""
    scn = Scenario(name="tie", seed=0, tenants=(
        TenantPlan(tenant("a", pasid=1), arrival=100, departure=500),
        TenantPlan(tenant("b", pasid=0), arrival=100),
        TenantPlan(tenant("c", pasid=2), arrival=500),
    ))
    order = [(e.cycle, e.kind, e.tenant.pasid)
             for e in scn.lifecycle_events()]
    assert order == [(100, "arrive", 0), (100, "arrive", 1),
                     (500, "arrive", 2), (500, "depart", 1)]


def test_churn_fuzz_corpus_deterministic_and_churning():
    for seed in range(6):
        first, second = churn_scenario(seed), churn_scenario(seed)
        assert first == second  # frozen dataclasses: deep equality
        anchor = first.tenant(0)
        assert anchor.immortal and anchor.arrival == 0
        assert first.churned_pasids  # every seed exercises teardown
    assert churn_scenario(0) != churn_scenario(1)


def test_scenario_workload_must_be_sole_workload():
    with pytest.raises(ConfigError, match="only workload"):
        McmGpuSimulator(configs.baseline(),
                        [scenario_workload("churn-min"), tenant("x", 9)])


# -- conservation law ------------------------------------------------------

@pytest.mark.parametrize("scheme", ["ats", "barre", "fbarre", "mgvm"])
def test_conservation_law_survives_teardown(scheme):
    """Every admitted ATS request is classified exactly once, per PASID,
    including tenants torn down with walks still in flight."""
    cfg = SCHEME_FACTORIES[scheme](seed=0)
    sim = McmGpuSimulator(cfg, [scenario_workload("churn-small")],
                          check_invariants=True)
    result = sim.run()
    counters = result.extra["pasid_counters"]
    assert conservation_violations(counters) == []
    assert result.extra["teardowns"] == 1
    assert set(result.extra["dead_pasids"]) == {1}
    assert all(pasid not in sim.spaces
               for pasid in result.extra["dead_pasids"])


def test_conservation_holds_under_migration_and_paging():
    """Teardown interleaved with demand paging and migration bookkeeping."""
    cfg = configs.with_migration(configs.barre(seed=4), threshold=4)
    sim = McmGpuSimulator(cfg, [scenario_workload("churn-small")],
                          check_invariants=True)
    result = sim.run()
    assert conservation_violations(result.extra["pasid_counters"]) == []
    assert result.extra["teardowns"] == 1


# -- no stale translation --------------------------------------------------

@pytest.mark.parametrize("scheme", ["ats", "fbarre"])
def test_injected_stale_entry_trips_checker(scheme):
    """The self-test fault: a dead tenant's translation left in an L2 TLB
    must fail the post-teardown sweep loudly."""
    cfg = SCHEME_FACTORIES[scheme](seed=0)
    sim = McmGpuSimulator(cfg, [scenario_workload("churn-min")],
                          check_invariants=True)
    sim.inject_stale_pasid = 1
    with pytest.raises(InvariantViolation, match="survived PASID teardown"):
        sim.run()


def test_teardown_sweep_runs_clean_without_injection():
    sim = McmGpuSimulator(configs.fbarre(seed=0),
                          [scenario_workload("churn-min")],
                          check_invariants=True)
    sim.run()
    assert sim.invariant_checker.stats.count("teardown_sweeps") >= 1


def test_validation_harness_surfaces_stale_entry():
    report = run_validation(["barre"], seeds=[0], scenario="churn-min",
                            inject_stale_entry=True)
    assert not report.ok
    assert any("teardown" in v for v in report.violations)


# -- oracle equality over churn --------------------------------------------

def test_validate_point_clean_on_churn_for_core_schemes():
    workload = scenario_workload("churn-small")
    for scheme in ("ats", "barre", "fbarre"):
        cfg = SCHEME_FACTORIES[scheme](seed=0)
        run, divergences = validate_point(scheme, cfg, [workload], seed=0)
        assert run.violation is None
        assert not divergences
        assert run.accesses > 0


def test_run_validation_clean_over_churn_corpus():
    report = run_validation(["ats", "barre", "fbarre"], seeds=[0, 1],
                            scenario="churn")
    assert report.ok
    assert "no divergences" in report.describe()


def test_run_validation_clean_on_pinned_multi_tenant():
    report = run_validation(["ats", "fbarre"], seeds=[0],
                            scenario="multi-tenant")
    assert report.ok


def test_inject_stale_requires_scenario():
    with pytest.raises(ConfigError, match="scenario"):
        run_validation(["ats"], seeds=[0], inject_stale_entry=True)


def test_unknown_scenario_name_rejected():
    with pytest.raises(ConfigError, match="unknown scenario"):
        run_validation(["ats"], seeds=[0], scenario="bogus")


# -- determinism -----------------------------------------------------------

def _payload_sha(result) -> str:
    return hashlib.sha256(
        json.dumps(_serialize(result)).encode()).hexdigest()


def test_same_scenario_twice_bit_identical():
    cfg = configs.fbarre(seed=0)
    first = McmGpuSimulator(cfg, [scenario_workload("churn-small")]).run()
    second = McmGpuSimulator(cfg, [scenario_workload("churn-small")]).run()
    assert _payload_sha(first) == _payload_sha(second), (
        "two in-process runs of the same seeded scenario diverge — "
        "lifecycle scheduling or teardown consumed unordered state")


@pytest.mark.parametrize("jobs", [pytest.param(1, id="serial"),
                                  pytest.param(2, id="affinity")])
def test_scenario_payload_identical_across_schedulers(
        jobs, tmp_path, monkeypatch):
    """Same seed ⇒ byte-identical cache payloads inline (``jobs=1``) and
    through the worker pool (``jobs=2``): scenario workloads cross
    process boundaries intact."""
    from repro.experiments.sweep import SweepPoint, sweep
    cache = tmp_path / f"jobs{jobs}"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
    workload = scenario_workload("churn-min")
    points = [SweepPoint(configs.barre(seed=0), workload, scale=1.0),
              SweepPoint(configs.fbarre(seed=0), workload, scale=1.0)]
    outcome = sweep(points, jobs=jobs, progress=False)
    assert outcome.stats.jobs == jobs
    shas = [_payload_sha(r) for r in outcome.results]
    inline = [_payload_sha(
        McmGpuSimulator(p.config, [workload], trace_scale=1.0).run())
        for p in points]
    assert shas == inline, (
        f"jobs={jobs} sweep payloads differ from in-process runs")
    files = [hashlib.sha256(f.read_bytes()).hexdigest()
             for f in cache.glob("*.json")]
    assert sorted(files) == sorted(inline), (
        f"jobs={jobs} cache files differ from in-process payload bytes")


# -- pinned regression: smallest teardown-mid-walk case --------------------

def test_churn_min_tears_down_mid_walk():
    """churn-min's whole point: tenant 1 dies at cycle 600, before its
    first 500-cycle walks drain — the teardown path must flush queued
    requests (not walk them) and the law must still close."""
    sim = McmGpuSimulator(configs.fbarre(seed=0),
                          [scenario_workload("churn-min")],
                          check_invariants=True)
    result = sim.run()
    counters = result.extra["pasid_counters"]
    dead = counters[1]
    assert result.extra["teardowns"] == 1
    assert dead["teardown_flushed"] > 0, (
        "teardown at cycle 600 should catch requests with walks in flight")
    assert dead["walks"] > 0  # it did start translating before dying
    assert conservation_violations(counters) == []
    # The immortal anchor tenant never sees a flush.
    assert counters[0].get("teardown_flushed", 0) == 0


# -- latent single-tenant assumptions (failing-first regressions) ----------

def test_destroy_pasid_returns_frames_and_forgets_space():
    """Teardown frame accounting: only materialized pages are freed (lazy
    objects may never have faulted), and every freed frame is reusable."""
    cfg = configs.baseline(seed=0)
    driver = build_driver(cfg)
    before = [driver.allocators[c].free_count
              for c in range(len(driver.allocators))]
    allocate_workloads(driver, [tenant("t0", pasid=0),
                                tenant("t1", pasid=1)], page_scale=1)
    assert driver.destroy_pasid(1) > 0
    assert 1 not in driver.spaces
    assert all((p, d) not in driver.data or p != 1
               for (p, d) in driver.data)
    driver.destroy_pasid(0)
    after = [driver.allocators[c].free_count
             for c in range(len(driver.allocators))]
    assert after == before, "teardown leaked (or double-freed) frames"


def test_mshr_drop_pasid_discards_without_delivering():
    """A dead tenant's fill must never run its waiters (that would deliver
    a stale translation), but must re-admit stalled requesters."""
    mshr = MshrFile(capacity=2)
    delivered, retried = [], []
    assert mshr.allocate((1, 0x10), delivered.append) == "primary"
    assert mshr.allocate((0, 0x20), delivered.append) == "primary"
    assert mshr.allocate((0, 0x30), delivered.append) == "full"
    mshr.wait_for_slot(lambda: retried.append(True))
    assert mshr.drop_pasid(1) == 1
    assert not delivered, "drop_pasid ran a dead waiter"
    assert retried, "freed MSHR capacity must re-admit stalled requesters"
    assert not mshr.is_pending((1, 0x10))
    assert mshr.is_pending((0, 0x20))


def test_tlb_invalidate_pasid_is_selective_and_mirrored():
    """(pasid, vpn) keying: flushing PASID 1 must not disturb PASID 0's
    entries, and every drop must fire on_evict (filter mirrors)."""
    tlb = Tlb(TlbConfig(entries=16, ways=4, lookup_latency=1, mshrs=4))
    evicted = []
    tlb.on_evict = evicted.append
    for vpn in range(4):
        tlb.insert(TlbEntry(pasid=0, vpn=vpn, global_pfn=100 + vpn))
        tlb.insert(TlbEntry(pasid=1, vpn=vpn, global_pfn=200 + vpn))
    assert tlb.invalidate_pasid(1) == 4
    assert len(evicted) == 4
    assert all(e.pasid == 1 for e in evicted)
    assert tlb.occupancy() == 4
    assert all(tlb.probe(0, vpn) is not None for vpn in range(4))
    assert all(tlb.probe(1, vpn) is None for vpn in range(4))


def test_dead_pasid_requests_flushed_not_walked():
    """The IOMMU's dead-PASID guard: requests arriving after purge are
    flushed (counted), never dispatched into the walker pool."""
    sim = McmGpuSimulator(configs.baseline(seed=0),
                          [scenario_workload("churn-min")])
    result = sim.run()
    dead = result.extra["pasid_counters"][1]
    assert dead.get("teardown_flushed", 0) > 0
    # Flushed requests are never double-counted as walks.
    assert dead["ats_requests"] == (
        dead.get("walks", 0) + dead.get("walk_merges", 0)
        + dead.get("pec_coalesced", 0) + dead.get("iommu_tlb_hits", 0)
        + dead.get("prefetches_dropped", 0) + dead["teardown_flushed"])


def test_post_teardown_resolve_dropped_not_leaked():
    """An F-Barre peer probe in flight over the mesh when its PASID dies
    falls back to ATS *after* the purge; the handler must drop it (the
    IOMMU would flush the request without responding, leaking the waiter
    forever — caught by the 50-seed churn corpus at seeds 41/43/44)."""
    sim = McmGpuSimulator(configs.fbarre(seed=0),
                          [scenario_workload("churn-min")])
    sim.run()
    handler = sim._ats_handlers[0]

    def never(_entry):
        raise AssertionError("dead-PASID resolve delivered a translation")

    handler.resolve(1, 0x40, never)
    assert (1, 0x40) not in handler._waiting
    assert handler.stats.count("dead_resolves_dropped") == 1


def test_cross_check_groups_by_mapping_kind():
    """mgvm places pages under CHUNKING while the rest use LASP: owner
    chiplets legitimately differ, so cross-scheme equality must compare
    within mapping groups (this diverged before the harness grouped)."""
    report = run_validation(["ats", "mgvm"], seeds=[0])
    assert report.ok, report.describe()


# -- figure plumbing -------------------------------------------------------

def test_churn_figure_registered_and_collectible():
    from repro.experiments.registry import FIGURES, figure_points
    assert "ext-churn" in FIGURES
    points = figure_points("ext-churn")
    assert len(points) == 9  # 3 scenarios x {baseline, barre, fbarre}
    assert all(getattr(p.app, "scenario", None) is not None for p in points)


def test_scenario_cache_keys_distinguish_seeds():
    a = ScenarioWorkload.from_scenario(named_scenario("churn-min", 0))
    b = ScenarioWorkload.from_scenario(named_scenario("churn-min", 1))
    assert a.abbr != b.abbr


def test_named_scenarios_cover_teardown():
    """Every pinned timeline must exercise teardown and keep an anchor."""
    for name in NAMED_SCENARIOS:
        scn = named_scenario(name)
        assert scn.churned_pasids
        assert scn.immortal_pasids
