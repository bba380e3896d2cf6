"""Differential-oracle validation subsystem tests.

Covers the three layers: the reference translator (oracle), the runtime
invariant checker, and the differential harness — including the
fault-injection path that proves the harness actually detects bugs.
"""

from collections import Counter

import pytest

from repro.common import CuckooConfig, InvariantViolation
from repro.experiments import configs
from repro.filters import CuckooFilter
from repro.gpu import McmGpuSimulator
from repro.validation import (
    CheckedCuckooFilter,
    fuzz_workload,
    reference_translation,
    run_validation,
    validate_point,
)
from repro.validation.differential import SCHEME_FACTORIES
from repro.workloads import DataSpec, Workload, get_workload


def tiny_workload(pattern="stream", pages=48, pasid=0) -> Workload:
    return Workload(
        abbr="val", app_name="validation", suite="test", category="mid",
        paper_mpki=1.0, data=(DataSpec("main", pages=pages, row_pages=4),),
        pattern=pattern, weight=1.0, gap=1, num_ctas=8,
        accesses_per_cta=24, pasid=pasid,
        params={"touches_per_page": 2, "stride_pages": 3, "row_width": 2})


# -- oracle ----------------------------------------------------------------

def test_oracle_is_deterministic():
    cfg = configs.barre(seed=9)
    w = tiny_workload()
    a = reference_translation(cfg, [w])
    b = reference_translation(cfg, [w])
    assert a.translations == b.translations
    assert [x.vpn for x in a.accesses] == [x.vpn for x in b.accesses]


def test_oracle_matches_simulated_pfns_per_access():
    """Every PFN the timing simulator delivers equals the oracle's."""
    cfg = configs.fbarre(seed=3)
    w = tiny_workload(pattern="stride")
    ref = reference_translation(cfg, [w])
    sim = McmGpuSimulator(cfg, [w])
    seen = []
    sim.pfn_observer = lambda cid, sid, pasid, vpn, pfn: seen.append(
        ((pasid, vpn), pfn))
    sim.run()
    assert seen
    for key, pfn in seen:
        assert pfn == ref.translations[key]


def test_oracle_covers_every_traced_access():
    cfg = configs.baseline(seed=1)
    w = tiny_workload(pattern="random")
    ref = reference_translation(cfg, [w])
    assert len(ref) > 0
    assert all(ref.accesses[i].order == i for i in range(len(ref)))
    first = ref.first_access_of(ref.accesses[0].pasid, ref.accesses[0].vpn)
    assert first is not None and first.order == 0


def test_oracle_rejects_mutating_configs():
    from repro.common.errors import ConfigError
    w = tiny_workload()
    with pytest.raises(ConfigError):
        reference_translation(configs.baseline(demand_paging=True), [w])
    with pytest.raises(ConfigError):
        reference_translation(
            configs.with_migration(configs.baseline()), [w])


# -- invariant checker -----------------------------------------------------

def test_checked_run_simulates_identically():
    """Installing the checker must not perturb the event sequence."""
    cfg = configs.fbarre(seed=5)
    w = tiny_workload(pattern="stencil")
    plain = McmGpuSimulator(cfg, [w]).run()
    checked_sim = McmGpuSimulator(cfg, [w], check_invariants=True)
    checked = checked_sim.run()
    assert checked.cycles == plain.cycles
    assert checked.walks == plain.walks
    assert checked.pec_coalesced == plain.pec_coalesced
    assert checked_sim.invariant_checker.stats.count("sweeps") > 0


def test_checker_runs_under_every_scheme():
    w = tiny_workload()
    for scheme in ("baseline", "barre", "fbarre", "mgvm", "least"):
        cfg = SCHEME_FACTORIES[scheme](seed=2)
        result = McmGpuSimulator(cfg, [w], check_invariants=True).run()
        assert result.cycles > 0


def test_checker_catches_pec_miscalculation():
    """The injected off-by-one must trip the PEC invariant."""
    cfg = configs.barre(seed=0)
    w = fuzz_workload(0)  # known to exercise PEC calculation early
    sim = McmGpuSimulator(cfg, [w], check_invariants=True)
    sim.iommu.pec.inject_pfn_offset = 1
    with pytest.raises(InvariantViolation, match="page table says"):
        sim.run()


@pytest.mark.parametrize("app", ["fft", "gemv", "spmv"])
def test_checker_catches_agent_pec_miscalculation(app):
    """F-Barre's chiplet-side PECs are checked too: an offset armed on the
    agents' PECs only (the IOMMU's stays correct) trips the per-instance
    ``calculate`` wrapper, so no agent path may bypass it."""
    sim = McmGpuSimulator(configs.fbarre(), [get_workload(app)],
                          trace_scale=0.05, check_invariants=True)
    for agent in sim.agents.values():
        agent.pec.inject_pfn_offset = 1
    assert sim.iommu.pec.inject_pfn_offset == 0
    with pytest.raises(InvariantViolation,
                       match=r"pec\[agent\.\d+\] calculated PFN"):
        sim.run()


def test_checker_rejects_illegal_mshr_release():
    cfg = configs.baseline(seed=0)
    sim = McmGpuSimulator(cfg, [tiny_workload()], check_invariants=True)
    with pytest.raises(InvariantViolation, match="no outstanding miss"):
        sim.chiplets[0].l2_mshr.release(("nope", 1), None)


def test_checker_spans_partition_with_tracing():
    cfg = configs.fbarre(seed=6)
    sim = McmGpuSimulator(cfg, [tiny_workload()], trace=True,
                          check_invariants=True)
    sim.run()  # verify_end_of_run includes the span-partition sweep
    assert sim.invariant_checker.stats.count("span_checks") > 0


def test_checker_validates_migration_remaps():
    cfg = configs.with_migration(configs.barre(seed=7), threshold=4)
    sim = McmGpuSimulator(cfg, [tiny_workload(pattern="random")],
                          check_invariants=True)
    result = sim.run()
    assert result.cycles > 0
    if result.migrations:
        assert sim.invariant_checker.stats.count("remap_checks") > 0


# -- CheckedCuckooFilter ---------------------------------------------------

def small_checked() -> CheckedCuckooFilter:
    inner = CuckooFilter(CuckooConfig(rows=64, ways=4, fingerprint_bits=12))
    return CheckedCuckooFilter(inner, "test")


def test_shadow_filter_passes_honest_traffic():
    proxy = small_checked()
    for i in range(40):
        proxy.insert(i)
    for i in range(40):
        assert proxy.contains(i)
    for i in range(0, 40, 2):
        assert proxy.delete(i)
    assert proxy.check_all_resident() == 20


def test_shadow_filter_detects_false_negative():
    proxy = small_checked()
    assert proxy.insert(0xBEEF)
    proxy._inner.delete(0xBEEF)  # corrupt the inner filter behind the shadow
    with pytest.raises(InvariantViolation, match="false negative"):
        proxy.contains(0xBEEF)


def test_shadow_filter_tracks_duplicates():
    proxy = small_checked()
    proxy.insert(7)
    proxy.insert(7)
    assert proxy.delete(7)
    assert proxy.contains(7)  # one protected copy remains
    assert proxy.delete(7)
    assert not proxy._protected


def test_shadow_filter_clear_resets_protection():
    proxy = small_checked()
    proxy.insert(3)
    proxy.clear()
    assert not proxy.contains(3)  # no violation: protection cleared too


def test_replayed_rcf_replicas_keep_their_shadow():
    """Replayed RCF updates feed the shadow: corruption is still caught."""
    sim = McmGpuSimulator(configs.fbarre(seed=1), [fuzz_workload(1)],
                          check_invariants=True)
    replayed: Counter[str] = Counter()  # per RCF: batches copied in
    for agent in sim.agents.values():
        for proxy in agent.rcfs.values():
            def counting(add, items, seq, effect=None,
                         _apply=proxy._inner.apply_batch, _name=proxy.name):
                out = _apply(add, items, seq, effect)
                replayed[_name] += out is effect
                return out
            proxy._inner.apply_batch = counting
    sim.run()
    rcfs = [p for a in sim.agents.values() for p in a.rcfs.values()]
    assert all(isinstance(p, CheckedCuckooFilter) and p._protected
               for p in rcfs)
    victim = max(rcfs, key=lambda p: replayed[p.name])
    assert replayed[victim.name] > 0
    key = next(iter(victim._protected))
    fp, i1, i2 = victim._inner._candidate_rows(key)
    for row in (i1, i2):
        bucket = victim._inner._buckets[row]
        bucket[:] = [f for f in bucket if f != fp]
    with pytest.raises(InvariantViolation, match="vanished"):
        victim.check_all_resident()


# -- differential harness --------------------------------------------------

def test_validate_point_clean_for_all_core_schemes():
    w = fuzz_workload(1)
    for scheme in ("ats", "barre", "fbarre"):
        cfg = SCHEME_FACTORIES[scheme](seed=1)
        run, divergences = validate_point(scheme, cfg, [w], seed=1)
        assert run.violation is None
        assert not divergences
        assert run.accesses > 0 and run.distinct_keys > 0


def test_run_validation_reports_clean():
    report = run_validation(["ats", "barre"], seeds=[0, 1])
    assert report.ok
    assert report.accesses_checked > 0
    assert "no divergences" in report.describe()


def test_run_validation_detects_injected_pec_bug():
    """Acceptance: an injected PEC off-by-one is detected and reported."""
    report = run_validation(["barre"], seeds=[0],
                            inject_pec_offset=1)
    assert not report.ok
    assert report.violations  # the invariant checker fires first
    assert "page table says" in report.violations[0]


def test_injected_bug_surfaces_as_divergence_without_checker():
    report = run_validation(["barre"], seeds=[0], check_invariants=False,
                            inject_pec_offset=1)
    assert not report.ok
    assert report.divergences
    divergence = report.divergences[0]
    assert divergence.observed_pfn == divergence.expected_pfn + 1
    assert divergence.access is not None  # first divergent access named
    assert divergence.span_report and "span" in divergence.span_report
    assert "DIVERGENCE" in report.describe()


def test_fuzz_workloads_are_deterministic_and_varied():
    assert fuzz_workload(5).pattern == fuzz_workload(5).pattern
    patterns = {fuzz_workload(s).pattern for s in range(12)}
    assert len(patterns) >= 3


# -- PEC counters --------------------------------------------------------------

#: PEC and walk counters of three checked points, recorded before the IOMMU's
#: PW-queue scan learned to screen by group membership and count rejections
#: in bulk; they must not move.
PINNED_PEC_COUNTERS = {
    "barre-gemv": {"calculations": 72, "rejections": 3915,
                   "descriptor_misses": 0, "walks": 245,
                   "pec_coalesced": 72, "pec_checks": 72},
    "fbarre-fft": {"calculations": 1148, "rejections": 12912,
                   "descriptor_misses": 0, "walks": 447,
                   "pec_coalesced": 338, "pec_checks": 1148},
    # Fig 21's GMMU + Barre Chord configuration.
    "mgvm-chord-spmv": {"calculations": 174, "rejections": 4035,
                        "descriptor_misses": 0, "walks": 713,
                        "pec_coalesced": 68, "pec_checks": 174},
}

_PEC_POINTS = {
    "barre-gemv": (configs.barre, "gemv"),
    "fbarre-fft": (configs.fbarre, "fft"),
    "mgvm-chord-spmv": (lambda: configs.mgvm(barre_chord=True), "spmv"),
}


@pytest.mark.parametrize("point", sorted(PINNED_PEC_COUNTERS))
def test_pec_counters_are_pinned(point):
    factory, app = _PEC_POINTS[point]
    sim = McmGpuSimulator(factory(), [get_workload(app)], trace_scale=0.08,
                          check_invariants=True)
    sim.run()
    walkers = [sim.iommu] if sim.iommu is not None else list(sim.gmmus)
    pecs = [w.pec for w in walkers] + [a.pec for a in sim.agents.values()]
    got = {key: sum(p.stats.count(key) for p in pecs)
           for key in ("calculations", "rejections", "descriptor_misses")}
    for key in ("walks", "pec_coalesced"):
        got[key] = sum(w.stats.count(key) for w in walkers)
    got["pec_checks"] = sim.invariant_checker.stats.count("pec_checks")
    assert got == PINNED_PEC_COUNTERS[point]
