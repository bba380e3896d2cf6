"""Property-based end-to-end tests with randomized ad-hoc workloads.

These go beyond the Table I suite: hypothesis generates arbitrary small
workloads (footprints, patterns, timing) and the invariants must hold for
*every* one of them — most importantly that Barre/F-Barre's calculated
translations never disagree with the page table (enforced per access by
``tests.translation_check.verify_translations``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import configs
from repro.gpu import McmGpuSimulator
from repro.validation import reference_translation
from repro.workloads import DataSpec, Workload
from tests.translation_check import verify_translations

PATTERN_CHOICES = ["stream", "blocked", "stencil", "stride", "random",
                   "gather"]


@st.composite
def small_workloads(draw) -> Workload:
    pattern = draw(st.sampled_from(PATTERN_CHOICES))
    main_pages = draw(st.integers(min_value=16, max_value=600))
    row = draw(st.sampled_from([0, 4, 8, 16]))
    data = [DataSpec("main", pages=main_pages, row_pages=row)]
    if pattern == "gather":
        data.append(DataSpec("vec", pages=draw(
            st.integers(min_value=8, max_value=400)), shared=True,
            irregular=True))
    return Workload(
        abbr="prop", app_name="property", suite="hypothesis",
        category="mid", paper_mpki=1.0, data=tuple(data),
        pattern=pattern,
        weight=draw(st.floats(min_value=0.5, max_value=8.0)),
        gap=draw(st.integers(min_value=0, max_value=16)),
        num_ctas=draw(st.sampled_from([8, 16, 32])),
        accesses_per_cta=draw(st.integers(min_value=10, max_value=60)),
        params={"gather_data": 1, "touches_per_page": 2,
                "stride_pages": draw(st.integers(min_value=1, max_value=9)),
                "row_width": max(1, row // 2)},
    )


@settings(max_examples=12, deadline=None)
@given(workload=small_workloads(),
       merge=st.sampled_from([1, 2]),
       seed=st.integers(min_value=0, max_value=2**16))
def test_property_fbarre_translates_any_workload_correctly(
        workload, merge, seed):
    """Random workloads: F-Barre drains with verified translations."""
    cfg = configs.fbarre(merge=merge, seed=seed)
    result = verify_translations(
        McmGpuSimulator(cfg, [workload], trace_scale=1.0)).run()
    assert result.cycles > 0
    assert result.l2_misses <= result.l2_lookups


@settings(max_examples=8, deadline=None)
@given(workload=small_workloads(), seed=st.integers(min_value=0,
                                                    max_value=2**16))
def test_property_translation_schemes_access_identical_data(workload, seed):
    """Whatever the workload, schemes differ in *how*, never *what*."""
    def total_accesses(cfg):
        sim = McmGpuSimulator(cfg, [workload], trace_scale=1.0)
        sim.run()
        return (sim.fabric.stats.count("local_accesses")
                + sim.fabric.stats.count("remote_accesses"))

    counts = {total_accesses(configs.baseline(seed=seed)),
              total_accesses(configs.fbarre(seed=seed))}
    assert len(counts) == 1


def _run_with_merges(cfg, workload):
    """Run one point and return (SimResult, IOMMU walk_merges count)."""
    sim = McmGpuSimulator(cfg, [workload], trace_scale=1.0)
    result = sim.run()
    return result, sim.iommu.stats.count("walk_merges")


@settings(max_examples=8, deadline=None)
@given(workload=small_workloads(), seed=st.integers(min_value=0,
                                                    max_value=2**16))
def test_property_barre_walk_work_is_conserved_and_bounded(workload, seed):
    """PEC coalescing never adds walk *work*, though it may add walks.

    The original property asserted ``barre.walks <= base.walks`` and was
    falsified (see ``test_regression_stride_walk_counterexample``): primary
    walk counts are timing-dependent.  PEC-coalesced responses complete
    sooner, which shrinks the window in which a later same-key request can
    merge with an in-flight walk — so a request that *merged* under
    baseline may become a fresh *primary* walk under Barre.  That is lost
    merging, not extra page-table work per request, so the true invariants
    are:

    * conservation — every ATS request is served exactly once, by a primary
      walk, an in-flight merge, or a PEC-coalesced calculation; and
    * the merge-window bound — Barre's primary-walk excess never exceeds
      the in-flight merges it lost relative to baseline.
    """
    base, base_merges = _run_with_merges(configs.baseline(seed=seed),
                                         workload)
    barre, barre_merges = _run_with_merges(configs.barre(seed=seed),
                                           workload)
    assert base.walks + base_merges == base.ats_requests
    assert (barre.walks + barre_merges + barre.pec_coalesced
            == barre.ats_requests)
    assert barre.walks <= base.walks + max(0, base_merges - barre_merges)


def test_regression_stride_walk_counterexample():
    """Pin the ROADMAP counterexample that falsified the strict property.

    stride pattern, 37 pages, 16 CTAs, 10 accesses/CTA, stride_pages=4,
    touches_per_page=2, seed=0: baseline takes 50 walks + 89 in-flight
    merges; Barre coalesces 20 requests in the PEC but its faster
    completions shrink the merge window to 66, leaving 53 primary walks —
    three *more* than baseline from the identical 139-request stream.
    Both schemes stay oracle-exact, so this is a timing effect in walk
    *accounting attribution*, not a translation bug.  The exact counts are
    frozen so any future change to merge/coalescing timing shows up here
    by name.
    """
    workload = Workload(
        abbr="prop", app_name="property", suite="hypothesis",
        category="mid", paper_mpki=1.0,
        data=(DataSpec("main", pages=37, row_pages=0),),
        pattern="stride", weight=1.0, gap=0,
        num_ctas=16, accesses_per_cta=10,
        params={"gather_data": 1, "touches_per_page": 2,
                "stride_pages": 4, "row_width": 1},
    )
    base, base_merges = _run_with_merges(configs.baseline(seed=0), workload)
    barre, barre_merges = _run_with_merges(configs.barre(seed=0), workload)

    assert (base.walks, base_merges, base.ats_requests) == (50, 89, 139)
    assert (barre.walks, barre_merges, barre.pec_coalesced,
            barre.ats_requests) == (53, 66, 20, 139)
    # The strict property is genuinely false here ...
    assert barre.walks > base.walks
    # ... while the weakened bound and conservation both hold.
    assert barre.walks <= base.walks + (base_merges - barre_merges)
    assert base.walks + base_merges == base.ats_requests
    assert (barre.walks + barre_merges + barre.pec_coalesced
            == barre.ats_requests)

    # And every delivered PFN still matches the oracle for both schemes.
    for scheme in ("baseline", "barre"):
        cfg = getattr(configs, scheme)(seed=0)
        ref = reference_translation(cfg, [workload])
        sim = McmGpuSimulator(cfg, [workload], trace_scale=1.0,
                              check_invariants=True)
        seen = []
        sim.pfn_observer = lambda cid, sid, pasid, vpn, pfn: seen.append(
            ((pasid, vpn), pfn))
        sim.run()
        assert seen
        assert all(ref.translations[key] == pfn for key, pfn in seen)


@settings(max_examples=10, deadline=None)
@given(workload=small_workloads(),
       scheme=st.sampled_from(["baseline", "barre"]),
       seed=st.integers(min_value=0, max_value=2**16))
def test_property_delivered_pfns_match_the_oracle(workload, scheme, seed):
    """Baseline-ATS and Barre: every delivered PFN equals the reference
    translator's ground truth, with the invariant checker armed."""
    cfg = getattr(configs, scheme)(seed=seed)
    ref = reference_translation(cfg, [workload])
    sim = McmGpuSimulator(cfg, [workload], trace_scale=1.0,
                          check_invariants=True)
    seen = []
    sim.pfn_observer = lambda cid, sid, pasid, vpn, pfn: seen.append(
        ((pasid, vpn), pfn))
    sim.run()
    assert seen
    assert all(ref.translations[key] == pfn for key, pfn in seen)


@settings(max_examples=6, deadline=None)
@given(workload=small_workloads(),
       seed=st.integers(min_value=0, max_value=2**16))
def test_property_baseline_checked_run_is_timing_identical(workload, seed):
    """The invariant checker must be a pure observer under baseline ATS."""
    cfg = configs.baseline(seed=seed)
    plain = McmGpuSimulator(cfg, [workload], trace_scale=1.0).run()
    checked = McmGpuSimulator(cfg, [workload], trace_scale=1.0,
                              check_invariants=True).run()
    assert checked.cycles == plain.cycles
    assert checked.walks == plain.walks


# -- nightly deep profile --------------------------------------------------
#
# Same invariants, far more examples.  Deselected by default via the
# ``slow`` marker (addopts -m "not slow"); the nightly CI job runs them
# with ``-m slow``.

@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(workload=small_workloads(),
       merge=st.sampled_from([1, 2]),
       seed=st.integers(min_value=0, max_value=2**16))
def test_deep_fbarre_translates_any_workload_correctly(workload, merge, seed):
    cfg = configs.fbarre(merge=merge, seed=seed)
    result = verify_translations(McmGpuSimulator(
        cfg, [workload], trace_scale=1.0, check_invariants=True)).run()
    assert result.cycles > 0


@pytest.mark.slow
@settings(max_examples=100, deadline=None)
@given(workload=small_workloads(),
       scheme=st.sampled_from(["baseline", "barre", "fbarre"]),
       seed=st.integers(min_value=0, max_value=2**16))
def test_deep_delivered_pfns_match_the_oracle(workload, scheme, seed):
    cfg = getattr(configs, scheme)(seed=seed)
    ref = reference_translation(cfg, [workload])
    sim = McmGpuSimulator(cfg, [workload], trace_scale=1.0,
                          check_invariants=True)
    failures: list[tuple[int, int, int]] = []

    def observer(_cid, _sid, pasid, vpn, pfn):
        if ref.translations.get((pasid, vpn)) != pfn:
            failures.append((pasid, vpn, pfn))

    sim.pfn_observer = observer
    sim.run()
    assert not failures
