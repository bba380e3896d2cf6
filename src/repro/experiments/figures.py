"""One experiment per paper table/figure, with its printed form and checks.

Every experiment returns a plain dict — ``{"apps": [...], "series": {name
-> {app -> value}}, ...scalars}``.  Next to each one sit its ``render_*``
(the text ``repro figure`` prints and the figure bench writes under
``results/``) and its ``check_*`` (the paper's qualitative shape: who
wins, roughly by how much).  ``registry.FIGURES`` ties the three together
under the figure's name.  ``apps=None`` runs the full Table I suite; the
heaviest sweeps default to a balanced six-app subset (two per MPKI class),
the same device the paper uses for Fig 24-right.

Execution is batched: every ``suite_results`` call submits its apps to the
parallel sweep engine as one batch, and ``registry.run_figure`` goes
further — it enumerates a figure's *full* point-set up front (via the
runner's collection mode) and fills the cache in one parallel fan-out
before evaluating the figure, so cold figures cost one pool pass instead
of a serial crawl.  See ``repro.experiments.sweep``.
"""

from __future__ import annotations

from repro.area import chiplet_area_report
from repro.common.addresses import PAGE_SIZE_2M, PAGE_SIZE_4K, PAGE_SIZE_64K
from repro.common.stats import geomean
from repro.experiments import configs
from repro.experiments.report import (
    format_kv_block,
    format_series_table,
    series_text,
)
from repro.experiments.runner import (
    run_pair,
    run_point,
    suite_results,
    speedups,
)
from repro.workloads.suite import (
    APP_ORDER,
    CATEGORY_OF,
    apps_by_category,
    get_workload,
)

#: Two apps per MPKI class — used for the heaviest parameter sweeps.
SUBSET6 = ["gemv", "fft", "cov", "st2d", "matr", "spmv"]


def _apps(apps):
    return list(APP_ORDER) if apps is None else list(apps)


# --------------------------------------------------------------------------
# Motivation figures (Section I and III)
# --------------------------------------------------------------------------

def fig01_ptw_scaling(apps=None, scale=None):
    """Fig 1: speedup with 8/16/32/infinite PTWs (normalized to 8).

    Paper shape: near-linear speedup with more PTWs for translation-bound
    apps, but the *infinite*-PTW curve saturates (~2x) because queueing is
    only part of the latency — the motivation for attacking the walks
    themselves.
    """
    apps = _apps(apps)
    base = suite_results(configs.with_ptws(configs.baseline(), 8), apps, scale)
    series = {}
    for label, ptws in [("16 PTWs", 16), ("32 PTWs", 32),
                        ("inf PTWs", 4096)]:
        results = suite_results(configs.with_ptws(configs.baseline(), ptws),
                                apps, scale)
        series[label] = speedups(results, base)
    return {"apps": apps, "series": series}


render_fig01 = series_text("Fig 1: speedup over 8 PTWs")


def check_fig01(out):
    means = {name: geomean(list(values.values()))
             for name, values in out["series"].items()}
    # More walkers help, monotonically in the mean.
    assert means["16 PTWs"] >= 1.0
    assert means["32 PTWs"] >= means["16 PTWs"] * 0.98
    assert means["inf PTWs"] >= means["32 PTWs"] * 0.98
    # ...but the curve saturates: infinite walkers add little over 32,
    # because queueing is only part of the translation latency.
    assert means["inf PTWs"] < 1.5 * means["32 PTWs"]


def fig02_superpage_migration(apps=None, scale=None):
    """Fig 2: 2 MB super pages under migration, vs 4 KB pages.

    Paper shape: super pages help some apps but *hurt* hot-page apps (fwt,
    matr) because a migration drags 2 MB across the mesh and coarse
    placement concentrates traffic.
    """
    apps = _apps(apps)
    base = suite_results(configs.with_migration(configs.baseline()),
                         apps, scale)
    superpage = suite_results(configs.with_migration(configs.superpage()),
                              apps, scale)
    return {"apps": apps,
            "series": {"2MB superpage": speedups(superpage, base)},
            "migrations": {a: superpage[a].migrations for a in apps}}


render_fig02 = series_text(
    "Fig 2: 2MB superpage speedup over 4KB (migration on)")


def check_fig02(out):
    values = out["series"]["2MB superpage"]
    # The hot-page apps lose with super pages (the paper's fwt/matr drop).
    assert values["fwt"] < 1.05
    assert values["matr"] < 1.0
    # Linear apps can still gain (super pages are not uniformly bad).
    assert max(values.values()) > 1.1


def fig04_mshr(apps=None, scale=None):
    """Fig 4: doubling L2 TLB MSHRs buys almost nothing (~6%).

    The bottleneck is the IOMMU's ability to *process* misses, not the
    capacity to hold them outstanding.
    """
    apps = _apps(apps)
    base = suite_results(configs.baseline(), apps, scale)
    doubled = suite_results(configs.with_l2_mshrs(configs.baseline(), 32),
                            apps, scale)
    series = {"32 MSHRs": speedups(doubled, base)}
    return {"apps": apps, "series": series,
            "mean_speedup": geomean(list(series["32 MSHRs"].values()))}


render_fig04 = series_text("Fig 4: speedup with 32 L2 TLB MSHRs over 16")


def check_fig04(out):
    # Doubling MSHRs is a small effect, nothing like adding PTWs.
    assert 0.95 <= out["mean_speedup"] <= 1.25


def fig05_vpn_gap(apps=("fft", "st2d", "spmv"), scale=None):
    """Fig 5: VPN-gap distribution at the IOMMU, private vs shared L2.

    The paper plots the raw distributions; we report the fraction of
    near-contiguous gaps (<= 8 pages) and the median gap — private L2 TLBs
    scatter the stream (smaller contiguous fraction, larger gaps).

    Paper shape: with private L2 TLBs the request stream interleaves four
    chiplets' misses, so consecutive VPNs are scattered (prefetchers lose
    their pattern); a single shared L2 presents a more contiguous stream.
    """
    apps = list(apps)
    out = {"apps": apps, "series": {}}
    contiguous_private, contiguous_shared, medians = {}, {}, {}
    for app in apps:
        private = run_point(configs.baseline(), app, scale)
        shared = run_point(configs.shared_l2(), app, scale)
        small = range(0, 9)
        contiguous_private[app] = private.vpn_gaps.fraction_in(small)
        contiguous_shared[app] = shared.vpn_gaps.fraction_in(small)
        medians[app] = private.vpn_gaps.quantile(0.5)
    out["series"]["private contiguous<=8"] = contiguous_private
    out["series"]["shared contiguous<=8"] = contiguous_shared
    out["median_gap_private"] = medians
    return out


def render_fig05(out):
    return format_series_table(
        "Fig 5: fraction of near-contiguous (<=8 pages) VPN gaps",
        out["apps"], out["series"], mean_row=False) + \
        f"\nmedian private gaps: {out['median_gap_private']}"


def check_fig05(out):
    private = out["series"]["private contiguous<=8"]
    shared = out["series"]["shared contiguous<=8"]
    # The shared-L2 arrival stream is at least as contiguous on average.
    mean_private = sum(private.values()) / len(private)
    mean_shared = sum(shared.values()) / len(shared)
    assert mean_shared >= mean_private * 0.9
    # Interleaved chiplet streams leave non-trivial gaps for the random
    # gather app — no prefetcher-friendly contiguity.
    assert private["spmv"] < 0.9


def fig06_shared_l2(apps=None, scale=None):
    """Fig 6: ideal shared L2 TLB over private TLBs (~6% mean).

    Paper shape: advanced page placement (LASP) already keeps translations
    local, so inter-chiplet TLB sharing has little left to harvest — the
    motivation for a different approach than TLB sharing.
    """
    apps = _apps(apps)
    base = suite_results(configs.baseline(), apps, scale)
    shared = suite_results(configs.shared_l2(), apps, scale)
    series = {"ideal shared L2": speedups(shared, base)}
    return {"apps": apps, "series": series,
            "mean_speedup": geomean(list(series["ideal shared L2"].values()))}


render_fig06 = series_text("Fig 6: ideal shared L2 TLB speedup over private")


def check_fig06(out):
    # A modest mean gain: clearly under what Barre Chord delivers.
    assert 0.9 <= out["mean_speedup"] <= 1.35


# --------------------------------------------------------------------------
# Main results (Section VII)
# --------------------------------------------------------------------------

def fig15_overall(apps=None, scale=None):
    """Fig 15: Valkyrie / Least / Barre / F-Barre (NoMerge, 2M, 4M).

    The paper's headline result.  Paper shape: Barre beats Valkyrie/Least
    (+10-13%); F-Barre extends the lead (1.36x over Least);
    contiguity-aware merging (2Merge/4Merge) scales it further (up to
    ~2x).
    """
    apps = _apps(apps)
    base = suite_results(configs.baseline(), apps, scale)
    variants = {
        "Valkyrie": configs.valkyrie(),
        "Least": configs.least(),
        "Barre": configs.barre(),
        "F-Barre-NoMerge": configs.fbarre(merge=1),
        "F-Barre-2Merge": configs.fbarre(merge=2),
        "F-Barre-4Merge": configs.fbarre(merge=4),
    }
    series = {name: speedups(suite_results(cfg, apps, scale), base)
              for name, cfg in variants.items()}
    means = {name: geomean(list(values.values()))
             for name, values in series.items()}
    return {"apps": apps, "series": series, "means": means}


def render_fig15(out):
    text = format_series_table(
        "Fig 15: speedup over the Table II baseline",
        out["apps"], out["series"])
    return text + "\n\nmeans: " + ", ".join(
        f"{k}={v:.3f}" for k, v in out["means"].items())


def check_fig15(out):
    means = out["means"]
    # Headline ordering: Barre beats both state-of-the-art baselines...
    assert means["Barre"] > means["Valkyrie"]
    assert means["Barre"] > means["Least"]
    # ...F-Barre beats Barre...
    assert means["F-Barre-NoMerge"] > means["Barre"]
    # ...and merged coalescing groups scale further.
    assert means["F-Barre-2Merge"] > means["F-Barre-NoMerge"]
    assert means["F-Barre-4Merge"] > means["F-Barre-2Merge"]
    # F-Barre's advantage over Least is substantial (paper: 1.36x).
    assert means["F-Barre-NoMerge"] / means["Least"] > 1.15


def fig16_ats(apps=None, scale=None):
    """Fig 16: ATS processing-time saving, coalesced fraction, traffic cut.

    Paper shape: (a) Barre/F-Barre cut mean ATS processing time (12.6% /
    28%); (b) Barre coalesces more ATS packets than F-Barre *at the IOMMU*
    (58% vs 32%) because F-Barre resolves most coalescing inside the
    package; (c) F-Barre cuts PCIe ATS traffic by ~53% on average.
    """
    apps = _apps(apps)
    base = suite_results(configs.baseline(), apps, scale)
    barre = suite_results(configs.barre(), apps, scale)
    fbarre = suite_results(configs.fbarre(), apps, scale)

    def time_saving(variant):
        return {a: 1.0 - (variant[a].mean_ats_time / base[a].mean_ats_time
                          if base[a].mean_ats_time else 1.0)
                for a in apps}

    def traffic_cut(variant):
        return {a: 1.0 - (variant[a].pcie_packets / base[a].pcie_packets
                          if base[a].pcie_packets else 1.0)
                for a in apps}

    return {
        "apps": apps,
        "series": {
            "a: Barre time saving": time_saving(barre),
            "a: F-Barre time saving": time_saving(fbarre),
            "b: Barre coalesced": {a: barre[a].coalesced_fraction
                                   for a in apps},
            "b: F-Barre coalesced": {a: fbarre[a].coalesced_fraction
                                     for a in apps},
            "c: F-Barre traffic cut": traffic_cut(fbarre),
        },
    }


render_fig16 = series_text("Fig 16: ATS efficiency (fractions)",
                           mean_row=False)


def check_fig16(out):
    apps = out["apps"]

    def mean(name):
        vals = [out["series"][name][a] for a in apps]
        return sum(vals) / len(vals)

    # (a) both schemes reduce mean processing time; F-Barre saves more.
    assert mean("a: Barre time saving") > 0.0
    assert mean("a: F-Barre time saving") >= mean("a: Barre time saving")
    # (b) both coalesce a meaningful share of the walks that reach the
    # IOMMU.  (Paper: Barre 58% > F-Barre 32%, because F-Barre coalesces
    # inside the package; on this substrate F-Barre's coalescing-aware PTW
    # scheduling raises its residual-IOMMU share instead — see
    # EXPERIMENTS.md.)
    assert mean("b: Barre coalesced") > 0.02
    assert mean("b: F-Barre coalesced") > 0.02
    # (c) F-Barre removes a substantial share of PCIe ATS traffic.
    assert mean("c: F-Barre traffic cut") > 0.15


def fig17_filters(apps=None, scale=None, sweep_apps=None):
    """Fig 17: (a) RCF/LCF hit rates, (b) filter-size sensitivity.

    Paper shape: ~75% remote hit rate (best-effort updates drop some),
    ~98% LCF true-positive rate; 512- and 1024-row filters buy a few
    percent.
    """
    apps = _apps(apps)
    fbarre = suite_results(configs.fbarre(), apps, scale)
    remote = {a: fbarre[a].remote_hit_rate for a in apps
              if fbarre[a].remote_attempts}
    local = {a: fbarre[a].lcf_true_positive_rate for a in apps
             if fbarre[a].lcf_hits}
    sweep_apps = SUBSET6 if sweep_apps is None else list(sweep_apps)
    base_rows = suite_results(configs.with_cuckoo_rows(configs.fbarre(), 256),
                              sweep_apps, scale)
    sweep = {}
    for rows in (512, 1024):
        results = suite_results(
            configs.with_cuckoo_rows(configs.fbarre(), rows),
            sweep_apps, scale)
        sweep[f"{rows} rows"] = geomean(
            list(speedups(results, base_rows).values()))
    def arith_mean(values):
        return sum(values) / len(values) if values else 0.0

    return {"apps": apps,
            "series": {"remote hit rate": remote, "local hit rate": local},
            "mean_remote_hit": arith_mean(list(remote.values())),
            "mean_local_hit": arith_mean(list(local.values())),
            "row_sweep": sweep}


def render_fig17(out):
    return format_series_table("Fig 17a: filter hit rates", out["apps"],
                               out["series"], mean_row=False) + "\n" + \
        format_kv_block("Fig 17b: speedup vs 256-row filters",
                        out["row_sweep"])


def check_fig17(out):
    # Local filter accuracy is near-perfect; remote is good but lossier.
    assert out["mean_local_hit"] > 0.9
    assert 0.4 < out["mean_remote_hit"] <= 1.0
    assert out["mean_remote_hit"] <= out["mean_local_hit"] + 0.05
    # Bigger filters never hurt much and tend to help.
    assert out["row_sweep"]["1024 rows"] >= 0.97


def fig18_breakdown(apps=None, scale=None):
    """Fig 18: Barre -> +PTW scheduling -> +peer sharing (F-Barre).

    Paper shape: coalescing-aware PTW scheduling gives 1.34x over Barre;
    peer coalescing-information sharing lifts it to 1.80x (sharing >
    scheduling).
    """
    apps = _apps(apps)
    barre = suite_results(configs.barre(scheduling=False), apps, scale)
    sched = suite_results(configs.barre(scheduling=True), apps, scale)
    full = suite_results(configs.fbarre(merge=1), apps, scale)
    series = {
        "+PTW scheduling": speedups(sched, barre),
        "+peer sharing": speedups(full, barre),
    }
    return {"apps": apps, "series": series,
            "means": {k: geomean(list(v.values())) for k, v in series.items()}}


render_fig18 = series_text("Fig 18: speedup over Barre")


def check_fig18(out):
    # Both optimizations help; peer sharing is the bigger lever.
    assert out["means"]["+PTW scheduling"] >= 1.0
    assert out["means"]["+peer sharing"] > out["means"]["+PTW scheduling"]
    assert out["means"]["+peer sharing"] > 1.1


def fig19_sharing_traffic(apps=None, scale=None):
    """Fig 19: F-Barre vs oracle fixed-latency coalescing-info sharing.

    Paper shape: real (bandwidth-contended) filter-update traffic keeps
    F-Barre above 80% of an oracle that shares at fixed latency with no
    bus usage.
    """
    apps = _apps(apps)
    real = suite_results(configs.fbarre(), apps, scale)
    oracle = suite_results(configs.fbarre(oracle_sharing=True), apps, scale)
    fraction = {a: (oracle[a].cycles / real[a].cycles) for a in apps}
    return {"apps": apps,
            "series": {"fraction of oracle": fraction},
            "mean_fraction": geomean(list(fraction.values()))}


render_fig19 = series_text(
    "Fig 19: F-Barre performance as a fraction of oracle sharing")


def check_fig19(out):
    # The sharing traffic costs something, but under 20% on average.
    assert 0.8 <= out["mean_fraction"] <= 1.02


def fig20_chiplet_scaling(apps=None, scale=None):
    """Fig 20: F-Barre speedup on 2/4/8/16-chiplet MCM-GPUs.

    Paper shape: the speedup *grows* with chiplet count
    (1.54/1.86/2.04/2.31x) because larger MCMs put more pressure on PCIe
    and the PTWs, which is exactly the contention F-Barre removes.
    """
    apps = SUBSET6 if apps is None else list(apps)
    series = {}
    for chiplets in (2, 4, 8, 16):
        base = suite_results(configs.baseline(num_chiplets=chiplets),
                             apps, scale)
        fb = suite_results(configs.fbarre(num_chiplets=chiplets),
                           apps, scale)
        series[f"{chiplets} chiplets"] = speedups(fb, base)
    means = {k: geomean(list(v.values())) for k, v in series.items()}
    return {"apps": apps, "series": series, "means": means}


render_fig20 = series_text("Fig 20: F-Barre speedup over same-size baseline")


def check_fig20(out):
    means = out["means"]
    assert means["2 chiplets"] > 1.0
    # The benefit grows from small to large MCMs.
    assert means["16 chiplets"] > means["2 chiplets"]


def fig21_gmmu(apps=None, scale=None):
    """Fig 21: MGvm vs MGvm + Barre Chord (speedup + remote-walk cut).

    Paper shape: Barre Chord improves MGvm by ~1.28x and removes >30% of
    the remote page-table walks — MGvm localizes walks, Barre Chord
    removes them.
    """
    apps = _apps(apps)
    mgvm = suite_results(configs.mgvm(), apps, scale)
    chord = suite_results(configs.mgvm(barre_chord=True), apps, scale)
    remote_cut = {}
    for a in apps:
        before = mgvm[a].gmmu_remote_walks
        after = chord[a].gmmu_remote_walks
        remote_cut[a] = 1.0 - (after / before) if before else 0.0
    series = {"+Barre Chord": speedups(chord, mgvm)}
    return {"apps": apps, "series": series,
            "mean_speedup": geomean(list(series["+Barre Chord"].values())),
            "remote_walk_cut": remote_cut}


def render_fig21(out):
    return format_series_table("Fig 21: MGvm + Barre Chord over MGvm",
                               out["apps"], out["series"]) + \
        "\nremote-walk cut: " + ", ".join(
            f"{a}={v:.2f}" for a, v in out["remote_walk_cut"].items())


def check_fig21(out):
    cuts = out["remote_walk_cut"]
    assert out["mean_speedup"] > 1.05
    mean_cut = sum(cuts.values()) / len(cuts)
    assert mean_cut > 0.2  # paper: >30% remote walks removed


def fig22_migration(apps=None, scale=None):
    """Fig 22: Barre Chord under ACUD-style migration.

    Paper shape: Barre Chord keeps a solid advantage (~1.20x) under
    runtime migration — migrated pages drop out of their coalescing groups
    without penalty while the rest keep calculating.
    """
    apps = _apps(apps)
    acud = suite_results(configs.with_migration(configs.baseline()),
                         apps, scale)
    chord = suite_results(configs.with_migration(configs.fbarre()),
                          apps, scale)
    series = {"Barre Chord": speedups(chord, acud)}
    return {"apps": apps, "series": series,
            "mean_speedup": geomean(list(series["Barre Chord"].values()))}


render_fig22 = series_text(
    "Fig 22: Barre Chord over ACUD baseline (migration on)")


def check_fig22(out):
    assert out["mean_speedup"] > 1.05


def fig23_ptw_sensitivity(apps=None, scale=None):
    """Fig 23: F-Barre speedup with 8/16/32 PTWs.

    Paper shape: 2.12x / 1.86x / 1.51x — the fewer walkers the system
    has, the more F-Barre's walk removal is worth, but it still wins with
    32.
    """
    apps = _apps(apps)
    series = {}
    for ptws in (8, 16, 32):
        base = suite_results(configs.with_ptws(configs.baseline(), ptws),
                             apps, scale)
        fb = suite_results(configs.with_ptws(configs.fbarre(), ptws),
                           apps, scale)
        series[f"{ptws} PTWs"] = speedups(fb, base)
    means = {k: geomean(list(v.values())) for k, v in series.items()}
    return {"apps": apps, "series": series, "means": means}


render_fig23 = series_text("Fig 23: F-Barre speedup by PTW count")


def check_fig23(out):
    means = out["means"]
    # The advantage shrinks monotonically as walkers are added...
    assert means["8 PTWs"] >= means["16 PTWs"] >= means["32 PTWs"] * 0.98
    # ...but never disappears.
    assert means["32 PTWs"] > 1.05


def fig24_page_size(apps=None, scale=None):
    """Fig 24: F-Barre with 64 KB / 2 MB pages; right pane: 16x inputs.

    Paper shape: larger pages shrink translation pressure, so F-Barre's
    gain narrows (2.5% at 64 KB, ~0 at 2 MB with original inputs); with
    16x inputs the 64 KB gain is large again (67%) — the benefit tracks
    IOMMU pressure.
    """
    apps = SUBSET6 if apps is None else list(apps)
    out = {"apps": apps, "series": {}}
    for label, size in [("4KB", PAGE_SIZE_4K), ("64KB", PAGE_SIZE_64K),
                        ("2MB", PAGE_SIZE_2M)]:
        base = suite_results(configs.baseline(page_size=size), apps, scale)
        fb = suite_results(configs.fbarre(page_size=size), apps, scale)
        out["series"][f"original {label}"] = speedups(fb, base)
    frames = 1 << 18
    for label, size in [("64KB", PAGE_SIZE_64K)]:
        big = {}
        for app in apps:
            workload = get_workload(app).scaled(16)
            base = run_point(configs.baseline(page_size=size,
                                              frames_per_chiplet=frames),
                             workload, scale, workload_tag="x16")
            fb = run_point(configs.fbarre(page_size=size,
                                          frames_per_chiplet=frames),
                           workload, scale, workload_tag="x16")
            big[app] = fb.speedup_over(base)
        out["series"][f"16x input {label}"] = big
    return out


render_fig24 = series_text("Fig 24: F-Barre speedup over baseline by page size")


def check_fig24(out):
    mean = {name: geomean(list(values.values()))
            for name, values in out["series"].items()}
    # Bigger pages -> less residual translation pressure -> smaller gain,
    # monotonically: 4KB > 64KB > 2MB (paper: 67%/2.5%/~0%).
    assert mean["original 4KB"] > mean["original 64KB"] * 0.98
    assert mean["original 64KB"] > mean["original 2MB"] * 0.98
    assert 0.9 <= mean["original 2MB"] <= 1.4
    # With 16x inputs, 64 KB pages leave clear pressure for F-Barre again.
    assert mean["16x input 64KB"] > mean["original 2MB"] * 0.98


def fig25_vs_superpage(apps=None, scale=None):
    """Fig 25: Barre Chord (4 KB) vs 2 MB super pages, migration on.

    Paper shape: Barre Chord wins ~1.22x on average; super pages can win
    on purely linear apps (fft), but hot-page apps (pr, fwt) favor Barre
    Chord by >2x because super-page migration drags megabytes per move.
    """
    apps = _apps(apps)
    superpage = suite_results(configs.with_migration(configs.superpage()),
                              apps, scale)
    chord = suite_results(configs.with_migration(configs.fbarre()),
                          apps, scale)
    series = {"Barre Chord vs superpage": speedups(chord, superpage)}
    return {"apps": apps, "series": series,
            "mean_speedup": geomean(list(series[
                "Barre Chord vs superpage"].values()))}


render_fig25 = series_text(
    "Fig 25: Barre Chord (4KB) over superpage (2MB), migration on")


def check_fig25(out):
    # Barre Chord wins on average (paper: 1.22x)...
    assert out["mean_speedup"] > 0.95
    values = out["series"]["Barre Chord vs superpage"]
    # ...hot-page apps clearly favor Barre Chord (paper: >2x on pr/fwt)...
    assert min(values["fwt"], values["matr"]) > 1.3
    # ...while super pages win on some linearly-mapped apps (paper: fft).
    assert min(values.values()) < 0.9


def fig26_mappings(apps=None, scale=None):
    """Fig 26: Barre Chord under round-robin / chunking / CODA mapping.

    Paper shape: Barre Chord speeds up every policy (1.25x RR, 1.48x
    chunking, 1.62x CODA); locality-oblivious round-robin gains the least
    because remote *data* accesses dominate its runtime.
    """
    from repro.common.config import MappingKind
    apps = _apps(apps)
    series = {}
    for label, kind in [("round-robin", MappingKind.ROUND_ROBIN),
                        ("chunking", MappingKind.CHUNKING),
                        ("CODA", MappingKind.CODA)]:
        base = suite_results(configs.baseline(mapping=kind), apps, scale)
        fb = suite_results(configs.fbarre(mapping=kind), apps, scale)
        series[label] = speedups(fb, base)
    means = {k: geomean(list(v.values())) for k, v in series.items()}
    return {"apps": apps, "series": series, "means": means}


render_fig26 = series_text(
    "Fig 26: F-Barre speedup under other mapping policies")


def check_fig26(out):
    means = out["means"]
    # Barre Chord helps every mapping policy...
    assert all(v > 1.0 for v in means.values())
    # ...and locality-aware policies benefit at least as much as RR.
    assert max(means["chunking"], means["CODA"]) >= means["round-robin"] * 0.95


#: Category pairs for the Fig 27a multi-programming study.
MULTIAPP_PAIRS = {
    "Low-Low": ("gemv", "fft"),
    "Low-Mid": ("pr", "jac2d"),
    "Low-High": ("fft", "spmv"),
    "Mid-Mid": ("cov", "st2d"),
    "Mid-High": ("st2d", "gesm"),
    "High-High": ("gups", "spmv"),
}


def fig27a_multiapp(pairs=None, scale=None):
    """Fig 27a: F-Barre under two-app co-scheduling (fine-grained sharing).

    Paper shape: positive speedup across category pairs (mean ~17%), with
    the middle combinations benefiting most — Low-Low barely stresses the
    IOMMU and High-High saturates it.
    """
    pairs = MULTIAPP_PAIRS if pairs is None else pairs
    series = {}
    for label, (a, b) in pairs.items():
        base = run_pair(configs.baseline(), a, b, scale)
        fb = run_pair(configs.fbarre(), a, b, scale)
        series[label] = fb.speedup_over(base)
    return {"pairs": series,
            "mean_speedup": geomean(list(series.values()))}


def render_fig27a(out):
    return format_kv_block("Fig 27a: F-Barre speedup per category pair",
                           out["pairs"])


def check_fig27a(out):
    assert out["mean_speedup"] > 1.0
    # Mid-heavy combinations benefit more than Low-Low.
    assert out["pairs"]["Mid-Mid"] > out["pairs"]["Low-Low"] * 0.9


def fig27b_iommu_tlb(apps=None, scale=None):
    """Fig 27b: F-Barre on a system with a 2048-entry IOMMU TLB.

    Paper shape: even with an IOMMU-side TLB absorbing walks, F-Barre adds
    a further ~1.22x because it removes the PCIe crossing itself.
    """
    apps = _apps(apps)
    base = suite_results(configs.with_iommu_tlb(configs.baseline()),
                         apps, scale)
    fb = suite_results(configs.with_iommu_tlb(configs.fbarre()), apps, scale)
    series = {"F-Barre + IOMMU TLB": speedups(fb, base)}
    return {"apps": apps, "series": series,
            "mean_speedup": geomean(list(series[
                "F-Barre + IOMMU TLB"].values()))}


render_fig27b = series_text(
    "Fig 27b: F-Barre speedup with a 2048-entry IOMMU TLB")


def check_fig27b(out):
    assert out["mean_speedup"] > 1.05


# --------------------------------------------------------------------------
# Tables and overheads
# --------------------------------------------------------------------------

def table1_mpki(apps=None, scale=None):
    """Table I: per-app baseline L2 TLB MPKI and its class.

    Absolute MPKI differs from the paper's (short synthetic traces keep
    cold misses visible; the paper's full apps run billions of
    instructions), but the low/mid/high classification must order
    correctly.
    """
    apps = _apps(apps)
    base = suite_results(configs.baseline(), apps, scale)
    rows = {}
    for app in apps:
        workload = get_workload(app)
        rows[app] = {
            "measured_mpki": base[app].mpki,
            "paper_mpki": workload.paper_mpki,
            "category": CATEGORY_OF[app],
        }
    return {"apps": apps, "rows": rows}


def render_table1(out):
    lines = [f"{'app':8s} {'measured':>10} {'paper':>10}  class"]
    for app, row in out["rows"].items():
        lines.append(f"{app:8s} {row['measured_mpki']:10.2f} "
                     f"{row['paper_mpki']:10.2f}  {row['category']}")
    return "\n".join(lines)


def check_table1(out):
    measured = {a: out["rows"][a]["measured_mpki"] for a in out["apps"]}
    means = {cat: geomean([measured[a] for a in apps_by_category(cat)])
             for cat in ("low", "mid", "high")}
    # The classes must separate in the right order.
    assert means["low"] < means["mid"] < means["high"]
    # Every high app out-misses every low app.
    assert min(measured[a] for a in apps_by_category("high")) > \
        max(measured[a] for a in apps_by_category("low"))


def ext_ondemand_paging(apps=None, scale=None):
    """Section VI extension: on-demand paging, group-granular fetching.

    Compares demand-paged baseline vs demand-paged Barre Chord: under Barre
    one fault maps the whole coalescing group, so sibling first-touches on
    the other chiplets never fault.  Not a paper figure — the paper
    *discusses* this integration ("pages will be fetched/evicted in the
    unit of coalescing groups"); the expected shape is that group fetch
    removes most demand faults outright.
    """
    apps = SUBSET6 if apps is None else list(apps)
    base = suite_results(configs.baseline(demand_paging=True), apps, scale)
    chord = suite_results(configs.fbarre(demand_paging=True), apps, scale)
    series = {"Barre Chord (demand paging)": speedups(chord, base)}
    fault_cut = {a: 1.0 - (chord[a].page_faults / base[a].page_faults
                           if base[a].page_faults else 0.0)
                 for a in apps}
    return {"apps": apps, "series": series,
            "mean_speedup": geomean(list(series[
                "Barre Chord (demand paging)"].values())),
            "fault_cut": fault_cut,
            "pages_per_fault": {a: chord[a].pages_per_fault for a in apps}}


def render_ext_ondemand(out):
    text = format_series_table(
        "Extension: Barre Chord vs baseline under demand paging",
        out["apps"], out["series"])
    text += "\nfault cut: " + ", ".join(
        f"{a}={v:.2f}" for a, v in out["fault_cut"].items())
    return text + "\npages/fault: " + ", ".join(
        f"{a}={v:.2f}" for a, v in out["pages_per_fault"].items())


def check_ext_ondemand(out):
    assert out["mean_speedup"] > 1.0
    # Group-granular fetch amortizes: most first-touch faults disappear.
    mean_cut = sum(out["fault_cut"].values()) / len(out["fault_cut"])
    assert mean_cut > 0.3
    assert all(v > 1.5 for v in out["pages_per_fault"].values())


def overhead_area(scale=None):
    """Section VII-K: filters + PEC buffer vs. a GPU L2 TLB.

    Paper numbers: 4 cuckoo filters + PEC buffer = 4.57 KB per chiplet,
    4.21% of a GPU L2 TLB; the PEC buffer itself is 590 bits.  An area
    model, not a simulation: ``scale`` is accepted and ignored.
    """
    report = chiplet_area_report(configs.fbarre())
    return {
        "filters_plus_pec_kib": report.added_kib,
        "overhead_vs_l2": report.overhead_vs_l2,
        "pec_buffer_bits": report.pec_buffer_bits,
        "paper_kib": 4.57,
        "paper_overhead": 0.0421,
    }


def render_area(out):
    return format_kv_block("Section VII-K: per-chiplet area accounting", out)


def check_area(out):
    # Filters + PEC buffer land near the paper's 4.57 KB.
    assert abs(out["filters_plus_pec_kib"] - out["paper_kib"]) < 0.6
    # Overhead vs the L2 TLB lands near the paper's 4.21%.
    assert abs(out["overhead_vs_l2"] - out["paper_overhead"]) < 0.02
    assert out["pec_buffer_bits"] == 590
