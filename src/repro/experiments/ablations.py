"""Ablation studies for Barre Chord's design choices.

Beyond the paper's own sensitivity studies (PTWs, filters, page sizes,
chiplets), these sweep the remaining sizing decisions Table II fixes:

* the PW-queue depth (48) — which bounds both queueing and the PEC scan
  window that coalescing feeds on;
* the PEC buffer capacity (5 entries) — smaller buffers evict descriptors
  for live data and silently disable coalescing for them;
* IOMMU outbound multicast — the paper explicitly rejects speculative
  multicasting of calculated PFNs (Section IV-B); measured here as the
  pending-only policy vs. larger scan windows.
"""

from __future__ import annotations

import dataclasses

from repro.common.stats import geomean
from repro.experiments import configs
from repro.experiments.report import series_text
from repro.experiments.runner import speedups, suite_results
from repro.experiments.figures import SUBSET6


def pw_queue_depth(apps=None, scale=None, depths=(12, 24, 48, 96)):
    """Sweep the PW-queue depth under Barre (the PEC scan window).

    Table II fixes 48 entries.  The PW-queue is double duty in Barre: it
    buffers walks *and* is the window the PEC logic scans for coalescible
    pending requests — deeper queues give one finished walk more siblings
    to answer.
    """
    apps = SUBSET6 if apps is None else list(apps)
    reference = None
    series = {}
    for depth in depths:
        cfg = configs.barre()
        cfg = cfg.replace(iommu=dataclasses.replace(
            cfg.iommu, pw_queue_entries=depth))
        results = suite_results(cfg, apps, scale)
        if reference is None:
            reference = results
        series[f"queue {depth}"] = speedups(results, reference)
    means = {k: geomean(list(v.values())) for k, v in series.items()}
    return {"apps": apps, "series": series, "means": means}


render_pw_queue = series_text(
    "Ablation: Barre speedup vs a 12-entry PW-queue")


def check_pw_queue(out):
    means = out["means"]
    # Deeper queues never hurt the mean materially.
    assert means["queue 48"] >= means["queue 12"] * 0.97
    assert means["queue 96"] >= means["queue 48"] * 0.95


def pec_buffer_capacity(apps=None, scale=None, capacities=(1, 2, 5, 8)):
    """Sweep the PEC buffer entry count under F-Barre.

    With one entry, multi-data apps thrash descriptors and lose most
    coalescing; the paper's five entries cover every Table I app.  Table
    II fixes 5 x 118-bit entries because "all of our benchmark
    applications use up to five large data" (Section IV-E); this ablation
    shows what starving the buffer costs.
    """
    apps = SUBSET6 if apps is None else list(apps)
    base = suite_results(configs.baseline(), apps, scale)
    series = {}
    coalesced = {}
    for capacity in capacities:
        cfg = configs.fbarre(pec_buffer_entries=capacity)
        results = suite_results(cfg, apps, scale)
        series[f"{capacity} entries"] = speedups(results, base)
        coalesced[f"{capacity} entries"] = {
            a: results[a].coalesced_fraction for a in apps}
    means = {k: geomean(list(v.values())) for k, v in series.items()}
    return {"apps": apps, "series": series, "means": means,
            "coalesced": coalesced}


render_pec_buffer = series_text(
    "Ablation: F-Barre speedup over baseline by PEC buffer capacity")


def check_pec_buffer(out):
    means = out["means"]
    # Five entries (the paper's choice) capture ~all of the benefit.
    assert means["5 entries"] >= means["1 entries"]
    assert means["8 entries"] <= means["5 entries"] * 1.1


def stream_window(apps=None, scale=None, windows=(4, 16, 64)):
    """Sweep per-stream memory-level parallelism (substrate sensitivity).

    Not a paper experiment: it quantifies how much of F-Barre's advantage
    depends on the compute model's latency-hiding assumption, which
    EXPERIMENTS.md uses to bound the fidelity gap: with little MLP
    translation latency is fully exposed; with deep windows it overlaps.
    """
    apps = SUBSET6 if apps is None else list(apps)
    series = {}
    for window in windows:
        base = suite_results(configs.baseline(stream_window=window),
                             apps, scale)
        fb = suite_results(configs.fbarre(stream_window=window), apps, scale)
        series[f"window {window}"] = speedups(fb, base)
    means = {k: geomean(list(v.values())) for k, v in series.items()}
    return {"apps": apps, "series": series, "means": means}


render_stream_window = series_text(
    "Ablation: F-Barre speedup over baseline by stream window")


def check_stream_window(out):
    means = out["means"]
    # F-Barre wins at every latency-hiding level.
    assert all(v > 1.0 for v in means.values())
