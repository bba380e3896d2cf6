"""The figure table: one record per paper table/figure, by name.

A :class:`Figure` is everything the reproduction says about one figure:
the experiment, its section title, its printed text and its paper-shape
checks.  ``repro figure``, ``repro sweep --figures``, the figure bench
(``benchmarks/bench_figures.py``), ``repro report`` and perfbench all
read it from ``FIGURES``.  ``figure_points`` enumerates a figure's *full*
simulation point-set up front (via the runner's collection mode), and
``run_figure`` submits that set as one parallel batch before evaluating
the figure for real — so a cold figure costs one fan-out instead of a
serial crawl.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments import ablations, figures


@dataclass(frozen=True)
class Figure:
    """One paper table/figure.

    ``run(scale=None)`` is the experiment and returns its dict ``out``;
    ``title`` heads the figure's section of ``results/SUMMARY.md``;
    ``render(out)`` is the text ``repro figure`` prints and the figure
    bench writes to ``results/<name>.txt``; ``check(out)`` asserts the
    paper's qualitative shape.
    """

    run: Callable[..., dict]
    title: str
    render: Callable[[dict], str]
    check: Callable[[dict], None]


#: Paper presentation order, our extensions and ablations last.
FIGURES = {
    "table1": Figure(figures.table1_mpki,
                     "Table I — L2 TLB MPKI per application",
                     figures.render_table1, figures.check_table1),
    "fig01": Figure(figures.fig01_ptw_scaling,
                    "Fig 1 — speedup with more PTWs",
                    figures.render_fig01, figures.check_fig01),
    "fig02": Figure(figures.fig02_superpage_migration,
                    "Fig 2 — 2 MB super pages under migration",
                    figures.render_fig02, figures.check_fig02),
    "fig04": Figure(figures.fig04_mshr,
                    "Fig 4 — L2 TLB MSHR sensitivity",
                    figures.render_fig04, figures.check_fig04),
    "fig05": Figure(figures.fig05_vpn_gap,
                    "Fig 5 — VPN-gap distribution at the IOMMU",
                    figures.render_fig05, figures.check_fig05),
    "fig06": Figure(figures.fig06_shared_l2,
                    "Fig 6 — ideal shared L2 TLB",
                    figures.render_fig06, figures.check_fig06),
    "fig15": Figure(figures.fig15_overall,
                    "Fig 15 — overall performance comparison",
                    figures.render_fig15, figures.check_fig15),
    "fig16": Figure(figures.fig16_ats,
                    "Fig 16 — ATS traffic and response time",
                    figures.render_fig16, figures.check_fig16),
    "fig17": Figure(figures.fig17_filters,
                    "Fig 17 — cuckoo filter accuracy and sizing",
                    figures.render_fig17, figures.check_fig17),
    "fig18": Figure(figures.fig18_breakdown,
                    "Fig 18 — F-Barre speedup breakdown",
                    figures.render_fig18, figures.check_fig18),
    "fig19": Figure(figures.fig19_sharing_traffic,
                    "Fig 19 — coalescing-information sharing overhead",
                    figures.render_fig19, figures.check_fig19),
    "fig20": Figure(figures.fig20_chiplet_scaling,
                    "Fig 20 — chiplet-count scaling",
                    figures.render_fig20, figures.check_fig20),
    "fig21": Figure(figures.fig21_gmmu,
                    "Fig 21 — GMMU (MGvm) integration",
                    figures.render_fig21, figures.check_fig21),
    "fig22": Figure(figures.fig22_migration,
                    "Fig 22 — migration (ACUD) integration",
                    figures.render_fig22, figures.check_fig22),
    "fig23": Figure(figures.fig23_ptw_sensitivity,
                    "Fig 23 — PTW-count sensitivity",
                    figures.render_fig23, figures.check_fig23),
    "fig24": Figure(figures.fig24_page_size,
                    "Fig 24 — page-size sensitivity",
                    figures.render_fig24, figures.check_fig24),
    "fig25": Figure(figures.fig25_vs_superpage,
                    "Fig 25 — Barre Chord vs super pages",
                    figures.render_fig25, figures.check_fig25),
    "fig26": Figure(figures.fig26_mappings,
                    "Fig 26 — other page-mapping policies",
                    figures.render_fig26, figures.check_fig26),
    "fig27a": Figure(figures.fig27a_multiapp,
                     "Fig 27a — multi-application",
                     figures.render_fig27a, figures.check_fig27a),
    "fig27b": Figure(figures.fig27b_iommu_tlb,
                     "Fig 27b — combined with an IOMMU TLB",
                     figures.render_fig27b, figures.check_fig27b),
    "area": Figure(figures.overhead_area,
                   "Section VII-K — hardware overhead",
                   figures.render_area, figures.check_area),
    "ext-ondemand": Figure(figures.ext_ondemand_paging,
                           "Extension — on-demand paging (Section VI)",
                           figures.render_ext_ondemand,
                           figures.check_ext_ondemand),
    "ablation-pw-queue": Figure(ablations.pw_queue_depth,
                                "Ablation — PW-queue depth",
                                ablations.render_pw_queue,
                                ablations.check_pw_queue),
    "ablation-pec-buffer": Figure(ablations.pec_buffer_capacity,
                                  "Ablation — PEC buffer capacity",
                                  ablations.render_pec_buffer,
                                  ablations.check_pec_buffer),
    "ablation-stream-window": Figure(ablations.stream_window,
                                     "Ablation — stream MLP window",
                                     ablations.render_stream_window,
                                     ablations.check_stream_window),
}


def figure_points(name: str, scale: float | None = None):
    """Every simulation point figure ``name`` would run (collection pass)."""
    from repro.experiments.sweep import collect_points
    return collect_points(FIGURES[name].run, scale=scale)


def run_figure(name: str, scale: float | None = None,
               jobs: int | None = None, progress: bool | None = None):
    """Prewarm a figure's full point-set in one batch, then evaluate it."""
    from repro.experiments.sweep import sweep
    sweep(figure_points(name, scale), jobs=jobs, progress=progress)
    return FIGURES[name].run(scale=scale)
