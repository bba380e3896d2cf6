"""Experiment harness: cached runners, the parallel sweep engine, and
per-figure reproductions."""

from repro.experiments import ablations, configs, figures
from repro.experiments.registry import FIGURES, figure_points, run_figure
from repro.experiments.report import (
    format_bar_chart,
    format_kv_block,
    format_phase_breakdown,
    format_series_table,
)
from repro.experiments.runner import (
    bench_scale,
    cached_result,
    run_pair,
    run_point,
    speedups,
    store_point,
    suite_results,
)
from repro.experiments.sweep import (
    SweepOutcome,
    SweepPoint,
    SweepStats,
    collect_points,
    default_jobs,
    sweep,
)

__all__ = [
    "FIGURES",
    "SweepOutcome",
    "SweepPoint",
    "SweepStats",
    "ablations",
    "bench_scale",
    "cached_result",
    "collect_points",
    "configs",
    "default_jobs",
    "figure_points",
    "figures",
    "format_bar_chart",
    "format_kv_block",
    "format_phase_breakdown",
    "format_series_table",
    "run_figure",
    "run_pair",
    "run_point",
    "speedups",
    "store_point",
    "suite_results",
    "sweep",
]
