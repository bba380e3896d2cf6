"""Experiment harness: cached runners, the parallel sweep engine, and
per-figure reproductions."""

import importlib

#: Public name -> the module that defines it (a submodule exports itself).
#: Names load on first access (PEP 562), so ``from repro.experiments import
#: runner`` loads neither the figure table nor the sweep engine.
_EXPORTS = {
    "FIGURES": "repro.experiments.registry",
    "SweepOutcome": "repro.experiments.sweep",
    "SweepPoint": "repro.experiments.sweep",
    "SweepStats": "repro.experiments.sweep",
    "ablations": "repro.experiments.ablations",
    "bench_scale": "repro.experiments.runner",
    "cached_result": "repro.experiments.runner",
    "collect_points": "repro.experiments.sweep",
    "configs": "repro.experiments.configs",
    "default_jobs": "repro.experiments.sweep",
    "figure_points": "repro.experiments.registry",
    "figures": "repro.experiments.figures",
    "format_bar_chart": "repro.experiments.report",
    "format_kv_block": "repro.experiments.report",
    "format_phase_breakdown": "repro.experiments.report",
    "format_series_table": "repro.experiments.report",
    "run_figure": "repro.experiments.registry",
    "run_pair": "repro.experiments.runner",
    "run_point": "repro.experiments.runner",
    "speedups": "repro.experiments.runner",
    "store_point": "repro.experiments.runner",
    "suite_results": "repro.experiments.runner",
    "sweep": "repro.experiments.sweep",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if module == f"{__name__}.{name}":
        value = importlib.import_module(module)
    else:
        value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
