"""The figure bench: regenerate every paper table/figure in ``FIGURES``.

For each figure it fills the figure's full simulation point-set in
parallel over the sweep engine's worker pool (so pytest-benchmark times
the experiment, not a serial queue of cold simulations), times one run
(``benchmark.pedantic(rounds=1)``), writes the figure's text to
``results/<name>.txt`` and prints it, then asserts the paper's
qualitative shape (who wins, roughly by how much).

One figure: ``pytest benchmarks/bench_figures.py --benchmark-only -k
fig15``.  Worker count comes from ``REPRO_JOBS`` (default: all cores);
tune runtime with ``REPRO_BENCH_SCALE`` (default 0.3, the scale
``results/`` is committed at; larger = slower but less noisy) and clear
``.bench_cache`` to force re-simulation.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.registry import FIGURES, figure_points
from repro.experiments.sweep import sweep

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(benchmark, name):
    fig = FIGURES[name]
    sweep(figure_points(name))
    out = benchmark.pedantic(fig.run, rounds=1, iterations=1)
    text = fig.render(out)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
    fig.check(out)
