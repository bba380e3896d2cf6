"""Structural tests of the figure registry (no simulations)."""

import json
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.figures import MULTIAPP_PAIRS, SUBSET6, overhead_area
from repro.experiments.registry import FIGURES
from repro.workloads import APP_ORDER, CATEGORY_OF


def test_subset6_is_balanced_across_classes():
    assert len(SUBSET6) == 6
    counts = {"low": 0, "mid": 0, "high": 0}
    for app in SUBSET6:
        assert app in APP_ORDER
        counts[CATEGORY_OF[app]] += 1
    assert counts == {"low": 2, "mid": 2, "high": 2}


def test_multiapp_pairs_match_their_labels():
    for label, (a, b) in MULTIAPP_PAIRS.items():
        want = [part.lower() for part in label.split("-")]
        got = sorted([CATEGORY_OF[a], CATEGORY_OF[b]])
        assert sorted(want) == got, (label, a, b)


def test_multiapp_pairs_cover_all_combinations():
    assert set(MULTIAPP_PAIRS) == {"Low-Low", "Low-Mid", "Low-High",
                                   "Mid-Mid", "Mid-High", "High-High"}


def test_overhead_area_reproduces_paper_constants():
    out = overhead_area()
    assert abs(out["filters_plus_pec_kib"] - 4.57) < 0.05
    assert abs(out["overhead_vs_l2"] - 0.0421) < 0.003
    assert out["pec_buffer_bits"] == 590


@pytest.mark.parametrize("name", list(FIGURES))
def test_render_reads_only_what_run_returns(name):
    """Each render prints its figure's stub results (a collection pass),
    so a render reading a key its run no longer returns fails here."""
    fig = FIGURES[name]
    before = runner.SIMULATIONS
    with runner.collecting():
        out = fig.run()
    assert fig.render(out)
    assert runner.SIMULATIONS == before


def test_render_pins_cover_every_figure():
    """``scripts/check_figure_renders.py`` pins exactly the registered
    figures, so a new figure cannot ship without a render pin."""
    pins = Path(__file__).parent / "golden" / "figures" / "renders.json"
    pinned = json.loads(pins.read_text())
    assert pinned["scale"] == 0.05
    assert list(pinned["renders"]) == list(FIGURES)
