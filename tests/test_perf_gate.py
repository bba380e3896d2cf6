"""The perf gate's verdict on perfbench results (no perfbench run here)."""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))
try:
    import perf_gate
finally:
    sys.path.pop(0)

END_TO_END = [{"name": "norm_wall_s", "better": "lower", "bound": 0.25},
              {"name": "norm_kacc_per_s", "better": "higher", "bound": 0.25}]


def runs(*walls: float) -> list[dict]:
    return [{"correct": True, "failed": 0,
             "metrics": {"norm_wall_s": {"value": w},
                         "norm_kacc_per_s": {"value": 100.0 / w}}}
            for w in walls]


def test_medians_within_bound_pass():
    # One slow run out of three does not move the median.
    assert perf_gate.regressions("w", runs(4.0, 4.1, 3.9),
                                 runs(4.2, 9.0, 4.0), END_TO_END) == []


def test_median_past_bound_names_metric_and_workload():
    failures = perf_gate.regressions("fbarre-suite", runs(4.0, 4.0, 4.0),
                                     runs(5.5, 5.6, 5.4), END_TO_END)
    assert len(failures) == 2
    assert failures[0].startswith("fbarre-suite: norm_wall_s")
    assert failures[1].startswith("fbarre-suite: norm_kacc_per_s")


def test_incorrect_run_fails_whatever_the_timing():
    bad = runs(4.0, 4.0, 4.0)
    bad[1] = {"correct": False, "failed": 1, "metrics": {}}
    failures = perf_gate.regressions("w", runs(4.0, 4.0, 4.0), bad,
                                     END_TO_END)
    assert failures == ["w: this run 2 is not correct (1)"]
