"""Sweep-engine throughput benchmarks + perf gate.

Where ``bench_core_hotpath.py`` times one simulation point's inner loops,
this suite times the *batch* layer above them: a cold multi-config sweep
through the worker pool (affinity routing + trace memo + thin wire +
cost-model packing), the same sweep warm (pure cache-hit service), the cost-model
planner itself, and the CTA-trace memo against a from-scratch rebuild.

Same scheme as the hotpath suite — median of ``ROUNDS`` round/calibration
ratios, with a calibration burst just before and after every round, gated in CI against the committed
``baseline_sweep.json`` at the same default tolerance.  Cold-sweep rounds
each run against a fresh temporary cache directory so every round pays the
full miss path; the sweep's own worker pool is exercised at
``REPRO_JOBS=4`` (clamped to the core count unless ``REPRO_OVERSUBSCRIBE``
is set, exactly as in production).

Usage mirrors the hotpath suite:

    PYTHONPATH=src python benchmarks/bench_sweep_throughput.py
    PYTHONPATH=src python benchmarks/bench_sweep_throughput.py \
        --check benchmarks/baseline_sweep.json                   # CI gate
    PYTHONPATH=src python benchmarks/bench_sweep_throughput.py \
        --update benchmarks/baseline_sweep.json                  # refresh
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_core_hotpath as harness  # noqa: E402  (shared gate machinery)

from repro.experiments import configs, runner  # noqa: E402
from repro.experiments.sweep import SweepPoint, plan_misses, sweep  # noqa: E402
from repro.gpu import mcm  # noqa: E402
from repro.workloads.suite import get_workload  # noqa: E402

ROUNDS = harness.ROUNDS
DEFAULT_TOLERANCE = harness.DEFAULT_TOLERANCE

#: The benchmark point-set: two schemes across six apps spanning the cost
#: spectrum (fft/pr slow, gemv/atax fast) at a scale where scheduling
#: overhead is visible next to simulation time.
_APPS = ("gemv", "fft", "atax", "bicg", "pr", "corr")
_SCALE = 0.05

#: Repetitions per round of the two millisecond-scale benches (~50 ms).
WARM_REPEATS = 9
PLAN_REPEATS = 2


def _points() -> list[SweepPoint]:
    return [SweepPoint(scheme(), app, _SCALE)
            for scheme in (configs.baseline, configs.fbarre)
            for app in _APPS]


@contextlib.contextmanager
def _env(**overrides: str | None):
    saved = {key: os.environ.get(key) for key in overrides}
    for key, value in overrides.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


# --------------------------------------------------------------------------
# Benchmarks (the harness times each call; return value = op count)
# --------------------------------------------------------------------------

def bench_cold_sweep_affinity() -> int:
    """Cold 2-scheme x 6-app sweep through the worker pool, fresh cache."""
    cache = tempfile.mkdtemp(prefix="repro-bench-sweep-")
    try:
        with _env(REPRO_CACHE_DIR=cache, REPRO_NO_CACHE=None,
                  REPRO_JOBS="4"):
            outcome = sweep(_points(), progress=False)
        assert outcome.stats.simulated == len(_APPS) * 2
        return outcome.stats.simulated
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def bench_warm_sweep() -> int:
    """The same sweep served entirely from a warm cache (hit path only).

    One sweep takes ~6 ms; ``WARM_REPEATS`` of them keep a round near
    50 ms, so one scheduler hiccup does not decide a round.
    """
    cache = _WARM_CACHE
    served = 0
    with _env(REPRO_CACHE_DIR=cache, REPRO_NO_CACHE=None, REPRO_JOBS="4"):
        for _ in range(WARM_REPEATS):
            outcome = sweep(_points(), progress=False)
            assert outcome.stats.cached == len(_APPS) * 2
            served += outcome.stats.cached
    return served


def bench_plan_misses() -> int:
    """The cost-model planner over a synthetic 512-point miss list.

    Keying and planning 512 points takes ~35 ms; ``PLAN_REPEATS`` of them
    make a round long enough to average out scheduler jitter.
    """
    base = configs.baseline()
    for _ in range(PLAN_REPEATS):
        misses = []
        for i in range(512):
            point = SweepPoint(base, _APPS[i % len(_APPS)], _SCALE,
                               workload_tag=f"bench{i}")
            misses.append((point.key(), point))
        with _env(REPRO_CACHE_DIR=_WARM_CACHE, REPRO_NO_CACHE=None):
            plan = plan_misses(misses, workers=4)
        assert len(plan) == 512
    return 512 * PLAN_REPEATS


def bench_trace_memo_hit() -> int:
    """Memoized CTA-trace reuse vs regenerating offsets for every config.

    Measures 5000 ``build_cta_traces`` calls for the same (app, seed,
    scale) group — the pattern an affinity worker sees sweeping one app
    across every scheme — where all but the first are LRU hits.  The
    count keeps a round near 50 ms, so the hits, not the one ~6 ms cold
    build, set the time.
    """
    workloads = [get_workload("fft")]
    seed = configs.baseline().seed
    mcm.TRACE_MEMO.clear()
    calls = 5000
    for _ in range(calls):
        traces = mcm.build_cta_traces(workloads, seed, _SCALE)
        assert traces and traces[0]
    assert mcm.TRACE_MEMO.hits == calls - 1
    return calls


BENCHES = {
    "cold_sweep_affinity": bench_cold_sweep_affinity,
    "warm_sweep": bench_warm_sweep,
    "plan_misses_512": bench_plan_misses,
    "trace_memo_hit": bench_trace_memo_hit,
}

_WARM_CACHE = ""


def main(argv: list[str] | None = None) -> int:
    global _WARM_CACHE
    _WARM_CACHE = tempfile.mkdtemp(prefix="repro-bench-warm-")
    try:
        with _env(REPRO_CACHE_DIR=_WARM_CACHE, REPRO_NO_CACHE=None,
                  REPRO_JOBS="4"):
            sweep(_points(), progress=False)  # fill the warm-path cache
        harness.BENCHES = BENCHES
        return harness.main(argv)
    finally:
        shutil.rmtree(_WARM_CACHE, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
