"""Distributed-sweep benchmark + perf gate (paired A/B vs the serial backend).

Times the same cold sweep twice on fresh caches — once through the serial
backend, once through the distributed backend with two local workers — and
gates three properties:

1. **Determinism** — the two caches must contain byte-identical files
   (same names, same SHA-256 digests), and every point with a frozen
   golden digest in ``tests/golden/`` must match it.  Always enforced.
2. **No duplicate work** — each side simulates every miss exactly once
   (``stats.simulated == len(points)`` on a fresh cache).  Always enforced.
3. **Speedup floor** — the 2-worker distributed cold sweep must be at
   least ``FLOOR``x faster than serial.  Enforced only on machines with
   ``MIN_CORES``+ cores (CI runners); on a single-core box two workers
   cannot beat one, so the floor is reported but skipped.

The ratio is paired and same-process: both sides run on the same machine
moments apart, so no calibration loop is needed.  Usage::

    PYTHONPATH=src python benchmarks/bench_distributed_sweep.py
    PYTHONPATH=src python benchmarks/bench_distributed_sweep.py \
        --check benchmarks/baseline_distributed.json              # CI gate
    PYTHONPATH=src python benchmarks/bench_distributed_sweep.py \
        --update benchmarks/baseline_distributed.json             # refresh
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments import configs, runner  # noqa: E402
from repro.experiments.sweep import SweepPoint, sweep  # noqa: E402

ROUNDS = 3
FLOOR = 1.5              #: distributed/serial speedup floor (2 workers)
MIN_CORES = 2            #: cores needed before the floor is meaningful
DEFAULT_TOLERANCE = 0.25

#: Two schemes across four apps at the golden scale: four affinity groups,
#: so two workers each take two groups and the LPT split is near-even.
_APPS = ("gemv", "fft", "atax", "bicg")
_SCALE = 0.05

#: Points that also have a frozen digest in tests/golden/ are cross-checked
#: against it, keeping this gate and the golden tests on one source of truth.
_GOLDEN_NAMES = ("baseline-gemv", "fbarre-gemv", "fbarre-fft")


def _points() -> list[SweepPoint]:
    return [SweepPoint(scheme(), app, _SCALE)
            for scheme in (configs.baseline, configs.fbarre)
            for app in _APPS]


def _digest_map(cache: str) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(cache).glob("*.json"))}


def _with_env(overrides: dict[str, str | None]):
    saved = {key: os.environ.get(key) for key in overrides}
    for key, value in overrides.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    return saved


def _cold_sweep(scheduler: str,
                env: dict[str, str | None]) -> tuple[float, dict[str, str]]:
    """One cold sweep on a fresh cache: (wall seconds, digest map)."""
    cache = tempfile.mkdtemp(prefix=f"repro-bench-dist-{scheduler}-")
    points = _points()
    overrides = {"REPRO_CACHE_DIR": cache, "REPRO_NO_CACHE": None, **env}
    saved = _with_env(overrides)
    try:
        start = time.perf_counter()
        outcome = sweep(points, jobs=2, progress=False, scheduler=scheduler)
        seconds = time.perf_counter() - start
        assert outcome.stats.simulated == len(points), (
            f"{scheduler}: expected {len(points)} simulations on a fresh "
            f"cache, saw {outcome.stats.simulated} (duplicate or lost work)")
        digests = _digest_map(cache)
        assert len(digests) == len(points)
        return seconds, digests
    finally:
        _with_env(saved)
        shutil.rmtree(cache, ignore_errors=True)


def _check_golden(digests: dict[str, str]) -> None:
    """Points with a frozen golden digest must still land on it."""
    for name in _GOLDEN_NAMES:
        golden = json.loads(
            (REPO / "tests" / "golden" / f"{name}.json").read_text())
        scheme, app = name.split("-", 1)
        point = SweepPoint(getattr(configs, scheme)(), app, _SCALE)
        filename = (f"{app}-"
                    f"{runner.point_digest(point.key())}.json")
        assert filename in digests, f"{name}: {filename} not in the cache"
        assert digests[filename] == golden["cache_payload_sha256"], (
            f"{name}: cache payload drifted from its golden digest")


def run_benches() -> dict:
    serial_times, distributed_times = [], []
    reference: dict[str, str] | None = None
    for _ in range(ROUNDS):
        serial_s, serial_digests = _cold_sweep("serial", {
            "REPRO_DISTRIBUTED_LOCAL": None})
        dist_s, dist_digests = _cold_sweep("distributed", {
            "REPRO_DISTRIBUTED_LOCAL": "2",
            "REPRO_OVERSUBSCRIBE": "1"})
        assert serial_digests == dist_digests, (
            "distributed cache files differ from serial — determinism "
            "violation")
        if reference is None:
            reference = serial_digests
            _check_golden(reference)
        else:
            assert serial_digests == reference, "run-to-run digest drift"
        serial_times.append(serial_s)
        distributed_times.append(dist_s)
    serial_s = statistics.median(serial_times)
    dist_s = statistics.median(distributed_times)
    return {
        "rounds": ROUNDS,
        "cores": os.cpu_count() or 1,
        "points": len(_points()),
        "scale": _SCALE,
        "serial_s": round(serial_s, 3),
        "distributed_s": round(dist_s, 3),
        "speedup": round(serial_s / dist_s, 3),
        "floor": FLOOR,
        "digests_match": True,
    }


def format_table(payload: dict) -> str:
    lines = [
        f"{'side':<14} {'median s':>10}",
        f"{'serial':<14} {payload['serial_s']:>10.3f}",
        f"{'distributed':<14} {payload['distributed_s']:>10.3f}",
        "",
        f"speedup (2 local workers): {payload['speedup']:.2f}x "
        f"on {payload['cores']} core(s); floor {payload['floor']:.1f}x "
        + ("enforced" if payload["cores"] >= MIN_CORES
           else f"skipped (< {MIN_CORES} cores)"),
        f"determinism: {payload['points']} points, serial == distributed, "
        f"golden digests OK",
    ]
    return "\n".join(lines)


def check_against(payload: dict, baseline: dict,
                  tolerance: float) -> list[str]:
    failures: list[str] = []
    if not payload.get("digests_match"):
        failures.append("distributed cache diverged from serial")
    if payload["cores"] >= MIN_CORES:
        if payload["speedup"] < FLOOR:
            failures.append(
                f"speedup {payload['speedup']:.2f}x is below the "
                f"{FLOOR:.1f}x floor on {payload['cores']} cores")
        if (baseline.get("cores", 0) >= MIN_CORES
                and payload["speedup"]
                < baseline["speedup"] * (1 - tolerance)):
            failures.append(
                f"speedup {payload['speedup']:.2f}x regressed more than "
                f"{tolerance:.0%} from the baseline "
                f"{baseline['speedup']:.2f}x")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true",
                        help="emit the payload as JSON")
    parser.add_argument("--check", metavar="BASELINE",
                        help="gate against a committed baseline file")
    parser.add_argument("--update", metavar="BASELINE",
                        help="write the measured payload as the baseline")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed speedup regression vs the baseline "
                             "(default %(default)s)")
    args = parser.parse_args(argv)

    payload = run_benches()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_table(payload))

    if args.update:
        Path(args.update).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"baseline written to {args.update}")
        return 0
    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        failures = check_against(payload, baseline, args.tolerance)
        if failures:
            print("PERF GATE FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print("perf gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
