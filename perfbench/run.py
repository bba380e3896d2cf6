"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fbarre-suite --seed 2024 \\
        --seconds 30 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics (see perfbench/README.md).  The last line of standard
output is the JSON result; a human-readable table goes to standard error.
The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 9
WORKLOADS = ("fbarre-suite", "baseline-table1", "repro-sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2024,
                        help="config seed (SimConfig.seed); default 2024")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="timed budget: whole rounds (a pass, plus warm "
                             "hits on repro-sweep) run while the next is "
                             "predicted to fit (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def bootstrap() -> None:
    """Make ``src/`` importable and the run independent of REPRO_* knobs."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/repro not found; run from a checkout of "
              f"the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def setup(workload: str, seed: int, workdir: Path):
    """Everything between process start and the first timed op."""
    import suites
    return suites.make_plan(workload, seed, workdir / "plan-cache")


def measure_setup(args, workdir: Path) -> list[float]:
    """Time of fresh interpreters doing :func:`setup`, spawn to exit, each
    normalized like an op by the calibration bursts around it."""
    import suites
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir)]
    times, burst = [], suites.calib_burst()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        probe_s = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n"
                               f"{proc.stderr.decode(errors='replace')}")
        after = suites.calib_burst()
        times.append(probe_s * suites.CALIB_REF_S * 2 / (burst + after))
        burst = after
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process or any finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (the value a q-share of samples stay under)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered))
                                                  - 1))]


class Run:
    """Passes, hits, and the failure tally of one benchmark invocation."""

    def __init__(self, plan, workdir: Path):
        import suites
        self.suites = suites
        self.plan = plan
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one_pass(self, index: int):
        s = self.suites
        if self.plan.workload == "repro-sweep":
            out = s.run_sweep_pass(self.plan, self.cache_dir(index))
        else:
            out = s.run_inprocess_pass(self.plan)
        self.attempted += out.attempted
        self.failed += out.failed
        self.errors.extend(out.errors)
        return out

    def cache_dir(self, index: int) -> Path:
        return self.workdir / f"cache-{index}"

    def hits(self, cold, index: int, rounds: int):
        """Warm hits from the cache the sweep pass ``index`` filled."""
        out = self.suites.warm_hits(self.plan, cold, self.cache_dir(index),
                                    rounds)
        self.attempted += out.attempted
        self.failed += out.failed + bool(out.simulated)
        self.errors.extend(out.errors)
        return out

    def same_as(self, reference, other, what: str) -> None:
        """Every op of ``other`` must serialize like ``reference``'s."""
        for label, a, b in zip((op.label for op in self.plan.ops),
                               reference.digests, other.digests):
            if a and b and a != b:
                self.failed += 1
                self.errors.append(f"{label}: {what} result differs")

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0 and not self.errors,
                "attempted": max(1, self.attempted), "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}


def block_quantile(samples: list[float], q: float, block: int = 500) -> float:
    """Median over consecutive blocks of ``block`` samples of each block's
    ``q``-quantile: a burst of host interference moves one block, not the
    figure.  0 without samples."""
    if not samples:
        return 0.0
    blocks = [samples[i:i + block]
              for i in range(0, max(1, len(samples) - block + 1), block)]
    return statistics.median(quantile(b, q) for b in blocks)


def end_to_end(run: Run, args) -> dict:
    """Rounds of one timed pass (plus, on ``repro-sweep``, an untimed
    warm-hit check), while the next round is predicted to fit in
    ``--seconds``."""
    passes, rounds_s = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        cold = run.one_pass(len(passes))
        if run.plan.workload == "repro-sweep":
            run.hits(cold, len(passes), rounds=1)
        passes.append(cold)
        rounds_s.append(time.perf_counter() - round_start)
        if (time.perf_counter() - start + statistics.median(rounds_s)
                > args.seconds):
            break
    for later in passes[1:]:
        run.same_as(passes[0], later, "repeat-pass")
    rss = peak_rss_mb()
    setup_s = statistics.median(measure_setup(args, run.workdir))
    return {
        "norm_wall_s": (statistics.median(p.norm_s for p in passes), "s"),
        "norm_kacc_per_s": (statistics.median(p.accesses / p.norm_s / 1e3
                                              for p in passes), "kacc/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "mpki_log10_err": (run.suites.mpki_log10_err(run.plan, passes[0]),
                           "decades"),
    }


def per_layer(run: Run, args) -> dict:
    """One untraced and one traced pass; per-layer counts and self times."""
    import layers
    harvest = layers.Harvest()
    harvest.install()
    plan = run.plan
    sweep = plan.workload == "repro-sweep"

    def counted_pass(index: int):
        out = run.one_pass(index)
        # Without the harvest hook every counter would silently read 0.
        if out.attempted and not harvest.counts["points"]:
            run.failed += 1
            run.errors.append(f"pass {index}: no simulation was counted")
        return out

    untraced = counted_pass(0)
    untraced_counts = harvest.as_dict()
    harvest.reset()
    clock = layers.LayerClock()
    clock.install()
    try:
        traced = counted_pass(1)
        hit_ms = []
        if sweep:
            hits = run.hits(traced, 1, run.suites.hit_rounds(len(plan.ops)))
            hit_ms = [t * 1e3 for t in hits.seconds]
    finally:
        clock.uninstall()
        harvest.uninstall()
    run.same_as(untraced, traced, "traced")
    if harvest.as_dict() != untraced_counts:
        run.failed += 1
        run.errors.append("traced counters differ from untraced counters")

    c, sums = harvest.counts, harvest.sums
    ratio = lambda a, b: a / b if b else 0.0
    median_ms = lambda xs: statistics.median(xs) * 1e3 if xs else 0.0
    calls = clock.calls
    samples = clock.samples
    metrics = {
        "events.fired": (c["events_fired"], "count"),
        "memsim.tlb_lookups": (c["tlb_lookups"], "count"),
        "memsim.l2_hit_rate": (ratio(c["l2_hits"], c["l2_lookups"]), "ratio"),
        "memsim.mshr_merges": (c["mshr_merges"], "count"),
        "memsim.mshr_stalls": (c["mshr_stalls"], "count"),
        "memsim.pcie_packets": (c["pcie_packets"], "count"),
        "memsim.mesh_packets": (c["mesh_packets"], "count"),
        "memsim.link_queue_cycles": (sums["link_queue_cycles"], "cycles"),
        "filters.inserts": (calls["CuckooFilter.insert"], "count"),
        "filters.deletes": (calls["CuckooFilter.delete"], "count"),
        "filters.lookups": (calls["CuckooFilter.contains"], "count"),
        "filters.insert_drops": (c["filter_insert_drops"], "count"),
        "core.updates_sent": (c["updates_sent"], "count"),
        "core.lcf_true_pos_rate": (
            1.0 - ratio(c["lcf_false_positives"], c["lcf_hits"])
            if c["lcf_hits"] else 0.0, "ratio"),
        "core.rcf_hit_rate": (ratio(c["remote_hits"], c["remote_attempts"]),
                              "ratio"),
        "core.ats_fallbacks": (c["ats_fallbacks"], "count"),
        "iommu.ats_requests": (c["ats_requests"], "count"),
        "iommu.walks": (c["walks"], "count"),
        "iommu.walk_merges": (c["walk_merges"], "count"),
        "iommu.pec_coalesced": (c["pec_coalesced"], "count"),
        "iommu.pec_calc_rate": (ratio(c["pec_calculations"],
                                      c["pec_attempts"]), "ratio"),
        "iommu.pw_queue_overflows": (c["pw_queue_overflows"], "count"),
        "iommu.ats_cycles_mean": (ratio(sums["ats_cycles"],
                                        c["ats_samples"]), "cycles"),
        "gpu.accesses": (c["accesses"], "count"),
        "gpu.window_stalls": (c["window_stalls"], "count"),
        "gpu.sim_mcycles": (c["sim_cycles"] / 1e6, "Mcycles"),
        "build.driver_s": (clock.span_s["build.driver"], "s"),
        "build.trace_s": (clock.span_s["build.trace"], "s"),
        "build.pages_mapped": (c["pages_mapped"], "count"),
        "sweep.plan_s": (plan.plan_s, "s"),
        "sweep.busy_frac": (sum(untraced.op_seconds) / untraced.wall_s,
                            "ratio"),
        "sweep.point_s_sum": (sum(untraced.op_seconds), "s"),
        "sweep.memo_hit_rate": (ratio(untraced.memo_hits,
                                      untraced.memo_hits
                                      + untraced.memo_misses), "ratio"),
        "sweep.steals": (untraced.steals, "count"),
        "cache.bytes_written": (traced.bytes_written, "bytes"),
        "cache.hit_ms_p50": (block_quantile(hit_ms, 0.50), "ms"),
        "cache.hit_ms_p99": (block_quantile(hit_ms, 0.99), "ms"),
        "cache.key_ms_p50": (median_ms(samples["point_key"]), "ms"),
        "cache.load_ms_p50": (median_ms(samples["_load"]), "ms"),
        "trace.overhead_frac": (traced.norm_s / untraced.norm_s - 1.0,
                                "ratio"),
        "host.wall_s": (untraced.wall_s, "s"),
        "host.calib_ms": (statistics.median(untraced.calib_s) * 1e3, "ms"),
    }
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = (clock.self_s[layer], "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    if args.setup_probe:
        setup(args.workload, args.seed, args.workdir)
        sys.stdout.flush()
        os._exit(0)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = setup(args.workload, args.seed, workdir)
        run = Run(plan, workdir)
        metrics = (per_layer if args.trace else end_to_end)(run, args)
        out = run.result(metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for error in run.errors[:20]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    for name, value in out["metrics"].items():
        print(f"  {name:28s} {value['value']:>14.6g} {value['unit']}",
              file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
