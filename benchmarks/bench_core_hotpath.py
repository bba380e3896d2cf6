"""Hot-path microbenchmark suite + perf gate.

Times the inner loops every simulation point spends its cycles in — the
event kernel, TLB probes, MSHR churn, cuckoo-filter ops, global-PFN math —
plus one full figure point as the end-to-end sanity check.  Each benchmark
is run ``ROUNDS`` times and reports the **median**, so one scheduler hiccup
cannot fail a gate.

Because absolute seconds are machine-bound, every result also carries a
``normalized`` value.  A calibration burst — a fixed pure-Python loop —
is timed just before and just after every round, and the value is the
median over rounds of the round's time divided by the mean of its two
bursts.  A host that slows down mid-run (a neighbour on a shared
machine) slows the bursts around the affected rounds with it, so the
ratio follows the host's speed where one up-front calibration could
not.  The perf gate compares *normalized* values, which also transfer
across CI runner generations (numerator and denominator scale with the
interpreter + machine speed).

Usage:

    PYTHONPATH=src python benchmarks/bench_core_hotpath.py              # table
    PYTHONPATH=src python benchmarks/bench_core_hotpath.py --json out.json
    PYTHONPATH=src python benchmarks/bench_core_hotpath.py \
        --check benchmarks/baseline_hotpath.json                        # CI gate
    PYTHONPATH=src python benchmarks/bench_core_hotpath.py \
        --update benchmarks/baseline_hotpath.json                       # refresh

The committed ``baseline_hotpath.json`` is the optimized build's numbers;
the CI step fails when any benchmark regresses more than ``--tolerance``
(default 25%, generous for runner noise) against it.  Refresh procedure:
see docs/performance.md ("Refreshing the perf-gate baseline").
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.common.addresses import split_global_pfn
from repro.common.config import CuckooConfig, TlbConfig
from repro.common.events import EventQueue
from repro.filters.cuckoo import CuckooFilter
from repro.memsim.tlb import MshrFile, Tlb, TlbEntry

ROUNDS = 3
DEFAULT_TOLERANCE = 0.25
#: Iterations of one calibration burst (60-95 ms on a shared 2-vCPU VM).
CALIB_ITERS = 400_000


# --------------------------------------------------------------------------
# Benchmarks.  Each returns the number of core operations it performed so
# the table can show ns/op; timing is done by the harness around the call.
# --------------------------------------------------------------------------

def bench_event_queue_mixed() -> int:
    """Schedule/fire chains with mixed delays across 64 logical streams."""
    q = EventQueue()
    streams, per = 64, 1500
    counts = [per] * streams

    def make(i: int):
        def cb() -> None:
            counts[i] -= 1
            if counts[i]:
                q.schedule((i + counts[i]) % 13, cb)
        return cb

    for i in range(streams):
        q.schedule(i % 5, make(i))
    q.run()
    assert q.events_fired == streams * per
    return streams * per


def bench_event_queue_zero_chain() -> int:
    """Same-cycle dispatch chains: the zero-delay handler-to-handler path."""
    q = EventQueue()
    n = 60_000
    left = [n]

    def cb() -> None:
        left[0] -= 1
        if left[0]:
            q.schedule(0 if left[0] % 8 else 1, cb)

    q.schedule(0, cb)
    q.run()
    assert q.events_fired == n
    return n


def bench_tlb_hit() -> int:
    """Direct-hit probes on a warm L2-shaped TLB (LRU bump every access)."""
    config = TlbConfig(entries=512, ways=16, lookup_latency=10, mshrs=16)
    tlb = Tlb(config, name="bench.l2")
    for vpn in range(512):
        tlb.insert(TlbEntry(pasid=0, vpn=vpn, global_pfn=vpn + 1))
    n = 120_000
    lookup = tlb.lookup
    for i in range(n):
        entry = lookup(0, (i * 7) % 512)
        assert entry is not None
    assert tlb.stats.count("hits") == n
    return n


def bench_tlb_insert_evict() -> int:
    """Insert streams that continuously evict (the fill path under churn)."""
    config = TlbConfig(entries=512, ways=16, lookup_latency=10, mshrs=16)
    tlb = Tlb(config, name="bench.l2")
    n = 40_000
    for i in range(n):
        tlb.insert(TlbEntry(pasid=0, vpn=i, global_pfn=i + 1))
    assert tlb.stats.count("inserts") == n
    return n


def bench_mshr_cycle() -> int:
    """allocate(primary) + merge + release cycles at partial occupancy."""
    mshr = MshrFile(capacity=32, name="bench.mshr")
    sink = []
    n = 30_000
    for i in range(n):
        key = (0, i % 24)
        status = mshr.allocate(key, sink.append)
        if status == "merged":
            mshr.release(key, i)
        elif i % 3 == 0:
            mshr.release(key, i)
    for key in [(0, k) for k in range(24)]:
        if mshr.is_pending(key):
            mshr.release(key, 0)
    assert mshr.outstanding() == 0
    return n


def bench_cuckoo_ops() -> int:
    """insert/contains/delete mix at moderate load (the LCF/RCF pattern)."""
    f = CuckooFilter(CuckooConfig())
    batch, rounds = 700, 40
    for r in range(rounds):
        base = r * batch
        for v in range(base, base + batch):
            f.insert(v)
        hits = 0
        for v in range(base, base + 2 * batch):
            if f.contains(v):
                hits += 1
        assert hits >= batch  # no false negatives for resident keys
        for v in range(base, base + batch):
            f.delete(v)
    return rounds * batch * 4


def bench_global_pfn_split() -> int:
    """Global PFN -> (chiplet, local frame) decomposition."""
    bases = tuple(i * 65_536 for i in range(4))
    n = 60_000
    for i in range(n):
        pfn = (i * 2_654_435_761) % (4 * 65_536)
        g = split_global_pfn(pfn, bases, 65_536)
        assert 0 <= g.chiplet < 4
    return n


def bench_full_point() -> int:
    """One full figure point: F-Barre gemv, untraced (the end-to-end path)."""
    from repro.experiments import configs
    from repro.gpu.mcm import McmGpuSimulator
    from repro.workloads.suite import get_workload

    sim = McmGpuSimulator(configs.fbarre(), [get_workload("gemv")],
                          trace_scale=0.2)
    result = sim.run()
    assert result.cycles > 0
    return sim.queue.events_fired


BENCHES = {
    "event_queue_mixed": bench_event_queue_mixed,
    "event_queue_zero_chain": bench_event_queue_zero_chain,
    "tlb_hit": bench_tlb_hit,
    "tlb_insert_evict": bench_tlb_insert_evict,
    "mshr_cycle": bench_mshr_cycle,
    "cuckoo_ops": bench_cuckoo_ops,
    "global_pfn_split": bench_global_pfn_split,
    "full_point": bench_full_point,
}


# --------------------------------------------------------------------------
# Harness
# --------------------------------------------------------------------------

def _burst() -> float:
    """Seconds one calibration burst takes now: the host's current speed."""
    x, acc = 0x9E3779B9, 0
    t0 = time.perf_counter()
    for _ in range(CALIB_ITERS):
        x = (x * 1_103_515_245 + 12_345) & 0xFFFFFFFF
        acc ^= x
    return time.perf_counter() - t0


def run_benches() -> dict:
    results: dict[str, dict] = {}
    bursts = [_burst()]
    for name, fn in BENCHES.items():
        times, ratios = [], []
        ops = 0
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            ops = fn()
            times.append(time.perf_counter() - t0)
            # The burst after one round is the burst before the next.
            bursts.append(_burst())
            ratios.append(times[-1] / statistics.mean(bursts[-2:]))
        median = statistics.median(times)
        results[name] = {
            "seconds": round(median, 6),
            "ops": ops,
            "ns_per_op": round(median / ops * 1e9, 1),
            "normalized": round(statistics.median(ratios), 4),
        }
    return {"calibration_s": round(statistics.median(bursts), 6),
            "rounds": ROUNDS, "benches": results}


def format_table(payload: dict) -> str:
    lines = [f"calibration burst {payload['calibration_s'] * 1e3:.1f} ms "
             f"(median), median of {payload['rounds']} rounds",
             f"{'benchmark':<24} {'median':>10} {'ns/op':>9} {'normalized':>11}"]
    for name, r in payload["benches"].items():
        lines.append(f"{name:<24} {r['seconds'] * 1e3:>8.1f}ms "
                     f"{r['ns_per_op']:>9.1f} {r['normalized']:>11.4f}")
    return "\n".join(lines)


def check_against(payload: dict, baseline: dict,
                  tolerance: float) -> list[str]:
    """Regression report: benches whose normalized time grew past tolerance."""
    failures = []
    for name, base in baseline["benches"].items():
        current = payload["benches"].get(name)
        if current is None:
            failures.append(f"{name}: present in baseline but not run")
            continue
        limit = base["normalized"] * (1.0 + tolerance)
        if current["normalized"] > limit:
            failures.append(
                f"{name}: normalized {current['normalized']:.4f} exceeds "
                f"baseline {base['normalized']:.4f} "
                f"(+{(current['normalized'] / base['normalized'] - 1):.0%}, "
                f"gate at +{tolerance:.0%})")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH",
                        help="also write results as JSON")
    parser.add_argument("--check", metavar="BASELINE",
                        help="fail (exit 1) on regression vs a baseline file")
    parser.add_argument("--update", metavar="BASELINE",
                        help="write this run as the new baseline")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed normalized regression (default 0.25)")
    args = parser.parse_args(argv)

    payload = run_benches()
    print(format_table(payload))
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    if args.update:
        Path(args.update).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline updated -> {args.update}")
    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        failures = check_against(payload, baseline, args.tolerance)
        if failures:
            print("\nPERF GATE FAILED:")
            for failure in failures:
                print(f"  {failure}")
            print("(see docs/performance.md for the baseline refresh "
                  "procedure if this slowdown is intentional)")
            return 1
        print(f"\nperf gate OK (tolerance +{args.tolerance:.0%} vs "
              f"{args.check})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
