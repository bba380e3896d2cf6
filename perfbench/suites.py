"""The three benchmark workloads: op lists and one timed pass each.

Every workload is a closed batch: all of a pass's points are submitted at
once and there is no arrival rate.  ``fbarre-suite`` and
``baseline-table1`` build and run each point in this process with no
result cache, so one op is one simulator construction plus its run.
``repro-sweep`` drives the production sweep engine: a cold pass into a
fresh cache, then a warm pass that serves the same points from that cache.
"""

from __future__ import annotations

import gc
import importlib
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.addresses import PAGE_SIZE_4K
from repro.experiments import configs, runner
from repro.experiments.registry import FIGURES, figure_points
from repro.experiments.sweep import SweepPoint
from repro.gpu import mcm
from repro.workloads.suite import APP_ORDER, get_workload

import checks

#: The module itself: ``repro.experiments`` re-exports a function of the
#: same name, and the traced run patches the module attribute.
sweep_mod = importlib.import_module("repro.experiments.sweep")

SUITE_SCALE = 0.3
#: F-Barre's costliest host paths: low-MPKI streams (gemv, fft), graph
#: gathers (pr, sssp), a stencil (st2d) and the high-MPKI tail (matr,
#: gups, spmv), where LCF/RCF maintenance dominates.
FBARRE_APPS = ("gemv", "fft", "pr", "sssp", "st2d", "matr", "gups", "spmv")
SWEEP_SCALE = 0.05
SWEEP_APP = "spmv"
#: One worker, so ``sweep()`` runs its serial backend in this process and
#: every point can be calibrated on its own.  Two pool workers on a shared
#: 2-vCPU host timed the neighbours' load more than the sweep: one
#: process's calibration could not follow it (spread 0.27 between passes).
SWEEP_JOBS = 1
#: Warm hits the traced run times.  Hit latency drifts by +-20% within
#: seconds on a shared host, so percentiles are taken per block of hits
#: (see ``run.block_quantile``).
HITS_PER_PASS = 2000
#: Iterations of one calibration burst, a fixed pure-Python loop that
#: probes the host's current speed.
CALIB_ITERS = 200_000
#: Burst time that defines the reference host: normalized times are the
#: seconds the work would take on a host where one burst takes 40 ms
#: (about the median on a 2-vCPU VM).
CALIB_REF_S = 0.040


def calib_burst() -> float:
    """Seconds one calibration burst takes now.

    The host's speed drifts by 15-30% over minutes on a shared machine,
    and this loop's time follows the simulator's (correlation about 0.85
    across passes), so ``op seconds * CALIB_REF_S / burst`` cancels most
    of the drift.  It allocates nothing the cyclic collector tracks.
    """
    x, acc = 0x9E3779B9, 0
    start = time.perf_counter()
    for _ in range(CALIB_ITERS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc ^= x >> 7
    return time.perf_counter() - start


class SpeedClock:
    """Timed segments of a pass, raw and at the reference host speed.

    ``start()`` opens a segment; ``stop()`` closes it and then times a
    calibration burst, so bursts fall in no segment.  Each segment is
    rescaled by ``CALIB_REF_S`` over the mean of the bursts just before
    and just after it.
    """

    def __init__(self) -> None:
        self.bursts = [calib_burst()]
        self.segments: list[float] = []
        self._t0 = 0.0

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        """Close the open segment; returns its raw seconds."""
        seconds = time.perf_counter() - self._t0
        self.segments.append(seconds)
        self.bursts.append(calib_burst())
        return seconds

    def raw_s(self) -> float:
        return sum(self.segments)

    def norm_s(self) -> float:
        return sum(s * CALIB_REF_S * 2 / (a + b) for s, a, b in
                   zip(self.segments, self.bursts, self.bursts[1:]))


@dataclass
class Op:
    label: str
    point: SweepPoint


@dataclass
class OpPlan:
    """Everything set-up produces: the ops and the planner's time."""

    workload: str
    seed: int
    ops: list[Op]
    plan_s: float
    pins: dict[str, str] | None


@dataclass
class PassResult:
    wall_s: float
    #: ``wall_s`` at the reference host speed (see ``calib_burst``).
    norm_s: float = 0.0
    calib_s: list[float] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    results: list = field(default_factory=list)
    accesses: int = 0
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    steals: int = 0
    bytes_written: int = 0


def _label(index: int, point: SweepPoint) -> str:
    tag = f"-{point.tag}" if point.tag else ""
    return f"{index:02d}-{point.abbr}-{point.config.backend.value}{tag}"


def all_reproduction_points(seed: int) -> list[SweepPoint]:
    """Every figure's points at the sweep scale, with the config seed set."""
    points = []
    for name in FIGURES:
        for p in figure_points(name, SWEEP_SCALE):
            points.append(SweepPoint(p.config.replace(seed=seed), p.app,
                                     p.scale, p.workload_tag, p.pair_with))
    return points


def make_plan(workload: str, seed: int, cache_dir: Path) -> OpPlan:
    """Set-up: build the op list and run the sweep planner over it.

    ``repro-sweep`` dry-runs the full reproduction point set (the plan
    ``repro sweep --warm-cache --dry-run`` prints) and keeps the points of
    one app; the in-process workloads dry-run their own points.  Nothing
    is written to ``cache_dir``.
    """
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    if workload == "fbarre-suite":
        points = [SweepPoint(configs.fbarre(seed=seed), app, SUITE_SCALE)
                  for app in FBARRE_APPS]
    elif workload == "baseline-table1":
        points = [SweepPoint(configs.baseline(seed=seed), app, SUITE_SCALE)
                  for app in APP_ORDER]
    elif workload == "repro-sweep":
        points = all_reproduction_points(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    start = time.perf_counter()
    outcome = sweep_mod.sweep(points, jobs=SWEEP_JOBS, dry_run=True,
                              progress=False)
    plan_s = time.perf_counter() - start
    if workload == "repro-sweep":
        unique: dict[str, SweepPoint] = {}
        for p in points:
            if SWEEP_APP in (p.abbr, p.pair_with):
                unique.setdefault(p.key(), p)
        points = list(unique.values())
    elif outcome.stats.unique != len(points):
        raise ValueError(f"{workload}: duplicate points")
    ops = [Op(_label(i, p), p) for i, p in enumerate(points)]
    return OpPlan(workload, seed, ops, plan_s,
                checks.load_pins(workload, seed))


# --------------------------------------------------------------------------
# In-process workloads
# --------------------------------------------------------------------------

def build(point: SweepPoint) -> mcm.McmGpuSimulator:
    """The simulator of one point; an op is this plus its ``run()``."""
    return mcm.McmGpuSimulator(point.config, [get_workload(point.app)],
                               trace_scale=point.scale)


def run_inprocess_pass(p: OpPlan) -> PassResult:
    mcm.TRACE_MEMO.clear()        # every pass builds its traces cold
    # Every pass starts from the same heap: the previous pass's simulators
    # (webs of reference cycles) are collected here, untimed.  Within the
    # pass the collector runs as it does in the program.
    gc.collect()
    out = PassResult(wall_s=0.0)
    # Build and run are separate segments: shorter segments follow the
    # host's speed more closely (between-pass spread 0.060 against 0.079
    # for one segment per op on fbarre-suite).  The checks are untimed.
    clock = SpeedClock()
    for op in p.ops:
        op_s = 0.0
        clock.start()
        try:
            sim = build(op.point)
            op_s += clock.stop()
            clock.start()
            result = sim.run()
        except Exception as exc:  # a failed op counts; the run goes on
            sim, result = None, exc
        out.op_seconds.append(op_s + clock.stop())
        if sim is None:
            out.errors.append(f"{op.label}: raised {result!r}")
            out.failed += 1
            out.results.append(None)
            out.digests.append("")
            continue
        errors = checks.point_errors(op.label, result, p.pins, sim=sim)
        del sim                   # not alive while the next op builds its own
        out.errors.extend(errors)
        out.failed += bool(errors)
        out.results.append(result)
        out.digests.append(checks.payload_digest(result))
        out.accesses += result.translation_latency.total()
    out.wall_s, out.norm_s = clock.raw_s(), clock.norm_s()
    out.calib_s = clock.bursts
    out.attempted = len(p.ops)
    out.memo_hits, out.memo_misses = (mcm.TRACE_MEMO.hits,
                                      mcm.TRACE_MEMO.misses)
    return out


# --------------------------------------------------------------------------
# The sweep workload
# --------------------------------------------------------------------------

def run_sweep_pass(p: OpPlan, cache_dir: Path) -> PassResult:
    """Cold pass: one ``sweep()`` call into a fresh cache."""
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    points = [op.point for op in p.ops]
    mcm.TRACE_MEMO.clear()        # as in run_inprocess_pass, untimed
    gc.collect()
    clock = SpeedClock()

    def on_event(event: dict) -> None:
        # The call is split into segments at point boundaries, so each
        # point (with its cache fill) is calibrated like an in-process op.
        if event["event"] == "point_finish":
            clock.stop()
            clock.start()

    clock.start()
    try:
        outcome = sweep_mod.sweep(points, jobs=SWEEP_JOBS, progress=False,
                                  events=on_event)
    except Exception as exc:      # the whole batch failed
        outcome = exc
    clock.stop()
    out = PassResult(wall_s=clock.raw_s(), norm_s=clock.norm_s(),
                     calib_s=clock.bursts)
    if isinstance(outcome, Exception):
        out.attempted = out.failed = len(points)
        out.errors.append(f"sweep raised {outcome!r}")
        out.results = [None] * len(points)
        out.digests = [""] * len(points)
        return out
    stats = outcome.stats
    out.op_seconds = [stats.point_seconds.get(k, 0.0)
                      for k in (pt.key() for pt in points)]
    out.memo_hits, out.memo_misses = stats.memo_hits, stats.memo_misses
    out.steals = stats.steals
    out.attempted = len(points)
    for op, result in zip(p.ops, outcome.results):
        errors = (checks.point_errors(op.label, result, p.pins)
                  if result is not None else [f"{op.label}: no result"])
        out.errors.extend(errors)
        out.failed += bool(errors)
        out.results.append(result)
        out.digests.append(checks.payload_digest(result)
                           if result is not None else "")
        if result is not None:
            out.accesses += result.translation_latency.total()
    if stats.simulated != len(points):
        out.errors.append(f"cold pass simulated {stats.simulated} of "
                          f"{len(points)} points")
    out.bytes_written = sum(f.stat().st_size
                            for f in cache_dir.glob("*.json"))
    return out


@dataclass
class HitResult:
    seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    simulated: int = 0


def warm_hits(p: OpPlan, cold: PassResult, cache_dir: Path,
              rounds: int) -> HitResult:
    """Serve every point of the cold pass that filled ``cache_dir`` from
    the cache ``rounds`` times, one hit per op.

    The first call is the whole batch through ``sweep()`` (the read path
    behind ``repro figure``), which must simulate nothing; then every hit
    is timed on its own through ``cached_result``.
    """
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    gc.collect()        # drop the passes' simulator cycles before timing
    out = HitResult()
    points = [op.point for op in p.ops]
    outcome = sweep_mod.sweep(points, jobs=SWEEP_JOBS, progress=False)
    out.simulated = outcome.stats.simulated
    if out.simulated:
        out.errors.append(f"warm sweep simulated {out.simulated} points")
    clock = time.perf_counter
    for _ in range(rounds):
        for op, digest in zip(p.ops, cold.digests):
            pt = op.point
            t0 = clock()
            hit = runner.cached_result(pt.config, pt.app, pt.scale, pt.tag)
            out.seconds.append(clock() - t0)
            out.attempted += 1
            if hit is None or checks.payload_digest(hit) != digest:
                out.failed += 1
                out.errors.append(f"{op.label}: warm hit differs from cold")
    return out


def hit_rounds(n_ops: int) -> int:
    return math.ceil(HITS_PER_PASS / n_ops)


def mpki_log10_err(p: OpPlan, cold: PassResult) -> float:
    """Mean |log10(measured L2-TLB MPKI / Table I MPKI)| over the
    workload's single-app 4 KB points."""
    errs = []
    for op, result in zip(p.ops, cold.results):
        pt = op.point
        if (result is None or pt.config.page_size != PAGE_SIZE_4K
                or pt.pair_with or result.mpki <= 0):
            continue
        paper = get_workload(pt.abbr).paper_mpki
        errs.append(abs(math.log10(result.mpki / paper)))
    return statistics.fmean(errs)
