"""Throughput-oriented sweep engine: fan (config, app) points over workers.

Every paper figure reduces to a set of independent (config, app, scale)
simulation points — embarrassingly parallel work that the serial harness
paid for one core at a time.  :func:`sweep` takes an iterable of
:class:`SweepPoint`, deduplicates them against the on-disk result cache,
and runs the misses on one of two paths, picked from what it can observe:

* **inline** — in-process, in plan order, when the core-clamped width
  (:func:`_pool_width`) is one worker or there is a single miss: a
  one-process pool is strictly worse (same serial order, plus process
  spawn and result IPC).
* **pool** — per-worker queues: points sharing an (app, scale, seed)
  group are routed to one worker so its CTA-trace memo
  (:data:`repro.gpu.mcm.TRACE_MEMO`) is hit for every config after the
  first, with work stealing so idle workers drain other queues.  Workers
  publish through the runner's atomic cache write and ship back only the
  point's timing — the parent loads results from disk (the full payload
  travels over the pipe only when the cache is off or unwritable).

Both produce bit-identical results (same seeded RNG from
``SimConfig.seed``, same ``SIM_VERSION`` cache keying, same atomic cache
files — asserted by ``tests/test_sweep.py`` against the golden-run
digests).

Cost-model scheduling: every fill records the seconds its simulation took
in the point's key manifest (``runner.load_timings`` reads them back).
Misses are submitted longest-first — greedy LPT packing, so one slow
high-MPKI straggler no longer dictates the batch tail — and
``repro sweep --dry-run`` prints the planned order.

Prewarming: :func:`collect_points` runs an experiment function in the
runner's collection mode — ``run_point``/``run_pair`` record their would-be
points and return stubs — which lets a figure's *full* point-set be
discovered up front and submitted as one batch (see
``repro.experiments.registry.run_figure`` and ``repro sweep --warm-cache``).
"""

from __future__ import annotations

import os
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from queue import Empty

from repro.common.config import SimConfig
from repro.experiments import runner
from repro.gpu import mcm
from repro.gpu.mcm import SimResult
from repro.workloads.base import Workload

#: Per-point cost guess (seconds) when no manifest has seconds at all —
#: only the *relative* order matters, so any constant works.
_DEFAULT_COST = 1.0

#: Idle worker nap between steal rounds (all queues momentarily empty).
_STEAL_POLL_S = 0.005

#: Seconds a stopped pool worker gets to finish (and cache-publish) its
#: in-flight point before it is terminated.
_JOIN_GRACE_S = 10.0


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One simulation point: a config, an app, and optional modifiers.

    ``app`` is a Table I abbreviation or a pre-built :class:`Workload`;
    ``pair_with`` marks a Section VII-I co-scheduling point (simulated via
    ``run_pair``).
    """

    config: SimConfig
    app: str | Workload
    scale: float | None = None
    workload_tag: str = ""
    pair_with: str | None = None

    @property
    def abbr(self) -> str:
        return self.app if isinstance(self.app, str) else self.app.abbr

    @property
    def tag(self) -> str:
        return f"pair-{self.pair_with}" if self.pair_with else self.workload_tag

    def resolved_scale(self) -> float:
        return runner.bench_scale() if self.scale is None else self.scale

    def key(self) -> str:
        """Cache key — identical to the one ``run_point`` files under."""
        return runner.point_key(self.config, self.abbr,
                                self.resolved_scale(), self.tag)

    def group(self) -> tuple:
        """Affinity group: points whose CTA traces are memo-shareable.

        Matches the domain of ``mcm.build_cta_traces``'s memo key — same
        app/tag, trace scale, and seed — without the config, so every
        configuration of one app lands in one group.
        """
        return (self.abbr, self.tag, f"{self.resolved_scale():.4f}",
                self.config.seed)


@dataclass
class PlannedPoint:
    """One cache miss with its cost estimate and worker assignment."""

    key: str
    point: SweepPoint
    est_seconds: float
    source: str            #: "measured" | "app-median" | "suite-median" | "default"
    worker: int = 0

    def label(self) -> str:
        p = self.point
        tag = f" [{p.tag}]" if p.tag else ""
        return f"{p.abbr}/{p.config.backend.value}{tag} @{p.resolved_scale():g}"


@dataclass
class SweepStats:
    """What one :func:`sweep` call did."""

    total: int = 0          #: points submitted (incl. duplicates)
    unique: int = 0         #: distinct cache keys
    cached: int = 0         #: served from the on-disk cache
    simulated: int = 0      #: actually run (0 on a dry run)
    jobs: int = 1           #: worker count actually used for the misses
    elapsed: float = 0.0    #: wall-clock seconds
    memo_hits: int = 0      #: CTA-trace memo hits across all workers
    memo_misses: int = 0    #: CTA-trace memo misses across all workers
    steals: int = 0         #: points a pool worker took from a peer's queue
    #: Measured wall-time of every simulated miss, by cache key.
    point_seconds: dict[str, float] = field(default_factory=dict)

    def describe(self, dry_run: bool = False) -> str:
        verb = "to simulate (dry run)" if dry_run else "simulated"
        n = self.unique - self.cached if dry_run else self.simulated
        line = (f"{self.total} points ({self.unique} unique): "
                f"{self.cached} cached, {n} {verb}, "
                f"jobs={self.jobs}, {self.elapsed:.1f}s")
        if self.memo_hits or self.memo_misses:
            line += (f", trace-memo {self.memo_hits} hits / "
                     f"{self.memo_misses} misses")
        if self.steals:
            line += f", {self.steals} stolen"
        return line


@dataclass
class SweepOutcome:
    """Results aligned with the submitted points, plus run statistics."""

    results: list[SimResult | None] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)
    #: The cost-model schedule of the misses, in execution order (each
    #: worker's queue longest-first).  Populated whenever there were
    #: misses, including dry runs — ``repro sweep --dry-run`` prints it.
    plan: list[PlannedPoint] = field(default_factory=list)


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else ``os.cpu_count()``."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _pool_width(jobs: int, misses: int) -> int:
    """Worker processes for a pool: ``min(jobs, misses)``, clamped to cores.

    A simulation point is CPU-bound pure Python, so workers beyond the
    core count only add context switching and memory pressure (measured
    ~1.2x slower at ``REPRO_JOBS=4`` on one core).  Set
    ``REPRO_OVERSUBSCRIBE=1`` to force the literal ``REPRO_JOBS`` width.
    """
    width = min(jobs, misses)
    if not os.environ.get("REPRO_OVERSUBSCRIBE"):
        width = min(width, os.cpu_count() or width)
    return max(1, width)


def _run_inline(point: SweepPoint) -> SimResult:
    if point.pair_with:
        return runner.run_pair(point.config, point.app, point.pair_with,
                               point.scale)
    return runner.run_point(point.config, point.app, point.scale,
                            point.workload_tag)


def _emit_finish(events, pp: PlannedPoint, seconds: float,
                 stolen: bool, worker: int) -> None:
    """Tell the ``events`` hook, if there is one, that a miss finished."""
    if events is not None:
        events({"event": "point_finish",
                "digest": runner.point_digest(pp.key), "app": pp.point.abbr,
                "seconds": round(seconds, 4), "stolen": stolen,
                "worker": worker})


# --------------------------------------------------------------------------
# Cost model
# --------------------------------------------------------------------------

def plan_misses(misses: list[tuple[str, SweepPoint]],
                workers: int) -> list[PlannedPoint]:
    """Cost-model schedule: estimate, group by affinity, pack longest-first.

    Estimates come from the seconds in the key manifests (exact where
    this point has been filled before, per-app median otherwise).
    Affinity groups are sorted by total cost and greedily assigned to the
    least-loaded worker (LPT packing); within a worker the queue is
    group-contiguous — so the trace memo stays hot — with costlier groups
    and points first.  The returned list is the concatenation of the
    workers' queues.
    """
    timings = runner.load_timings()
    by_app: dict[str, list[float]] = {}
    for entry in timings.values():
        by_app.setdefault(entry["app"], []).append(float(entry["seconds"]))
    app_median = {app: statistics.median(v) for app, v in by_app.items()}
    overall = (statistics.median([s for v in by_app.values() for s in v])
               if by_app else None)

    planned = []
    for key, point in misses:
        entry = timings.get(runner.point_digest(key))
        if entry is not None:
            est, source = float(entry["seconds"]), "measured"
        elif point.abbr in app_median:
            est, source = app_median[point.abbr], "app-median"
        elif overall is not None:
            est, source = overall, "suite-median"
        else:
            est, source = _DEFAULT_COST, "default"
        planned.append(PlannedPoint(key=key, point=point,
                                    est_seconds=est, source=source))

    groups: dict[tuple, list[PlannedPoint]] = {}
    for pp in planned:
        groups.setdefault(pp.point.group(), []).append(pp)
    for members in groups.values():
        members.sort(key=lambda pp: -pp.est_seconds)
    per_worker: list[list[PlannedPoint]] = [[] for _ in range(max(1, workers))]
    loads = [0.0] * len(per_worker)
    for members in sorted(groups.values(),
                          key=lambda m: -sum(pp.est_seconds for pp in m)):
        w = loads.index(min(loads))
        for pp in members:
            pp.worker = w
        loads[w] += sum(pp.est_seconds for pp in members)
        per_worker[w].extend(members)
    return [pp for queue in per_worker for pp in queue]


# --------------------------------------------------------------------------
# Progress line
# --------------------------------------------------------------------------

class _Progress:
    """A single live status line on stderr: done / cached / running, ETA.

    The ETA multiplies the measured per-miss rate by the *misses still
    unfinished* only — cache hits are settled before the first update and
    never inflate it — divided by the workers currently running.  The
    callers emit a final update after the last miss completes, so the
    line reaches ``total/total`` instead of freezing one point short.
    """

    def __init__(self, total: int, cached: int, enabled: bool | None = None):
        self.total = total
        self.cached = cached
        self.enabled = sys.stderr.isatty() if enabled is None else enabled
        self.start = time.perf_counter()
        self._drawn = False

    def eta(self, done: int, running: int) -> float | None:
        """Seconds until the remaining misses finish, or None.

        No outstanding misses — an all-cached sweep's very first update,
        or any run's final one — is an honest ETA of 0, never ``inf`` or
        a division by zero; with misses left but none finished yet there
        is no rate to extrapolate from and the ETA stays ``None``.
        """
        simulated = max(0, done - self.cached)
        misses_left = max(0, self.total - done)
        if misses_left == 0:
            return 0.0
        if simulated > 0:
            rate = (time.perf_counter() - self.start) / simulated
            return rate * misses_left / max(1, running)
        return None

    def update(self, done: int, running: int) -> None:
        if not self.enabled or not self.total:
            return
        eta = self.eta(done, running)
        eta = "" if eta is None else f", ETA {eta:.0f}s"
        line = (f"[sweep] {done}/{self.total} points "
                f"({self.cached} cached, {running} running{eta})")
        sys.stderr.write("\r" + line.ljust(79))
        sys.stderr.flush()
        self._drawn = True

    def finish(self) -> None:
        if self._drawn:
            sys.stderr.write("\n")
            sys.stderr.flush()


# --------------------------------------------------------------------------
# The two execution paths
# --------------------------------------------------------------------------

def _run_serial(plan: list[PlannedPoint], reporter: _Progress,
                results: dict, stats: SweepStats, events=None) -> None:
    """Run every miss inline, in plan order (cost-model longest-first)."""
    memo = mcm.TRACE_MEMO
    reporter.update(stats.cached, running=1)
    done = 0
    for pp in plan:
        hits, memo_misses = memo.hits, memo.misses
        t0 = time.perf_counter()
        results[pp.key] = _run_inline(pp.point)
        seconds = time.perf_counter() - t0
        stats.point_seconds[pp.key] = seconds
        stats.memo_hits += memo.hits - hits
        stats.memo_misses += memo.misses - memo_misses
        done += 1
        _emit_finish(events, pp, seconds, stolen=False, worker=0)
        reporter.update(stats.cached + done,
                        running=int(done < len(plan)))


def _exit_on_sigterm(signum, frame) -> None:
    # Unwind like an exception, so _fill_point's finally releases its lock.
    raise SystemExit(128 + signum)


def _pool_worker(worker_id: int, inboxes: list, result_q, stop) -> None:
    """Worker loop: drain the own queue, then steal from the others.

    Each inbox item is ``(index, point)``; each result is ``(index,
    payload_or_None, seconds, memo_hits, memo_misses, stolen,
    error_or_None)`` — ``stolen`` records whether the point came from a
    peer's queue, which the parent aggregates into ``SweepStats.steals``.
    The worker publishes through the runner's cache (``_run_inline`` →
    ``run_point`` → atomic write) and ships ``payload=None`` when the
    cache file landed — the parent loads it from disk — falling back to
    the full payload under ``REPRO_NO_CACHE`` or an unwritable cache.
    """
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    order = [worker_id] + [i for i in range(len(inboxes)) if i != worker_id]
    memo = mcm.TRACE_MEMO
    while not stop.is_set():
        item = None
        stolen = False
        for source in order:
            try:
                item = inboxes[source].get_nowait()
                stolen = source != worker_id
                break
            except Empty:
                continue
        if item is None:
            time.sleep(_STEAL_POLL_S)
            continue
        index, point = item
        hits, misses = memo.hits, memo.misses
        start = time.perf_counter()
        try:
            result = _run_inline(point)
            seconds = time.perf_counter() - start
            path = runner.point_path(point.config, point.app, point.scale,
                                     point.tag)
            payload = None
            if path is None or not path.exists():
                payload = runner._serialize(result)
            result_q.put((index, payload, seconds,
                          memo.hits - hits, memo.misses - misses, stolen,
                          None))
        except Exception:
            result_q.put((index, None, 0.0, 0, 0, stolen,
                          traceback.format_exc()))


def _drain(q) -> None:
    try:
        while True:
            q.get_nowait()
    except (Empty, OSError):
        pass


def _run_pool(plan: list[PlannedPoint], workers: int, reporter: _Progress,
              results: dict, stats: SweepStats, events=None) -> None:
    """Run the misses on ``workers`` processes, one queue each, stealing."""
    import multiprocessing  # ~10 ms; inline-only sweeps never pay it
    ctx = multiprocessing.get_context()
    inboxes = [ctx.Queue() for _ in range(workers)]
    result_q = ctx.Queue()
    stop = ctx.Event()
    for index, pp in enumerate(plan):
        inboxes[pp.worker].put((index, pp.point))
    procs = [ctx.Process(target=_pool_worker,
                         args=(w, inboxes, result_q, stop), daemon=True)
             for w in range(workers)]
    for proc in procs:
        proc.start()
    cached = stats.cached
    pending = len(plan)
    reporter.update(cached, running=min(workers, pending))
    try:
        while pending:
            try:
                (index, payload, seconds, memo_hits, memo_misses, stolen,
                 error) = result_q.get(timeout=0.25)
            except Empty:
                crashed = [p for p in procs if p.exitcode not in (None, 0)]
                if crashed:
                    raise RuntimeError(
                        f"sweep worker crashed (exitcode "
                        f"{crashed[0].exitcode}) with {pending} "
                        f"points left")
                continue
            pp = plan[index]
            if error is not None:
                raise RuntimeError(
                    f"sweep worker failed on {pp.label()}:\n{error}")
            if payload is not None:
                results[pp.key] = runner._deserialize(payload)
            else:
                loaded = runner.cached_result(
                    pp.point.config, pp.point.app, pp.point.scale,
                    pp.point.tag)
                if loaded is None:
                    raise RuntimeError(
                        f"worker published {pp.label()} but the cache "
                        f"has no result (cache directory removed "
                        f"mid-sweep?)")
                results[pp.key] = loaded
            stats.point_seconds[pp.key] = seconds
            stats.memo_hits += memo_hits
            stats.memo_misses += memo_misses
            stats.steals += int(stolen)
            pending -= 1
            _emit_finish(events, pp, seconds, stolen=bool(stolen),
                         worker=pp.worker)
            reporter.update(cached + len(plan) - pending,
                            running=min(workers, pending))
    finally:
        stop.set()
        for proc in procs:
            proc.join(timeout=_JOIN_GRACE_S)
        for proc in procs:
            if proc.is_alive():
                # SIGTERM unwinds the worker (see _exit_on_sigterm), so
                # a point cut short releases its fill lock.
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join()
        for q in [*inboxes, result_q]:
            _drain(q)
            q.close()


# --------------------------------------------------------------------------
# The sweep entry point
# --------------------------------------------------------------------------

def sweep(points, jobs: int | None = None, progress: bool | None = None,
          dry_run: bool = False, events=None) -> SweepOutcome:
    """Deduplicate ``points`` against the cache and schedule the misses.

    Returns results in submission order (duplicates each get the shared
    result).  ``jobs=None`` uses :func:`default_jobs`; ``progress=None``
    draws the live line only on a TTY.  ``dry_run=True`` plans without
    simulating — missing points come back as ``None`` with the cost-model
    schedule in ``outcome.plan``.

    ``events`` is an optional callable that receives one
    ``{"event": "point_finish", "digest", "app", "seconds", "stolen",
    "worker"}`` dict as each miss finishes, in completion order.
    """
    points = list(points)
    if runner.is_collecting():
        # A collection pass is enumerating points — stay serial so the
        # runner records them; stubs come back immediately.
        results = [_run_inline(p) for p in points]
        return SweepOutcome(results, SweepStats(
            total=len(points), unique=len(points)))
    start = time.perf_counter()
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    keys = [p.key() for p in points]
    unique: dict[str, SweepPoint] = {}
    for key, point in zip(keys, points):
        unique.setdefault(key, point)
    results: dict[str, SimResult | None] = {}
    misses: list[tuple[str, SweepPoint]] = []
    for key, point in unique.items():
        hit = runner.cached_result(point.config, point.abbr, point.scale,
                                   point.tag)
        if hit is None:
            misses.append((key, point))
        else:
            results[key] = hit
    cached = len(results)
    stats = SweepStats(total=len(points), unique=len(unique), cached=cached)
    plan: list[PlannedPoint] = []
    reporter = _Progress(len(unique), cached, enabled=progress)
    if dry_run:
        plan = plan_misses(misses, _pool_width(jobs, len(misses) or 1))
        for key, _ in misses:
            results[key] = None
    elif misses:
        stats.simulated = len(misses)
        stats.jobs = _pool_width(jobs, len(misses))
        plan = plan_misses(misses, stats.jobs)
        if stats.jobs == 1:
            _run_serial(plan, reporter, results, stats, events=events)
        else:
            _run_pool(plan, stats.jobs, reporter, results, stats,
                      events=events)
    reporter.finish()
    stats.elapsed = time.perf_counter() - start
    return SweepOutcome([results[key] for key in keys], stats, plan)


def collect_points(fn, *args, **kwargs) -> list[SweepPoint]:
    """Every simulation point ``fn(*args, **kwargs)`` would run.

    Executes ``fn`` in the runner's collection mode: ``run_point`` and
    ``run_pair`` record their points and return stubs, so the pass is
    cheap (no simulation, no cache I/O).  ``fn``'s return value is
    discarded.
    """
    with runner.collecting() as sink:
        fn(*args, **kwargs)
    return [SweepPoint(config=config, app=app, scale=scale,
                       workload_tag=tag, pair_with=pair)
            for config, app, scale, tag, pair in sink]


def prewarm(fn, *args, jobs: int | None = None,
            progress: bool | None = None, **kwargs) -> SweepOutcome:
    """Fill the cache for everything ``fn(*args, **kwargs)`` will simulate.

    After this returns, calling ``fn`` for real is pure cache hits — used
    by the benchmark harness so the timed run measures simulation shape,
    not queueing.
    """
    return sweep(collect_points(fn, *args, **kwargs),
                 jobs=jobs, progress=progress)
