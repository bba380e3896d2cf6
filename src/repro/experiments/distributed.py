"""Distributed sweep backend: shard affinity groups across hosts.

The local schedulers stop at one machine's cores.  This backend
generalizes the affinity scheduler's scheduler/wire split across a fleet:
a lightweight **coordinator** (the process that called
:func:`repro.experiments.sweep.sweep`) publishes the cost-model-LPT-ordered
affinity groups to a filesystem **claim queue** under the shared result
cache, and **workers** — ``repro worker`` processes on any host that
mounts the same cache directory, plus helpers the coordinator spawns
locally — claim groups, fill the cache, and heartbeat.  Results travel as
digests (the thin cache-key wire the affinity scheduler proved out): a
worker publishes each point through the runner's atomic cache fill and
writes a small *done marker*; the coordinator loads the result from the
cache by key.  Workers whose cache turned out read-only fall back to
embedding the full payload in the marker.

Queue layout, under ``<cache>/meta/queue/<sweep_id>/``::

    manifest.json            # written last: workers ignore dirs without it
    groups/g0007-<gid>.json  # one file per affinity group, LPT order
    claims/<gid>.json        # O_CREAT|O_EXCL claim; mtime = heartbeat
    done/<gid>.<index>.json  # one marker per finished point
    cancel                   # marker: sweep cancelled, stop claiming

Every transition rides the primitives the result cache already proves out
on shared filesystems: exclusive claim via ``O_CREAT | O_EXCL``, atomic
publication via write-to-temp + ``os.replace``, liveness via mtime.  A
claim whose heartbeat goes stale (``REPRO_CLAIM_STALE`` seconds, default
30) is presumed dead and **reclaimed**: the coordinator deletes the claim
file, a surviving worker re-claims the group, and every point the dead
worker already published comes back as a cache hit — re-simulation is
bounded by the single in-flight point.  Reclaims are counted in
``SweepStats.steals``, so ``repro explore`` and the job API see
distributed runs through exactly the same stats/events/metrics surface as
local ones.

Duplicate-work guarantees: group claims are exclusive, done markers make
finished points skippable, and the per-key cache lockfile is the last
line of defense — even a doubly-claimed group (reclaim racing a slow but
live worker) simulates each point once, with the loser reading the
winner's file.

Points whose app is a pre-built :class:`~repro.workloads.base.Workload`
object (e.g. Fig 24's scaled inputs) are not JSON-shippable; the
coordinator runs those inline while the fleet drains the rest.

Per-host costs: workers record measured wall-times under their
:func:`~repro.experiments.runner.host_id`, and the sidecar's planning
estimate becomes the median across hosts — see
:func:`repro.experiments.runner.record_timings`.

See docs/performance.md ("Distributed sweeps") for the launch recipe.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import threading
import time
import traceback
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from repro.common import metrics
from repro.common.config import SimConfig
from repro.experiments import runner
from repro.experiments.backends import SweepBackend
from repro.experiments.sweep import (
    PlannedPoint,
    SweepCancelled,
    SweepPoint,
    _emit,
    _pool_width,
    _run_inline,
)
from repro.gpu import mcm

#: Queue root under the shared cache directory.
_QUEUE_DIR = Path("meta") / "queue"

#: Default seconds without a heartbeat before a claim is presumed dead.
_CLAIM_STALE_DEFAULT_S = 30.0

#: Default worker heartbeat period — must be well under the stale window.
_HEARTBEAT_S = 2.0

#: Coordinator poll period for done markers / stale claims.
_COORD_POLL_S = 0.05


def claim_stale_s() -> float:
    """Seconds before a heartbeat-less claim is reclaimed (env override)."""
    return float(os.environ.get("REPRO_CLAIM_STALE",
                                str(_CLAIM_STALE_DEFAULT_S)))


# --------------------------------------------------------------------------
# Wire codec: SimConfig / SweepPoint <-> JSON
# --------------------------------------------------------------------------

def config_from_wire(data: dict) -> SimConfig:
    """Rebuild a :class:`SimConfig` from :func:`runner.encode_config` output."""
    def decode(cls, value):
        if is_dataclass(cls):
            hints = get_type_hints(cls)
            return cls(**{f.name: decode(hints[f.name], value[f.name])
                          for f in fields(cls) if f.name in value})
        if hasattr(cls, "__members__"):     # Enum
            return cls(value)
        return value

    return decode(SimConfig, data)


def point_to_wire(point: SweepPoint) -> dict | None:
    """Encode a point for a remote worker, or None if it cannot travel.

    The scale is pinned *here*, on the coordinator, so a worker with a
    different ``REPRO_BENCH_SCALE`` still computes the identical cache
    key.  Points carrying a pre-built :class:`Workload` object are not
    JSON-shippable and must run on the coordinator.
    """
    if not isinstance(point.app, str):
        return None
    return {"config": runner.encode_config(point.config),
            "app": point.app,
            "scale": point.resolved_scale(),
            "workload_tag": point.workload_tag,
            "pair_with": point.pair_with}


def point_from_wire(data: dict) -> SweepPoint:
    return SweepPoint(config=config_from_wire(data["config"]),
                      app=data["app"], scale=data["scale"],
                      workload_tag=data.get("workload_tag", ""),
                      pair_with=data.get("pair_with"))


# --------------------------------------------------------------------------
# Queue filesystem helpers
# --------------------------------------------------------------------------

def queue_root(cache_root: Path | None = None) -> Path | None:
    """The claim-queue root under the (shared) cache, or None if no cache."""
    root = runner._cache_dir() if cache_root is None else Path(cache_root)
    return None if root is None else root / _QUEUE_DIR


def _atomic_json(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


def _read_json(path: Path) -> dict | None:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


class _Heartbeat(threading.Thread):
    """Touch a claim file's mtime periodically until stopped.

    Runs while the owning worker simulates, so a multi-minute point never
    looks dead to the coordinator.  Stops itself if the file vanishes —
    that means the claim was reclaimed and is no longer ours to refresh.
    """

    def __init__(self, path: Path, interval: float):
        super().__init__(daemon=True, name="claim-heartbeat")
        self.path = path
        self.interval = interval
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                os.utime(self.path)
            except OSError:
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5)


# --------------------------------------------------------------------------
# Worker loop (the `repro worker` CLI and the coordinator's local helpers)
# --------------------------------------------------------------------------

def _done_marker(sweep_dir: Path, gid: str, index: int) -> Path:
    return sweep_dir / "done" / f"{gid}.{index:05d}.json"


def _claim_group(sweep_dir: Path, gid: str, worker_id: str) -> Path | None:
    """Try to claim a group exclusively; None if someone else owns it."""
    path = sweep_dir / "claims" / f"{gid}.json"
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return None
    except OSError:
        return None         # sweep dir being torn down under us
    with os.fdopen(fd, "w") as fh:
        json.dump({"worker": worker_id, "host": runner.host_id(),
                   "pid": os.getpid(), "claimed_at": time.time()}, fh)
    return path


def _run_group(sweep_dir: Path, group: dict, claim: Path,
               worker_id: str, stats: dict) -> None:
    """Simulate a claimed group's points, marker by marker.

    Points already done (a resumed or reclaimed group) are skipped; a
    vanished claim file means the coordinator reclaimed us and another
    worker may own the group now, so we stop after the in-flight point.
    Each result is published through the runner's atomic cache fill
    first, then announced with a done marker carrying only the digest and
    measurements — the payload rides along only when this worker has no
    writable cache for the coordinator to read from.
    """
    gid = group["gid"]
    memo = mcm.TRACE_MEMO
    timed: list[tuple[str, str, float]] = []
    for entry in group["points"]:
        index = entry["index"]
        marker = _done_marker(sweep_dir, gid, index)
        if marker.exists():
            continue
        if not claim.exists():
            break               # reclaimed: the group is no longer ours
        point = point_from_wire(entry["point"])
        payload = {"digest": entry["digest"], "index": index, "gid": gid,
                   "worker": worker_id, "host": runner.host_id()}
        try:
            probe = runner.cached_result(point.config, point.abbr,
                                         point.scale, point.tag)
            if probe is not None:
                payload.update(seconds=0.0, cache_hit=True,
                               memo_hits=0, memo_misses=0)
            else:
                hits, misses = memo.hits, memo.misses
                t0 = time.perf_counter()
                result = _run_inline(point)
                seconds = time.perf_counter() - t0
                payload.update(seconds=round(seconds, 6), cache_hit=False,
                               memo_hits=memo.hits - hits,
                               memo_misses=memo.misses - misses)
                stats["simulated"] += 1
                timed.append((point.key(), point.abbr, seconds))
                path = runner.point_path(point.config, point.app,
                                         point.scale, point.tag)
                if path is None or not path.exists():
                    payload["payload"] = runner._serialize(result)
        except Exception:
            payload.update(seconds=0.0, cache_hit=False, memo_hits=0,
                           memo_misses=0, error=traceback.format_exc())
        try:
            _atomic_json(marker, payload)
        except OSError:
            break               # sweep dir removed: coordinator is done
        stats["points"] += 1
        if "error" in payload:
            stats["errors"] += 1
            break               # the coordinator aborts on first error
    if timed:
        runner.record_timings(timed, host=runner.host_id())


def run_worker(worker_id: str | None = None, cache_dir: str | None = None,
               poll: float = 0.5, heartbeat: float = _HEARTBEAT_S,
               max_idle: float | None = None, once: bool = False,
               sweep_id: str | None = None, progress=None) -> dict:
    """Claim and simulate sweep groups from the shared queue until idle.

    The loop scans ``<cache>/meta/queue/*/`` for published sweeps (dirs
    with a ``manifest.json`` and no ``cancel`` marker), walks their group
    files in LPT order, and claims the first unowned, unfinished group.
    Exit conditions: ``once=True`` after one pass finds nothing claimable;
    ``max_idle`` seconds without claiming anything; or — when pinned to a
    single ``sweep_id`` (the coordinator's local helpers) — that sweep's
    directory disappearing.  Returns counters: groups claimed, points
    finished, points actually simulated, errors.
    """
    worker_id = worker_id or f"{runner.host_id()}:{os.getpid()}"
    root = (Path(cache_dir) if cache_dir is not None
            else runner._cache_dir())
    if root is None:
        raise RuntimeError(
            "repro worker needs a cache directory shared with the "
            "coordinator (pass --cache or set REPRO_CACHE_DIR; "
            "REPRO_NO_CACHE must be unset)")
    if cache_dir is not None:
        # Point this process's runner cache at the shared directory so
        # cache fills land where the coordinator reads them.
        os.environ["REPRO_CACHE_DIR"] = str(root)
    qroot = root / _QUEUE_DIR
    stats = {"worker": worker_id, "groups": 0, "points": 0,
             "simulated": 0, "errors": 0}
    finished_groups: set[str] = set()
    last_claim = time.monotonic()
    while True:
        claimed_any = False
        if sweep_id is not None and not (qroot / sweep_id).is_dir():
            break               # the coordinator finished and cleaned up
        sweep_dirs = ([qroot / sweep_id] if sweep_id is not None
                      else sorted(d for d in qroot.iterdir() if d.is_dir())
                      if qroot.is_dir() else [])
        for sweep_dir in sweep_dirs:
            if not (sweep_dir / "manifest.json").exists() \
                    or (sweep_dir / "cancel").exists():
                continue
            try:
                group_files = sorted((sweep_dir / "groups").iterdir())
            except OSError:
                continue        # torn down between the scan and here
            for gf in group_files:
                gid = gf.stem.split("-", 1)[-1]
                key = f"{sweep_dir.name}/{gid}"
                if key in finished_groups:
                    continue
                claim = _claim_group(sweep_dir, gid, worker_id)
                if claim is None:
                    continue
                group = _read_json(gf)
                if group is None:       # torn down mid-claim
                    claim.unlink(missing_ok=True)
                    continue
                beat = _Heartbeat(claim, heartbeat)
                beat.start()
                try:
                    _run_group(sweep_dir, group, claim, worker_id, stats)
                finally:
                    beat.stop()
                    claim.unlink(missing_ok=True)
                finished_groups.add(key)
                stats["groups"] += 1
                claimed_any = True
                last_claim = time.monotonic()
                if progress is not None:
                    progress(dict(stats))
        if claimed_any:
            continue            # rescan immediately: more may be waiting
        if once:
            break
        if max_idle is not None \
                and time.monotonic() - last_claim > max_idle:
            break
        time.sleep(poll)
    return stats


def _local_worker(cache_dir: str, sweep_id: str, lane: int) -> None:
    """Entry point of a coordinator-spawned local helper process."""
    run_worker(worker_id=f"{runner.host_id()}:local-{lane}-{os.getpid()}",
               cache_dir=cache_dir, poll=0.02, sweep_id=sweep_id)


def local_worker_count(width: int) -> int:
    """Local helpers the coordinator spawns: ``REPRO_DISTRIBUTED_LOCAL``.

    Defaults to the core-clamped pool width; 0 means "remote workers
    only" — the coordinator just publishes the queue and waits.
    """
    env = os.environ.get("REPRO_DISTRIBUTED_LOCAL", "").strip()
    if env:
        return max(0, int(env))
    return max(1, width)


# --------------------------------------------------------------------------
# The coordinator
# --------------------------------------------------------------------------

class DistributedBackend(SweepBackend):
    """Coordinator side: publish groups, harvest markers, reclaim the dead."""

    name = "distributed"
    #: Never degrade to inline on a narrow machine: remote workers may add
    #: capacity the local core count knows nothing about.
    inline_when_narrow = False

    def width(self, jobs: int, misses: int) -> int:
        return _pool_width(jobs, misses)

    def run(self, plan: list[PlannedPoint], workers: int, reporter,
            results: dict, stats, cancel=None, events=None) -> None:
        root = runner._cache_dir(create=True)
        if root is None:
            raise RuntimeError(
                "the distributed scheduler needs a writable shared result "
                "cache (set REPRO_CACHE_DIR to shared storage; "
                "REPRO_NO_CACHE must be unset)")
        stats.steals = 0
        sweep_id = f"{int(time.time() * 1000):013x}-{os.getpid()}"
        sweep_dir = root / _QUEUE_DIR / sweep_id
        for sub in ("groups", "claims", "done"):
            (sweep_dir / sub).mkdir(parents=True, exist_ok=True)

        # Group the plan by affinity group, keep LPT order (costliest
        # group first = lexicographically first file), and split off the
        # points that cannot travel as JSON.
        groups: dict[tuple, list[tuple[int, PlannedPoint, dict]]] = {}
        inline: list[tuple[int, PlannedPoint]] = []
        for index, pp in enumerate(plan):
            wire = point_to_wire(pp.point)
            if wire is None:
                inline.append((index, pp))
            else:
                groups.setdefault(pp.point.group(), []).append(
                    (index, pp, wire))
        ordered = sorted(groups.values(),
                         key=lambda m: -sum(p.est_seconds for _, p, _ in m))
        shipped: dict[int, PlannedPoint] = {}
        for order, members in enumerate(ordered):
            gid = runner.point_digest(members[0][1].key)[:12]
            payload = {"gid": gid, "order": order,
                       "est_seconds": round(sum(p.est_seconds
                                                for _, p, _ in members), 4),
                       "points": [{"index": index,
                                   "digest": runner.point_digest(pp.key),
                                   "point": wire}
                                  for index, pp, wire in members]}
            _atomic_json(sweep_dir / "groups" / f"g{order:04d}-{gid}.json",
                         payload)
            for index, pp, _ in members:
                shipped[index] = pp
                _emit(events, "point_start",
                      digest=runner.point_digest(pp.key), app=pp.point.abbr,
                      worker=pp.worker)
        # The manifest lands last: workers ignore sweep dirs without one,
        # so no group is claimable until the whole queue is published.
        _atomic_json(sweep_dir / "manifest.json",
                     {"sweep_id": sweep_id, "host": runner.host_id(),
                      "pid": os.getpid(), "created": time.time(),
                      "groups": len(ordered), "points": len(shipped),
                      "inline_points": len(inline)})
        metrics.METRICS.counter(
            "repro_distributed_groups_total",
            "affinity groups published to the distributed claim "
            "queue").inc(len(ordered))
        _emit(events, "queue_published", sweep_id=sweep_id,
              groups=len(ordered), points=len(shipped),
              inline_points=len(inline))

        ctx = multiprocessing.get_context()
        n_local = local_worker_count(workers)
        procs = [ctx.Process(target=_local_worker,
                             args=(str(root), sweep_id, lane), daemon=True)
                 for lane in range(n_local)]
        for proc in procs:
            proc.start()

        cached = stats.cached
        done = 0
        seen_markers: set[str] = set()
        workers_seen: set[str] = set()
        stale_s = claim_stale_s()
        try:
            # Points that cannot travel run here while the fleet drains
            # the queue (typically a handful of Workload-object points).
            for index, pp in inline:
                if cancel is not None and cancel.is_set():
                    raise SweepCancelled(
                        f"sweep cancelled with "
                        f"{len(plan) - done} misses outstanding")
                _emit(events, "point_start",
                      digest=runner.point_digest(pp.key),
                      app=pp.point.abbr, worker=pp.worker)
                memo = mcm.TRACE_MEMO
                hits, misses = memo.hits, memo.misses
                t0 = time.perf_counter()
                results[pp.key] = _run_inline(pp.point)
                seconds = time.perf_counter() - t0
                stats.point_seconds[pp.key] = seconds
                stats.memo_hits += memo.hits - hits
                stats.memo_misses += memo.misses - misses
                done += 1
                _emit(events, "point_finish",
                      digest=runner.point_digest(pp.key), app=pp.point.abbr,
                      seconds=round(seconds, 4), stolen=False,
                      worker=pp.worker)
                reporter.update(cached + done,
                                running=min(max(n_local, 1),
                                            len(plan) - done))
            while done < len(plan):
                if cancel is not None and cancel.is_set():
                    _atomic_json(sweep_dir / "cancel",
                                 {"cancelled_at": time.time()})
                    raise SweepCancelled(
                        f"sweep cancelled with "
                        f"{len(plan) - done} misses outstanding")
                progressed = self._harvest(
                    sweep_dir, shipped, seen_markers, workers_seen,
                    results, stats, events)
                if progressed:
                    done = len(inline) + len(seen_markers)
                    claims = self._live_claims(sweep_dir)
                    reporter.update(cached + done,
                                    running=max(len(claims),
                                                int(done < len(plan))))
                    continue
                self._reclaim(sweep_dir, stale_s, stats, events)
                if procs and all(p.exitcode not in (None, 0)
                                 for p in procs):
                    raise RuntimeError(
                        f"all {len(procs)} local sweep workers exited "
                        f"abnormally with {len(plan) - done} points left "
                        f"(exitcodes "
                        f"{[p.exitcode for p in procs]})")
                time.sleep(_COORD_POLL_S)
            if workers_seen:
                stats.jobs = max(stats.jobs, len(workers_seen))
        finally:
            # Tearing the sweep dir down is the shutdown signal: pinned
            # local helpers exit when it vanishes, and roaming `repro
            # worker` processes move on to other sweeps.
            shutil.rmtree(sweep_dir, ignore_errors=True)
            for proc in procs:
                proc.join(timeout=10)
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5)

    @staticmethod
    def _live_claims(sweep_dir: Path) -> list[Path]:
        try:
            return list((sweep_dir / "claims").iterdir())
        except OSError:
            return []

    def _harvest(self, sweep_dir: Path, shipped: dict, seen: set,
                 workers_seen: set, results: dict, stats, events) -> bool:
        """Fold newly-arrived done markers into results/stats.

        Results come from the shared cache by key (the thin wire); a
        marker embedding a payload means the worker had no writable
        cache, and the payload is used directly.
        """
        try:
            marker_files = sorted((sweep_dir / "done").iterdir())
        except OSError:
            return False
        progressed = False
        for mf in marker_files:
            if mf.name in seen:
                continue
            marker = _read_json(mf)
            if marker is None:
                continue        # mid-replace; next poll sees it whole
            seen.add(mf.name)
            progressed = True
            pp = shipped[marker["index"]]
            if marker.get("error"):
                raise RuntimeError(
                    f"distributed worker {marker.get('worker')} failed on "
                    f"{pp.label()}:\n{marker['error']}")
            workers_seen.add(str(marker.get("worker")))
            if marker.get("payload") is not None:
                results[pp.key] = runner._deserialize(marker["payload"])
            else:
                loaded = runner.cached_result(
                    pp.point.config, pp.point.abbr, pp.point.scale,
                    pp.point.tag)
                if loaded is None:
                    raise RuntimeError(
                        f"worker {marker.get('worker')} marked "
                        f"{pp.label()} done but the shared cache has no "
                        f"result (cache directory not actually shared?)")
                results[pp.key] = loaded
            seconds = float(marker.get("seconds", 0.0))
            if not marker.get("cache_hit"):
                stats.point_seconds[pp.key] = seconds
                if marker.get("host"):
                    stats.point_hosts[pp.key] = str(marker["host"])
            stats.memo_hits += int(marker.get("memo_hits", 0))
            stats.memo_misses += int(marker.get("memo_misses", 0))
            _emit(events, "point_finish",
                  digest=runner.point_digest(pp.key), app=pp.point.abbr,
                  seconds=round(seconds, 4), stolen=False,
                  cache_hit=bool(marker.get("cache_hit")),
                  worker=str(marker.get("worker")))
        return progressed

    def _reclaim(self, sweep_dir: Path, stale_s: float, stats,
                 events) -> None:
        """Free claims whose owner stopped heartbeating (presumed dead).

        Deleting the claim file is all it takes: the owner's heartbeat
        thread stops itself when the file vanishes, its worker loop stops
        at the next point boundary, and any surviving worker re-claims
        the group — finding every already-published point as a done
        marker or cache hit.
        """
        now = time.time()
        for claim in self._live_claims(sweep_dir):
            try:
                age = now - claim.stat().st_mtime
            except OSError:
                continue        # released while we looked
            if age <= stale_s:
                continue
            owner = _read_json(claim) or {}
            claim.unlink(missing_ok=True)
            stats.steals += 1
            metrics.METRICS.counter(
                "repro_distributed_reclaims_total",
                "groups reclaimed from heartbeat-less workers").inc()
            _emit(events, "group_reclaimed", gid=claim.stem,
                  worker=str(owner.get("worker")),
                  stale_seconds=round(age, 2))
