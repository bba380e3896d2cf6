"""Experiment runner: cached simulation of (config, app) points.

Every figure reproduces to a set of (config, app) simulation points, many of
which repeat across figures (the Table II baseline appears in almost every
one).  ``run_point`` therefore memoizes :class:`SimResult`s on disk, keyed
by the full configuration, the app, the trace scale, and a simulator-version
stamp — so a full benchmark sweep pays for each distinct point once.

The cache is safe under concurrent fill (the parallel sweep engine in
:mod:`repro.experiments.sweep` fans points out over worker processes):

* results are written to a temp file, fsynced and atomically renamed into
  place, so a reader never sees a torn JSON payload;
* a per-key lockfile (``O_CREAT | O_EXCL``) makes sure two workers that
  race on the same point simulate it once — the loser waits and reads the
  winner's result;
* a file that does not decode anyway (a crash on a filesystem without
  ordered writes) is a miss: the next filler moves it to ``*.corrupt`` and
  simulates the point again.

Environment knobs (see docs/performance.md for the operations guide):

* ``REPRO_BENCH_SCALE`` — trace-scale multiplier (default 0.4); larger is
  slower but less noisy.
* ``REPRO_CACHE_DIR`` — cache location (default ``<repo>/.bench_cache``).
* ``REPRO_NO_CACHE=1`` — disable the cache entirely.
* ``REPRO_LOCK_STALE`` — seconds after which another worker's lockfile is
  presumed dead and stolen (default 1800).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import time
import warnings
from pathlib import Path
from typing import Callable

from repro.common.config import SimConfig
from repro.common.stats import Histogram, LatencyHistogram
from repro.gpu.mcm import McmGpuSimulator, SimResult
from repro.workloads.base import Workload
from repro.workloads.suite import get_workload

#: Bump when simulator semantics change, to invalidate cached results.
SIM_VERSION = "bc-2"

_RESULT_FIELDS = [f.name for f in dataclasses.fields(SimResult)
                  if f.name not in ("vpn_gaps", "translation_latency",
                                    "extra")]

#: Cache roots that turned out not to be writable (read-only checkout);
#: each warns once and then behaves like ``REPRO_NO_CACHE``.
_UNWRITABLE: set[str] = set()

#: Lockfile wait: capped exponential backoff, so a large fleet of losers
#: parked on one hot key doesn't hammer ``stat()`` on the shared cache
#: directory.  Starts fast (the common case is a near-finished winner) and
#: settles at the cap for long simulations.
_LOCK_POLL_INITIAL_S = 0.002
_LOCK_POLL_MAX_S = 0.25

#: Key-manifest directory: one small JSON file per cached point
#: (``meta/keys/<digest>.json``) recording the key's *components* —
#: sim version, app, scale, tag, canonical config JSON — and the host
#: seconds the fill's simulation took.  The cache filename only carries a
#: one-way digest, so this is what lets the experiment explorer
#: (:mod:`repro.obs`) decode a cache entry back into (app, scheme, scale,
#: SIM_VERSION), and the sweep's cost model plan misses longest-first.
#: One file per digest (atomic rename), written by the filling process —
#: concurrent fills of different points never contend.  Payload bytes are
#: untouched, so golden cache digests are unchanged.
_KEYS_SIDECAR = Path("meta") / "keys"


def bench_scale() -> float:
    """Trace scale used by the benchmark harness."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))


def _lock_stale_s() -> float:
    return float(os.environ.get("REPRO_LOCK_STALE", "1800"))


def _cache_dir(create: bool = False) -> Path | None:
    """The cache root, or None when caching is off.

    The directory is only created when ``create=True`` (a write is about
    to happen) — merely *querying* the cache must work in a read-only
    checkout.  If creation fails, the cache degrades to ``REPRO_NO_CACHE``
    behaviour with a one-time warning per path.
    """
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    path = Path(os.environ.get("REPRO_CACHE_DIR",
                               Path(__file__).resolve().parents[3]
                               / ".bench_cache"))
    if str(path) in _UNWRITABLE:
        return None
    if create and not path.is_dir():
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _UNWRITABLE.add(str(path))
            warnings.warn(
                f"result cache {path} is not writable ({exc}); "
                "falling back to REPRO_NO_CACHE behaviour",
                RuntimeWarning, stacklevel=3)
            return None
    return path


def encode_config(value):
    """A config as plain JSON data: dataclasses to dicts, enums to values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: encode_config(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if hasattr(value, "value"):
        return value.value
    return value


def _config_key(config: SimConfig) -> str:
    # A retired config field, kept as a constant so point keys do not move.
    return json.dumps({**encode_config(config), "engine": "event"},
                      sort_keys=True)


def point_key(config: SimConfig, abbr: str, scale: float,
              workload_tag: str = "") -> str:
    """The canonical cache key of one simulation point.

    Identical in every process — it is what makes a worker-pool fill
    land on the same file a serial ``run_point`` would use.
    """
    return "|".join([SIM_VERSION, _config_key(config), abbr,
                     f"{scale:.4f}", workload_tag])


def point_digest(key: str) -> str:
    """Short stable digest of a point key (cache filenames, sidecar keys)."""
    return hashlib.sha256(key.encode()).hexdigest()[:24]


def _point_path(config: SimConfig, app: str, scale: float,
                workload_tag: str) -> Path | None:
    root = _cache_dir()
    if root is None:
        return None
    digest = point_digest(point_key(config, app, scale, workload_tag))
    return root / f"{app.replace('+', '_')}-{digest}.json"


def point_path(config: SimConfig, app: str | Workload,
               scale: float | None = None,
               workload_tag: str = "") -> Path | None:
    """Canonical cache file of a point, or None when caching is off.

    The sweep engine's thin wire protocol checks this after a worker
    simulates: when the file exists the worker ships only the key and its
    timing, and the parent loads the result from disk.
    """
    scale = bench_scale() if scale is None else scale
    abbr = app if isinstance(app, str) else app.abbr
    return _point_path(config, abbr, scale, workload_tag)


def _serialize(result: SimResult) -> dict:
    payload = {name: getattr(result, name) for name in _RESULT_FIELDS}
    payload["vpn_gaps"] = {str(k): v for k, v in result.vpn_gaps.buckets.items()}
    payload["translation_latency"] = result.translation_latency.as_dict()
    return payload


def _deserialize(payload: dict) -> SimResult:
    gaps = Histogram()
    for key, value in payload.pop("vpn_gaps", {}).items():
        gaps.buckets[int(key)] = value
    # Results cached before the latency histogram existed deserialize to an
    # empty histogram (the scalar fields are unchanged, so the key is too).
    latency = LatencyHistogram.from_dict(payload.pop("translation_latency",
                                                     None))
    return SimResult(vpn_gaps=gaps, translation_latency=latency, **payload)


def _load(path: Path) -> SimResult:
    return _deserialize(json.loads(path.read_text()))


def _try_load(path: Path) -> SimResult | None:
    """The result at ``path``, or None when it is absent or does not decode."""
    if not path.exists():
        return None
    try:
        return _load(path)
    except (OSError, ValueError):
        return None     # vanished underneath us, or a torn payload


def _write_json(path: Path, obj) -> None:
    """Publish ``json.dumps(obj)`` at ``path``: temp file, fsync, rename.

    A concurrent reader never sees a torn file, and a power loss cannot
    leave the renamed file without its bytes.
    """
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(obj))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _atomic_write(path: Path, result: SimResult) -> None:
    _write_json(path, _serialize(result))


def _write_key_manifest(path: Path, config: SimConfig, abbr: str,
                        scale: float, tag: str,
                        seconds: float | None = None) -> None:
    """Record a fill's key components (and its host seconds) next to the
    cache, best-effort.

    Called only when a result was actually published, so hit paths pay
    nothing.
    """
    digest = path.stem.rsplit("-", 1)[-1]
    manifest = path.parent / _KEYS_SIDECAR / f"{digest}.json"
    payload = {"app": abbr, "config": _config_key(config),
               "file": path.name, "scale": scale,
               "sim_version": SIM_VERSION, "tag": tag}
    if seconds is not None:
        payload["seconds"] = round(seconds, 4)
    try:
        manifest.parent.mkdir(parents=True, exist_ok=True)
        _write_json(manifest, payload)
    except OSError:
        pass    # the manifest is a catalog hint, never a source of truth


def _read_manifest(path: Path) -> dict | None:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def load_key_manifest(digest: str, root: Path) -> dict | None:
    """The recorded key components of one point cached under ``root``.

    None when absent: entries filled before the manifest existed (or
    through a read-only cache) have none — the explorer's catalog falls
    back to the payload's own ``app``/``backend`` fields for those.
    """
    return _read_manifest(root / _KEYS_SIDECAR / f"{digest}.json")


def load_timings() -> dict[str, dict]:
    """Measured fills: ``point_digest -> key manifest`` with ``"seconds"``.

    A scan of the key manifests that the sweep's cost model plans
    against.  Manifests that do not decode or carry no seconds (written
    by ``repro trace``, or before fills were timed) are skipped.
    Returns {} when caching is off or nothing has been filled.
    """
    root = _cache_dir()
    if root is None:
        return {}
    timings = {}
    for path in (root / _KEYS_SIDECAR).glob("*.json"):
        manifest = _read_manifest(path)
        if manifest is not None and isinstance(manifest.get("seconds"),
                                               (int, float)):
            timings[path.stem] = manifest
    return timings


#: Points this process actually simulated through :func:`_fill_point`
#: (cache hits do not count).  ``repro explore`` asserts it stays put.
SIMULATIONS = 0


def _fill_point(path: Path | None, compute: Callable[[], SimResult],
                key_meta: Callable[[], tuple] | None = None) -> SimResult:
    """Return the cached result at ``path``, filling it under a lockfile.

    Concurrency protocol (cache-stampede safety):

    1. cache hit → load and return;
    2. try to create ``<path>.lock`` with ``O_CREAT | O_EXCL`` — exactly one
       worker per key wins;
    3. the winner re-checks the cache (it may have been filled while racing
       for the lock), moves a file that does not decode to ``*.corrupt``,
       simulates, atomically publishes, removes the lock;
    4. losers wait with capped exponential backoff until the lock
       disappears, then read the winner's file.  A lock older than
       ``REPRO_LOCK_STALE`` seconds with no result is presumed to belong
       to a crashed worker and is stolen.

    Everyone but the lock holder treats an undecodable file as absent.
    ``key_meta`` (a lazy ``() -> (config, abbr, scale, tag)``) lets the
    winner record the point's key components and the seconds ``compute``
    took in the key manifest after publishing; it is never invoked on a
    hit.
    """
    global SIMULATIONS
    if path is None:
        SIMULATIONS += 1
        return compute()
    result = _try_load(path)
    if result is not None:
        return result
    if _cache_dir(create=True) is None:   # cache dir vanished / read-only
        SIMULATIONS += 1
        return compute()
    lock = path.with_suffix(".lock")
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            delay = _LOCK_POLL_INITIAL_S
            while lock.exists():
                result = _try_load(path)
                if result is not None:
                    return result
                with contextlib.suppress(FileNotFoundError):
                    if time.time() - lock.stat().st_mtime > _lock_stale_s():
                        lock.unlink(missing_ok=True)
                        break
                time.sleep(delay)
                delay = min(delay * 2, _LOCK_POLL_MAX_S)
            continue  # lock released or stolen: re-check under the lock
        os.close(fd)
        try:
            result = _try_load(path)
            if result is not None:  # filled while we raced for the lock
                return result
            if path.exists():
                _quarantine(path)
            start = time.perf_counter()
            result = compute()
            seconds = time.perf_counter() - start
            _atomic_write(path, result)
            SIMULATIONS += 1
            if key_meta is not None:
                _write_key_manifest(path, *key_meta(), seconds=seconds)
            return result
        finally:
            lock.unlink(missing_ok=True)


def _quarantine(path: Path) -> None:
    """Move a cache file that does not decode aside, keeping its bytes."""
    corrupt = path.with_suffix(".corrupt")
    os.replace(path, corrupt)
    warnings.warn(f"result cache file {path.name} did not decode; moved it "
                  f"to {corrupt} and simulating the point again",
                  RuntimeWarning, stacklevel=3)


# --------------------------------------------------------------------------
# Point collection (prewarm support for the sweep engine)
# --------------------------------------------------------------------------

#: When not None, ``run_point``/``run_pair`` record their would-be points
#: in this list and return a cheap stub instead of simulating.  The sweep
#: engine uses this to discover a figure's full point-set up front.
_COLLECT: list | None = None


@contextlib.contextmanager
def collecting():
    """Record (config, app, scale, tag, pair) tuples instead of simulating.

    Yields the sink list.  Used by :func:`repro.experiments.sweep.collect_points`
    to enumerate every simulation point an experiment function would run.
    Nests: the enclosing sink is restored on exit.
    """
    global _COLLECT
    prev, _COLLECT = _COLLECT, []
    try:
        yield _COLLECT
    finally:
        _COLLECT = prev


def is_collecting() -> bool:
    return _COLLECT is not None


def _stub_result(app: str) -> SimResult:
    """A benign placeholder returned while collecting points.

    Every derived metric must be computable without dividing by zero, so
    experiment functions can run end-to-end during a collection pass.
    """
    gaps = Histogram()
    gaps.add(0)
    return SimResult(app=app, backend="stub", cycles=1, instructions=1000.0,
                     l2_misses=0, l2_lookups=0, ats_requests=0,
                     pcie_packets=0, mesh_packets=0, walks=0, pec_coalesced=0,
                     mean_ats_time=0.0, remote_data_fraction=0.0,
                     vpn_gaps=gaps)


# --------------------------------------------------------------------------
# Public runners
# --------------------------------------------------------------------------

def cached_result(config: SimConfig, app: str | Workload,
                  scale: float | None = None,
                  workload_tag: str = "") -> SimResult | None:
    """The cached :class:`SimResult` for a point, or None.  Never simulates.

    A cache file that does not decode counts as a miss.
    """
    scale = bench_scale() if scale is None else scale
    abbr = app if isinstance(app, str) else app.abbr
    path = _point_path(config, abbr, scale, workload_tag)
    return None if path is None else _try_load(path)


def store_point(config: SimConfig, app: str | Workload, result: SimResult,
                scale: float | None = None,
                workload_tag: str = "") -> Path | None:
    """Publish a result at a point's canonical cache path.

    Used by ``repro trace``: a traced run simulates the exact same event
    sequence as an untraced one, so its result is a valid cache fill for
    the standard key.  Its manifest records no seconds: a traced run's
    time is not the point's cost.  Returns the published path, or None
    when caching is off.
    """
    scale = bench_scale() if scale is None else scale
    abbr = app if isinstance(app, str) else app.abbr
    path = _point_path(config, abbr, scale, workload_tag)
    if path is None or _cache_dir(create=True) is None:
        return None
    _atomic_write(path, result)
    _write_key_manifest(path, config, abbr, scale, workload_tag)
    return path


def run_point(config: SimConfig, app: str | Workload,
              scale: float | None = None,
              workload_tag: str = "") -> SimResult:
    """Simulate one (config, app) point, via the disk cache when possible.

    ``app`` is a Table I abbreviation or a pre-built :class:`Workload`
    (pass ``workload_tag`` to make cache keys of modified workloads unique,
    e.g. ``"x16"`` for Fig 24's scaled inputs).
    """
    scale = bench_scale() if scale is None else scale
    sink = _COLLECT
    if sink is not None:
        abbr = app if isinstance(app, str) else app.abbr
        sink.append((config, app, scale, workload_tag, None))
        return _stub_result(abbr)
    workload = get_workload(app) if isinstance(app, str) else app
    path = _point_path(config, workload.abbr, scale, workload_tag)
    return _fill_point(
        path,
        lambda: McmGpuSimulator(config, [workload],
                                trace_scale=scale).run(),
        key_meta=lambda: (config, workload.abbr, scale, workload_tag))


def run_pair(config: SimConfig, app_a: str, app_b: str,
             scale: float | None = None) -> SimResult:
    """Multi-programming point: two apps co-scheduled (Section VII-I)."""
    scale = bench_scale() if scale is None else scale
    sink = _COLLECT
    if sink is not None:
        sink.append((config, app_a, scale, "", app_b))
        return _stub_result(app_a)

    def compute() -> SimResult:
        first = get_workload(app_a)
        second = get_workload(app_b)
        second.pasid = 1
        return McmGpuSimulator(config, [first, second],
                               trace_scale=scale).run()

    path = _point_path(config, app_a, scale, f"pair-{app_b}")
    return _fill_point(path, compute,
                       key_meta=lambda: (config, app_a, scale,
                                         f"pair-{app_b}"))


def suite_results(config: SimConfig, apps: list[str],
                  scale: float | None = None) -> dict[str, SimResult]:
    """Run one configuration across a list of apps — as one parallel batch.

    Cache misses fan out over the sweep engine's worker pool (worker count
    from ``REPRO_JOBS``); hits are served straight from disk.
    """
    from repro.experiments.sweep import SweepPoint, sweep
    outcome = sweep([SweepPoint(config, app, scale) for app in apps])
    return dict(zip(apps, outcome.results))


def speedups(variant: dict[str, SimResult],
             baseline: dict[str, SimResult]) -> dict[str, float]:
    """Per-app speedup of ``variant`` over ``baseline``."""
    return {app: variant[app].speedup_over(baseline[app])
            for app in variant if app in baseline}
