"""Experiment runner: cached simulation of (config, app) points.

Every figure reproduces to a set of (config, app) simulation points, many of
which repeat across figures (the Table II baseline appears in almost every
one).  :class:`SweepPoint` is the one description of such a point — its
key, its workloads, its simulation — and :func:`fill` is the one way a point
reaches the cache: ``run_point``, ``run_pair``, the sweep engine's inline
path and its pool workers all call it.  Results are memoized on disk, keyed
by the full configuration, the app, the trace scale, and a simulator-version
stamp — so a full benchmark sweep pays for each distinct point once.

The cache is safe under concurrent fill (the parallel sweep engine in
:mod:`repro.experiments.sweep` fans points out over worker processes):

* results are written to a temp file, fsynced and atomically renamed into
  place, so a reader never sees a torn JSON payload;
* a per-key ``flock`` makes sure two workers that race on the same point
  simulate it once — the loser blocks and reads the winner's result.  The
  kernel drops the lock when its holder dies, however it dies, so a killed
  filler never leaves a lock that later fills wait on;
* a file that does not decode anyway (a crash on a filesystem without
  ordered writes) is a miss: the next filler moves it to ``*.corrupt`` and
  simulates the point again.

Environment knobs (see docs/performance.md for the operations guide):

* ``REPRO_BENCH_SCALE`` — trace-scale multiplier (default 0.3, the
  scale ``results/`` is committed at); larger is slower but less noisy.
* ``REPRO_CACHE_DIR`` — cache location (default ``<repo>/.bench_cache``).
* ``REPRO_NO_CACHE=1`` — disable the cache entirely.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import functools
import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.common.config import SimConfig
from repro.common.result import SimResult
from repro.common.stats import Histogram, LatencyHistogram
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
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))


#: The cache root when ``REPRO_CACHE_DIR`` is unset, resolved once: a
#: sweep plan asks for the root once per point.
_DEFAULT_CACHE_DIR = Path(__file__).resolve().parents[3] / ".bench_cache"

#: ``REPRO_CACHE_DIR`` value -> its Path, parsed once per distinct value.
_env_cache_dir = functools.lru_cache(maxsize=64)(Path)


def _cache_dir(create: bool = False) -> Path | None:
    """The cache root, or None when caching is off.

    ``REPRO_NO_CACHE`` and ``REPRO_CACHE_DIR`` are read on every call, so
    a change mid-process takes effect at once.  The directory is only
    created when ``create=True`` (a write is about to happen) — merely
    *querying* the cache must work in a read-only checkout.  If creation
    fails, the cache degrades to ``REPRO_NO_CACHE`` behaviour with a
    one-time warning per path.
    """
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    env = os.environ.get("REPRO_CACHE_DIR")
    path = _DEFAULT_CACHE_DIR if env is None else _env_cache_dir(env)
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


#: ``repr(config) -> canonical config JSON``.  A sweep plan keys the
#: paper's 1,127 points, which share a few dozen configs, so each JSON is
#: built once.  The key is ``repr``, not the config: equal configs can
#: encode differently (``dram_latency=100 == 100.0``), and two configs
#: with one repr have the same field values and types, hence one JSON.
_CONFIG_KEYS: dict[str, str] = {}

#: Entries kept before the memo starts over: about 2 KB each, so 2 MB
#: when full.  The full reproduction has 55 configs per seed.
_CONFIG_KEYS_MAX = 1024


def _config_key(config: SimConfig) -> str:
    exact = repr(config)
    key = _CONFIG_KEYS.get(exact)
    if key is None:
        if len(_CONFIG_KEYS) >= _CONFIG_KEYS_MAX:
            _CONFIG_KEYS.clear()
        # A retired config field, kept as a constant so point keys do not
        # move.
        key = _CONFIG_KEYS[exact] = json.dumps(
            {**encode_config(config), "engine": "event"}, sort_keys=True)
    return key


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


def key_path(abbr: str, key: str) -> Path | None:
    """Cache file of the point ``key`` of app ``abbr``, or None when
    caching is off."""
    root = _cache_dir()
    if root is None:
        return None
    return root / f"{abbr.replace('+', '_')}-{point_digest(key)}.json"


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One simulation point: a config, an app, and optional modifiers.

    ``app`` is a Table I abbreviation or a pre-built :class:`Workload`
    (``workload_tag`` keeps the keys of modified workloads apart, e.g.
    ``"x16"`` for Fig 24's scaled inputs); ``pair_with`` marks a Section
    VII-I co-scheduling point, whose second app runs as PASID 1.
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
        return bench_scale() if self.scale is None else self.scale

    def key(self) -> str:
        """The point's cache key (see :func:`point_key`)."""
        return point_key(self.config, self.abbr, self.resolved_scale(),
                         self.tag)

    def group(self) -> tuple:
        """Affinity group: points whose CTA traces are memo-shareable.

        Matches the domain of ``mcm.build_cta_traces``'s memo key — same
        app/tag, trace scale, and seed — without the config, so every
        configuration of one app lands in one group.
        """
        return (self.abbr, self.tag, f"{self.resolved_scale():.4f}",
                self.config.seed)

    def simulate(self) -> SimResult:
        """Run the point, bypassing the cache."""
        from repro.gpu.mcm import McmGpuSimulator
        workloads = [get_workload(self.app) if isinstance(self.app, str)
                     else self.app]
        if self.pair_with:
            workloads.append(get_workload(self.pair_with))
            workloads[1].pasid = 1
        return McmGpuSimulator(self.config, workloads,
                               trace_scale=self.resolved_scale()).run()


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


def _write_key_manifest(path: Path, point: SweepPoint,
                        seconds: float | None = None) -> None:
    """Record a fill's key components (and its host seconds) next to the
    cache, best-effort.

    Called only just before a result is published, so hit paths pay
    nothing; a manifest whose payload never landed is not listed by the
    catalog, and its seconds still price the refill.
    """
    digest = path.stem.rsplit("-", 1)[-1]
    manifest = path.parent / _KEYS_SIDECAR / f"{digest}.json"
    payload = {"app": point.abbr, "config": _config_key(point.config),
               "file": path.name, "scale": point.resolved_scale(),
               "sim_version": SIM_VERSION, "tag": point.tag}
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


#: Points this process actually simulated through :func:`fill` (cache
#: hits do not count).  ``repro explore`` asserts it stays put.
SIMULATIONS = 0


def fill(point: SweepPoint) -> SimResult:
    """The result of ``point``: from the cache, else simulated and filed.

    In a collection pass (:func:`collecting`) the point is recorded and a
    stub comes back.  Otherwise the concurrency protocol
    (cache-stampede safety) is:

    1. cache hit → load and return;
    2. take an exclusive ``flock`` on ``<path>.lock`` — one worker per key
       holds it, the others block in the kernel;
    3. the holder re-checks the cache (it may have been filled while it
       waited), moves a file that does not decode to ``*.corrupt``,
       simulates, publishes, then unlinks the lock file and closes it;
    4. a waiter that gets the lock finds the holder's file in step 3.

    A holder killed by any means loses its lock with its process; at
    worst it leaves the lock *file*, which the next filler locks at once.
    Only the lock holder quarantines an undecodable file.  The holder
    records the point's key components and its simulation seconds in the
    key manifest, written before the payload so a kill between the two
    leaves no payload without a manifest.
    """
    global SIMULATIONS
    sink = _COLLECT
    if sink is not None:
        sink.append(point)
        return _stub_result(point.abbr)
    path = key_path(point.abbr, point.key())
    if path is None:
        SIMULATIONS += 1
        return point.simulate()
    result = _try_load(path)
    if result is not None:
        return result
    if _cache_dir(create=True) is None:   # cache dir vanished / read-only
        SIMULATIONS += 1
        return point.simulate()
    lock = path.with_suffix(".lock")
    fd = _lock(lock)
    try:
        result = _try_load(path)
        if result is not None:  # filled while we waited for the lock
            return result
        if path.exists():
            _quarantine(path)
        start = time.perf_counter()
        result = point.simulate()
        _write_key_manifest(path, point,
                            seconds=time.perf_counter() - start)
        _atomic_write(path, result)
        SIMULATIONS += 1
        return result
    finally:
        lock.unlink(missing_ok=True)   # while held: see _lock
        os.close(fd)


def _lock(lock: Path) -> int:
    """An open fd holding an exclusive ``flock`` on the file at ``lock``.

    Holders unlink the file before they release it, so a waiter can wake
    on an inode no longer at ``lock``; it then locks the current file.
    """
    while True:
        fd = os.open(lock, os.O_CREAT | os.O_RDWR)
        fcntl.flock(fd, fcntl.LOCK_EX)
        with contextlib.suppress(FileNotFoundError):
            if os.fstat(fd).st_ino == os.stat(lock).st_ino:
                return fd
        os.close(fd)


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

#: When not None, :func:`fill` records each point in this list and returns
#: a cheap stub instead of simulating.  The sweep engine uses this to
#: discover a figure's full point-set up front.
_COLLECT: list[SweepPoint] | None = None


@contextlib.contextmanager
def collecting():
    """Record each :class:`SweepPoint` instead of simulating it.

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
    point = SweepPoint(config, app, scale, workload_tag)
    return load_cached(point.abbr, point.key())


def load_cached(abbr: str, key: str) -> SimResult | None:
    """The cached result filed under point ``key``, or None (see
    :func:`cached_result`, which derives the key itself)."""
    path = key_path(abbr, key)
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
    point = SweepPoint(config, app, scale, workload_tag)
    path = key_path(point.abbr, point.key())
    if path is None or _cache_dir(create=True) is None:
        return None
    _write_key_manifest(path, point)
    _atomic_write(path, result)
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
    return fill(SweepPoint(config, app, scale, workload_tag))


def run_pair(config: SimConfig, app_a: str, app_b: str,
             scale: float | None = None) -> SimResult:
    """Multi-programming point: two apps co-scheduled (Section VII-I)."""
    scale = bench_scale() if scale is None else scale
    return fill(SweepPoint(config, app_a, scale, pair_with=app_b))


def suite_results(config: SimConfig, apps: list[str],
                  scale: float | None = None) -> dict[str, SimResult]:
    """Run one configuration across a list of apps — as one parallel batch.

    Cache misses fan out over the sweep engine's worker pool (worker count
    from ``REPRO_JOBS``); hits are served straight from disk.
    """
    from repro.experiments.sweep import sweep
    outcome = sweep([SweepPoint(config, app, scale) for app in apps])
    return dict(zip(apps, outcome.results))


def speedups(variant: dict[str, SimResult],
             baseline: dict[str, SimResult]) -> dict[str, float]:
    """Per-app speedup of ``variant`` over ``baseline``."""
    return {app: variant[app].speedup_over(baseline[app])
            for app in variant if app in baseline}
