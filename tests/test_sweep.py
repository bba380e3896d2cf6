"""Sweep engine: inline and pool paths, stampede safety, CLI, cache knobs."""

from __future__ import annotations

import hashlib
import importlib
import json
import multiprocessing
import os
import re
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import configs, figures
from repro.experiments import runner as runner_mod
from repro.experiments.runner import (
    _deserialize,
    _serialize,
    cached_result,
    load_timings,
    point_digest,
    run_point,
    store_point,
)
from repro.experiments.sweep import (
    SweepPoint,
    _pool_width,
    _Progress,
    collect_points,
    default_jobs,
    plan_misses,
    sweep,
)
from repro.gpu.mcm import McmGpuSimulator
from repro.workloads.suite import get_workload

# The package re-exports the ``sweep`` function under the module's name.
sweep_mod = importlib.import_module("repro.experiments.sweep")
REPO = Path(__file__).resolve().parents[1]
SCALE = 0.05


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return tmp_path


class TestParallelDeterminism:
    def test_worker_result_identical_to_inprocess(self, cache, monkeypatch):
        points = [SweepPoint(configs.baseline(), "gemv", SCALE),
                  SweepPoint(configs.baseline(), "fft", SCALE)]
        out = sweep(points, jobs=2, progress=False)
        assert out.stats.simulated == 2
        # Bypass the cache so the reference result is a pure in-process run.
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        direct = run_point(configs.baseline(), "gemv", scale=SCALE)
        assert _serialize(direct) == _serialize(out.results[0])

    def test_results_align_with_submission_order(self, cache):
        points = [SweepPoint(configs.baseline(), app, SCALE)
                  for app in ("gemv", "fft", "gemv")]
        out = sweep(points, jobs=2, progress=False)
        assert [r.app for r in out.results] == ["gemv", "fft", "gemv"]
        assert _serialize(out.results[0]) == _serialize(out.results[2])


class TestStampedeSafety:
    def test_duplicate_submissions_simulate_once(self, cache):
        point = SweepPoint(configs.baseline(), "gemv", SCALE)
        out = sweep([point, point, point], jobs=2, progress=False)
        assert out.stats.total == 3
        assert out.stats.unique == 1
        assert out.stats.simulated == 1
        assert len(list(cache.glob("*.json"))) == 1

    def test_second_sweep_is_all_cache_hits(self, cache):
        points = [SweepPoint(configs.baseline(), "gemv", SCALE)]
        sweep(points, jobs=2, progress=False)
        out = sweep(points, jobs=2, progress=False)
        assert out.stats.cached == 1
        assert out.stats.simulated == 0

    def test_concurrent_run_point_simulates_once(self, cache, monkeypatch):
        calls = []
        real_run = McmGpuSimulator.run

        def counting_run(self):
            calls.append(1)
            time.sleep(0.05)   # widen the race window
            return real_run(self)

        monkeypatch.setattr(McmGpuSimulator, "run", counting_run)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run_point, configs.baseline(), "gemv",
                                   SCALE) for _ in range(2)]
            results = [f.result() for f in futures]
        assert len(calls) == 1, "lockfile failed to prevent a double simulate"
        assert _serialize(results[0]) == _serialize(results[1])

    def test_no_lockfiles_or_temp_files_left_behind(self, cache):
        sweep([SweepPoint(configs.baseline(), "gemv", SCALE)],
              jobs=2, progress=False)
        assert not list(cache.glob("*.lock"))
        assert not list(cache.glob("*.tmp"))


class TestCollection:
    def test_collects_every_point_without_simulating(self, cache):
        points = collect_points(figures.fig06_shared_l2,
                                apps=["gemv", "fft"], scale=SCALE)
        # baseline + shared-l2, two apps each
        assert len(points) == 4
        assert len({p.key() for p in points}) == 4
        assert not list(cache.glob("*.json"))

    def test_collects_pair_points(self, cache):
        points = collect_points(figures.fig27a_multiapp,
                                pairs={"LL": ("gemv", "fft")}, scale=SCALE)
        assert [p.pair_with for p in points] == ["fft", "fft"]
        assert all(p.abbr == "gemv" for p in points)


class TestCliSweep:
    def test_sweep_command(self, cache, capsys):
        assert main(["sweep", "--schemes", "baseline", "--apps", "gemv,fft",
                     "--scale", str(SCALE), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 points" in out and "simulated" in out
        assert len(list(cache.glob("*.json"))) == 2

    def test_sweep_warm_cache_dry_run(self, cache, capsys):
        assert main(["sweep", "--warm-cache", "--dry-run",
                     "--scale", str(SCALE)]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert not list(cache.glob("*.json"))   # planned, not simulated

    def test_sweep_rejects_unknown_names(self, cache):
        with pytest.raises(SystemExit):
            main(["sweep", "--schemes", "nosuchscheme"])
        with pytest.raises(SystemExit):
            main(["sweep", "--figures", "nosuchfigure"])

    def test_sweep_requires_a_selection(self, cache):
        with pytest.raises(SystemExit):
            main(["sweep"])

    def test_figure_command_prewarms_in_parallel(self, cache, capsys):
        assert main(["figure", "fig05", "--scale", str(SCALE),
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "private contiguous<=8" in out
        # fig05: 3 apps x (baseline, shared-l2)
        assert len(list(cache.glob("*.json"))) == 6


class TestCacheKnobs:
    def test_cache_dir_created_lazily(self, tmp_path, monkeypatch):
        target = tmp_path / "never-created"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
        assert cached_result(configs.baseline(), "gemv", scale=SCALE) is None
        assert not target.exists(), "a read must not create the cache dir"
        run_point(configs.baseline(), "gemv", scale=SCALE)
        assert target.is_dir(), "a write creates the cache dir on demand"

    def test_unwritable_cache_falls_back_to_no_cache(self, tmp_path,
                                                     monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("")   # a *file*: mkdir below it must fail
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        with pytest.warns(RuntimeWarning, match="REPRO_NO_CACHE behaviour"):
            first = run_point(configs.baseline(), "gemv", scale=SCALE)
        assert first.cycles > 0
        # Subsequent runs keep working (and warn only once per path).
        second = run_point(configs.baseline(), "gemv", scale=SCALE)
        assert _serialize(second) == _serialize(first)

    def test_default_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert default_jobs() == 7
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() >= 1


class TestCachePayloadCompat:
    def test_pre_histogram_payloads_still_load(self, cache):
        # Results cached before SimResult grew translation_latency have no
        # such key; they must deserialize to an empty histogram, not crash.
        fresh = run_point(configs.baseline(), "gemv", scale=SCALE)
        payload = _serialize(fresh)
        payload.pop("translation_latency")
        old = _deserialize(payload)
        assert old.cycles == fresh.cycles
        assert old.translation_latency.total() == 0

    def test_histogram_survives_cache_round_trip(self, cache):
        first = run_point(configs.baseline(), "gemv", scale=SCALE)
        assert first.translation_latency.total() > 0
        again = cached_result(configs.baseline(), "gemv", scale=SCALE)
        assert again is not None
        assert again.translation_latency == first.translation_latency

    def test_store_point_publishes_at_canonical_path(self, cache,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        result = run_point(configs.baseline(), "gemv", scale=SCALE)
        monkeypatch.delenv("REPRO_NO_CACHE")
        path = store_point(configs.baseline(), "gemv", result, scale=SCALE)
        assert path is not None and path.exists()
        served = cached_result(configs.baseline(), "gemv", scale=SCALE)
        assert _serialize(served) == _serialize(result)


def _scheme_points() -> list[SweepPoint]:
    return [SweepPoint(scheme(), app, SCALE)
            for scheme in (configs.baseline, configs.fbarre)
            for app in ("gemv", "fft")]


class TestSchedulerDeterminism:
    def test_all_schedulers_bit_identical(self, tmp_path, monkeypatch):
        """Inline (``jobs=1``) and the worker pool (``jobs=2``) produce the
        same payloads and byte-identical cache files."""
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        payloads, files = {}, {}
        for jobs in (1, 2):
            cache = tmp_path / f"jobs{jobs}"
            monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
            out = sweep(_scheme_points(), jobs=jobs, progress=False)
            assert out.stats.simulated == 4
            assert out.stats.jobs == jobs
            payloads[jobs] = [json.dumps(_serialize(r), sort_keys=True)
                              for r in out.results]
            files[jobs] = {p.name: p.read_bytes()
                           for p in cache.glob("*.json")}
        assert len(files[1]) == 4
        assert payloads[2] == payloads[1]
        assert files[2] == files[1]

    def test_affinity_sweep_matches_golden_digests(self, cache, monkeypatch):
        """Cache files written through the worker pool are byte-for-byte the
        golden payloads — the sweep engine cannot perturb a simulation."""
        from tests.test_golden_runs import GOLDEN_DIR, POINTS
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        names = ["baseline-gemv", "fbarre-gemv", "fbarre-fft", "mgvm-gemv"]
        points = [SweepPoint(POINTS[name][0](), POINTS[name][2], SCALE)
                  for name in names]
        assert sweep(points, jobs=2, progress=False).stats.jobs == 2
        for name, point in zip(names, points):
            golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
            cache_file = runner_mod.point_path(point.config, point.abbr,
                                               SCALE)
            assert cache_file.exists()
            got = hashlib.sha256(cache_file.read_bytes()).hexdigest()
            assert got == golden["cache_payload_sha256"], (
                f"{name}: sweep-written cache file diverges from golden")

    def test_rejects_unknown_scheduler(self, cache, monkeypatch):
        """There is no scheduler knob: the argument is a TypeError and a
        stale ``REPRO_SCHEDULER`` in the environment changes nothing."""
        with pytest.raises(TypeError, match="scheduler"):
            sweep(_scheme_points(), progress=False, scheduler="affinity")
        monkeypatch.setenv("REPRO_SCHEDULER", "bogus")
        out = sweep(_scheme_points()[:1], jobs=1, progress=False)
        assert out.stats.simulated == 1


class TestSweepStats:
    def test_jobs_reports_actual_worker_count(self, cache):
        out = sweep([SweepPoint(configs.baseline(), "gemv", SCALE)],
                    jobs=16, progress=False)
        assert out.stats.jobs == 1, "a single miss runs inline, not on 16"
        assert "jobs=1" in out.stats.describe()

    def test_memo_hits_and_point_seconds_reported(self, cache):
        from repro.gpu import mcm
        mcm.TRACE_MEMO.clear()   # earlier in-process tests may have warmed it
        points = [SweepPoint(configs.baseline(), "gemv", SCALE),
                  SweepPoint(configs.fbarre(), "gemv", SCALE)]
        out = sweep(points, jobs=1, progress=False)
        # Both configs share (app, seed, scale): one build, one memo hit.
        assert out.stats.memo_hits >= 1
        assert out.stats.memo_misses >= 1
        assert set(out.stats.point_seconds) == {p.key() for p in points}
        assert all(s > 0 for s in out.stats.point_seconds.values())
        assert "trace-memo" in out.stats.describe()

    def test_pool_width_clamps_to_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_OVERSUBSCRIBE", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert _pool_width(jobs=8, misses=8) == 2
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        assert _pool_width(jobs=8, misses=8) == 8
        assert _pool_width(jobs=8, misses=3) == 3

    def test_steals_explicitly_zero_for_non_stealing_schedulers(
            self, cache):
        """The inline path has no peer queue to steal from: steals stay 0
        and the stats line does not mention stealing."""
        out = sweep(_scheme_points(), jobs=1, progress=False)
        assert out.stats.steals == 0
        assert "stolen" not in out.stats.describe()

    def test_steals_is_an_int_for_every_scheduler(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        for jobs in (1, 2):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"j{jobs}"))
            out = sweep(_scheme_points(), jobs=jobs, progress=False)
            assert out.stats.jobs == jobs
            assert isinstance(out.stats.steals, int), jobs
            assert 0 <= out.stats.steals <= 4, jobs


class TestPool:
    def test_pool_worker_failure_reaches_caller(self, cache, monkeypatch):
        """A point raising inside a pool worker surfaces in the parent as
        RuntimeError carrying the worker's traceback."""
        def boom(point):
            raise ValueError("injected point failure")

        # Workers fork from this process, so the patch rides along.
        monkeypatch.setattr(sweep_mod, "_run_inline", boom)
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        with pytest.raises(RuntimeError, match="sweep worker failed") as err:
            sweep(_scheme_points(), jobs=2, progress=False)
        assert "Traceback (most recent call last)" in str(err.value)
        assert "ValueError: injected point failure" in str(err.value)

    def test_cancel_releases_fill_locks(self, cache, monkeypatch):
        """A pool stopped mid-point terminates its workers after the join
        grace; each must release its per-key fill lock, so a re-sweep
        simulates the points instead of waiting out REPRO_LOCK_STALE on
        dead locks.  The stop comes from the failure path: one point
        raises while the other sleeps inside its simulation."""
        real_run = McmGpuSimulator.run

        def fail_or_sleep(sim_self):
            if sim_self.workloads[0].abbr == "fft":
                # Raise only once the sleeper holds its lock too (2 locks).
                deadline = time.monotonic() + 30
                while len(list(cache.glob("*.lock"))) < 2:
                    if time.monotonic() > deadline:
                        break
                    time.sleep(0.05)
                raise ValueError("injected point failure")
            time.sleep(60)
            return real_run(sim_self)

        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        monkeypatch.setenv("REPRO_LOCK_STALE", "600")
        monkeypatch.setattr(sweep_mod, "_JOIN_GRACE_S", 0.5)
        monkeypatch.setattr(McmGpuSimulator, "run", fail_or_sleep)
        survivor = SweepPoint(configs.baseline(), "gemv", SCALE)
        points = [survivor, SweepPoint(configs.baseline(), "fft", SCALE)]
        with pytest.raises(RuntimeError, match="injected point failure"):
            sweep(points, jobs=2, progress=False)
        assert not list(cache.glob("*.lock")), "a fill lock was left behind"

        monkeypatch.setattr(McmGpuSimulator, "run", real_run)
        start = time.monotonic()
        outcome = sweep([survivor], jobs=1, progress=False)
        assert outcome.stats.simulated == 1
        assert time.monotonic() - start < 60


class TestCostModel:
    def test_timings_come_from_key_manifests(self, cache):
        point = SweepPoint(configs.baseline(), "gemv", SCALE)
        run_point(point.config, "gemv", scale=SCALE)       # outside sweep()
        timings = load_timings()
        assert list(timings) == [point_digest(point.key())]
        assert timings[point_digest(point.key())]["app"] == "gemv"
        assert timings[point_digest(point.key())]["seconds"] > 0
        # Manifests live under meta/ and do not count as cache files.
        assert len(list(cache.glob("*.json"))) == 1
        # A traced fill records no seconds, so it is not a measurement.
        traced = SweepPoint(configs.fbarre(), "gemv", SCALE)
        store_point(traced.config, "gemv",
                    McmGpuSimulator(traced.config, [get_workload("gemv")],
                                    trace_scale=SCALE, trace=True).run(),
                    scale=SCALE)
        assert list(load_timings()) == [point_digest(point.key())]

    def test_undecodable_manifest_is_skipped(self, cache):
        """A torn manifest (crash mid-write on a filesystem without
        ordered writes) is skipped without a warning: that point plans
        like one never measured."""
        gemv, fft, atax = (SweepPoint(configs.baseline(), app, SCALE)
                           for app in ("gemv", "fft", "atax"))
        _seed_manifests(cache, [(gemv, 2.0), (fft, 9.0), (atax, 3.0)])
        keys = cache / "meta" / "keys"
        torn = keys / f"{point_digest(fft.key())}.json"
        torn.write_text(torn.read_text()[:10])
        (keys / f"{point_digest(atax.key())}.json").write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            timings = load_timings()
            plan = plan_misses([(fft.key(), fft)], workers=1)
        assert list(timings) == [point_digest(gemv.key())]
        assert (plan[0].source, plan[0].est_seconds) == ("suite-median", 2.0)

    def test_sweep_records_measured_timings(self, cache):
        point = SweepPoint(configs.baseline(), "gemv", SCALE)
        out = sweep([point], progress=False)
        entry = load_timings()[point_digest(point.key())]
        assert entry["app"] == "gemv"
        # The manifest times the simulation; the sweep also counts the
        # cache write around it.
        assert 0 < entry["seconds"] <= out.stats.point_seconds[point.key()]

    def test_pool_fill_records_seconds(self, cache, monkeypatch):
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        points = [SweepPoint(configs.baseline(), app, SCALE)
                  for app in ("gemv", "fft")]
        out = sweep(points, jobs=2, progress=False)
        assert out.stats.jobs == 2
        timings = load_timings()
        for point in points:
            assert timings[point_digest(point.key())]["seconds"] > 0

    def test_plan_orders_longest_first_from_measurements(self, cache):
        points = [SweepPoint(configs.baseline(), app, SCALE)
                  for app in ("gemv", "fft", "atax")]
        _seed_manifests(cache, zip(points, (0.5, 9.0, 3.0)))
        plan = plan_misses([(p.key(), p) for p in points], workers=1)
        assert [pp.point.abbr for pp in plan] == ["fft", "atax", "gemv"]
        assert all(pp.source == "measured" for pp in plan)
        assert [pp.est_seconds for pp in plan] == [9.0, 3.0, 0.5]

    def test_plan_estimate_fallback_chain(self, cache):
        seen = SweepPoint(configs.baseline(), "gemv", SCALE)
        _seed_manifests(cache, [(seen, 2.0)])
        # Same app, different config: falls back to the app median.
        sibling = SweepPoint(configs.fbarre(), "gemv", SCALE)
        # App never measured: falls back to the suite median.
        stranger = SweepPoint(configs.baseline(), "fft", SCALE)
        plan = plan_misses([(seen.key(), seen), (sibling.key(), sibling),
                            (stranger.key(), stranger)], workers=1)
        by_source = {pp.source: pp for pp in plan}
        assert by_source["measured"].point is seen
        assert by_source["app-median"].point is sibling
        assert by_source["app-median"].est_seconds == 2.0
        assert by_source["suite-median"].point is stranger

    def test_plan_default_cost_when_no_history(self, cache):
        point = SweepPoint(configs.baseline(), "gemv", SCALE)
        plan = plan_misses([(point.key(), point)], workers=1)
        assert plan[0].source == "default"

    def test_dry_run_exposes_plan(self, cache):
        out = sweep(_scheme_points(), progress=False, dry_run=True)
        assert len(out.plan) == 4
        assert all(r is None for r in out.results)
        assert out.stats.simulated == 0

    def test_affinity_groups_stay_on_one_worker(self, cache):
        plan = plan_misses([(p.key(), p) for p in _scheme_points()],
                           workers=2)
        worker_of: dict[tuple, set[int]] = {}
        for pp in plan:
            worker_of.setdefault(pp.point.group(), set()).add(pp.worker)
        assert all(len(ws) == 1 for ws in worker_of.values()), (
            "an affinity group was split across workers")
        assert len(worker_of) == 2   # gemv and fft groups


def _seed_manifests(cache: Path, measured) -> None:
    """Write a key manifest with measured seconds per ``(point, seconds)``."""
    keys = cache / "meta" / "keys"
    keys.mkdir(parents=True, exist_ok=True)
    for point, seconds in measured:
        (keys / f"{point_digest(point.key())}.json").write_text(
            json.dumps({"app": point.abbr, "seconds": seconds}))


class TestTornCacheFile:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "pool"])
    @pytest.mark.parametrize("cut", ["empty", "half"])
    def test_torn_file_is_moved_aside_and_refilled(self, cache, monkeypatch,
                                                   cut, jobs):
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        torn = SweepPoint(configs.baseline(), "gemv", SCALE)
        path = runner_mod.point_path(torn.config, "gemv", SCALE)
        sweep([torn], jobs=1, progress=False)
        clean = path.read_bytes()
        bad = b"" if cut == "empty" else clean[:len(clean) // 2]
        path.write_bytes(bad)
        assert cached_result(torn.config, "gemv", SCALE) is None

        # Pool case: a second miss sends jobs=2 down the worker pool, so
        # a worker process quarantines and refills the torn file.
        points = [torn] + ([SweepPoint(configs.baseline(), "fft", SCALE)]
                           if jobs == 2 else [])
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            out = sweep(points, jobs=jobs, progress=False)
        assert out.stats.jobs == jobs
        assert out.stats.simulated == len(points)
        assert path.read_bytes() == clean
        assert path.with_suffix(".corrupt").read_bytes() == bad
        assert json.dumps(_serialize(out.results[0])).encode() == clean
        if jobs == 1:
            (warning,) = [w for w in record
                          if issubclass(w.category, RuntimeWarning)]
            assert f"{path.stem}.corrupt" in str(warning.message)

    def test_lock_waiter_treats_torn_file_as_absent(self, cache,
                                                    monkeypatch):
        """Only the lock holder quarantines: a waiter that sees a torn
        file keeps waiting and then reads the holder's result."""
        cfg = configs.baseline()
        path = runner_mod.point_path(cfg, "gemv", SCALE)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")
        lock = path.with_suffix(".lock")
        lock.touch()   # somebody else holds the fill lock
        sleeps: list[float] = []

        def fake_sleep(seconds: float) -> None:
            sleeps.append(seconds)
            if len(sleeps) == 3:   # the holder publishes and releases
                runner_mod._atomic_write(path,
                                         runner_mod._stub_result("gemv"))
                lock.unlink()

        monkeypatch.setattr(time, "sleep", fake_sleep)
        before = runner_mod.SIMULATIONS
        result = run_point(cfg, "gemv", scale=SCALE)
        assert result.backend == "stub"
        assert runner_mod.SIMULATIONS == before
        assert len(sleeps) == 3
        assert not path.with_suffix(".corrupt").exists()


class TestProgressEta:
    def test_eta_excludes_future_cache_hits(self, capsys):
        reporter = _Progress(total=4, cached=2, enabled=True)
        reporter.start = time.perf_counter() - 10.0   # 10s elapsed
        reporter.update(done=3, running=1)            # 1 miss done, 1 left
        err = capsys.readouterr().err
        assert "3/4 points" in err
        # Rate 10s/miss x 1 remaining miss — not x3 for total remaining.
        match = re.search(r"ETA (\d+)s", err)
        assert match is not None
        assert 8 <= int(match.group(1)) <= 12

    def test_no_eta_before_first_miss_completes(self, capsys):
        reporter = _Progress(total=4, cached=2, enabled=True)
        reporter.update(done=2, running=2)
        assert "ETA" not in capsys.readouterr().err

    def test_all_cached_first_update_reports_eta_zero(self, capsys):
        """Every point a cache hit in the first reporting interval: the
        ETA is an honest 0, never inf or a ZeroDivisionError."""
        reporter = _Progress(total=3, cached=3, enabled=True)
        assert reporter.eta(done=3, running=0) == 0.0
        reporter.update(done=3, running=0)
        assert "ETA 0s" in capsys.readouterr().err

    def test_serial_sweep_emits_final_update(self, cache, capsys):
        sweep([SweepPoint(configs.baseline(), "gemv", SCALE)],
              jobs=1, progress=True)
        err = capsys.readouterr().err
        assert "1/1 points" in err, "the line froze one point short"


class TestLockBackoff:
    def test_loser_backs_off_exponentially_to_cap(self, cache, monkeypatch):
        cfg = configs.baseline()
        path = runner_mod.point_path(cfg, "gemv", SCALE)
        path.parent.mkdir(parents=True, exist_ok=True)
        lock = path.with_suffix(".lock")
        lock.touch()   # somebody else holds the fill lock
        delays: list[float] = []

        def fake_sleep(seconds: float) -> None:
            delays.append(seconds)
            if len(delays) == 10:   # the winner publishes and releases
                runner_mod._atomic_write(path,
                                         runner_mod._stub_result("gemv"))
                lock.unlink()

        monkeypatch.setattr(time, "sleep", fake_sleep)
        result = run_point(cfg, "gemv", scale=SCALE)
        assert result.app == "gemv"
        assert delays[:4] == [0.002, 0.004, 0.008, 0.016], (
            "backoff must start fast and double")
        assert max(delays) == 0.25, "backoff must cap, not grow unbounded"
        assert delays[-1] == 0.25


def _sweep_same_point(cache_dir: str, out_path: str, jobs: int,
                      private_app: str | None) -> None:
    """Subprocess entry: sweep the shared gemv point (plus ``private_app``,
    so two misses send ``jobs=2`` down the pool path) and dump the shared
    point's payload with the worker count the sweep used."""
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    apps = ["gemv"] + ([private_app] if private_app else [])
    out = sweep([SweepPoint(configs.baseline(), app, SCALE) for app in apps],
                jobs=jobs, progress=False)
    Path(out_path).write_text(json.dumps(
        {"jobs": out.stats.jobs, "gemv": _serialize(out.results[0])},
        sort_keys=True))


class TestConcurrentSameKeyFill:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "pool"])
    def test_two_processes_filling_one_key_simulate_once(
            self, cache, tmp_path, monkeypatch, jobs):
        """Two independent sweeps race on the *same* cache key: the
        per-key lockfile (with its capped backoff) must collapse them to
        one simulation, on the inline path and inside pool workers."""
        log = tmp_path / "simulations.log"

        real_run = McmGpuSimulator.run

        def counting_run(sim_self):
            with open(log, "a") as fh:      # O_APPEND: atomic small write
                fh.write(f"{sim_self.workloads[0].abbr}\n")
            time.sleep(0.3)                 # widen the race window
            return real_run(sim_self)

        # The racing sweeps fork from this process, so the patch (and the
        # log path) ride into every worker they spawn.
        monkeypatch.setattr(McmGpuSimulator, "run", counting_run)
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        private = ["fft", "spmv"] if jobs > 1 else [None, None]
        ctx = multiprocessing.get_context("fork")
        outs = [tmp_path / f"result-{i}.json" for i in range(2)]
        procs = [ctx.Process(target=_sweep_same_point,
                             args=(str(cache), str(out), jobs, app))
                 for out, app in zip(outs, private)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=180)
        assert all(p.exitcode == 0 for p in procs), (
            f"racing sweep crashed: {[p.exitcode for p in procs]}")
        assert log.read_text().split().count("gemv") == 1, (
            "the same key was simulated more than once across processes")
        payloads = [json.loads(out.read_text()) for out in outs]
        assert [p["jobs"] for p in payloads] == [jobs, jobs], (
            "the race did not run on the intended path")
        assert payloads[0]["gemv"] == payloads[1]["gemv"]
        assert not list(cache.glob("*.lock")), "stale lockfile left behind"


class TestDocsMatchCode:
    def test_every_documented_knob_exists_in_source(self):
        doc = (REPO / "docs" / "performance.md").read_text()
        knobs = set(re.findall(r"REPRO_[A-Z_]+", doc))
        # The operations guide must cover at least the core knobs.
        assert {"REPRO_JOBS", "REPRO_BENCH_SCALE", "REPRO_CACHE_DIR",
                "REPRO_NO_CACHE"} <= knobs
        source = "".join(p.read_text()
                         for p in (REPO / "src").rglob("*.py"))
        for knob in sorted(knobs):
            assert knob in source, (
                f"docs/performance.md documents {knob} but no code reads it")
