"""Distributed sweep backend: wire codec, claim queue, reclaim, contention."""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.experiments import configs
from repro.experiments import runner as runner_mod
from repro.experiments.distributed import (
    DistributedBackend,
    _claim_group,
    _Heartbeat,
    claim_stale_s,
    config_from_wire,
    local_worker_count,
    point_from_wire,
    point_to_wire,
    run_worker,
)
from repro.experiments.runner import _serialize
from repro.experiments.sweep import (
    SCHEDULERS,
    SweepPoint,
    SweepStats,
    sweep,
)
from repro.gpu.mcm import McmGpuSimulator
from repro.workloads.suite import get_workload

SCALE = 0.05


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_DISTRIBUTED_LOCAL", raising=False)
    return tmp_path


def _points() -> list[SweepPoint]:
    return [SweepPoint(scheme(), app, SCALE)
            for scheme in (configs.baseline, configs.fbarre)
            for app in ("gemv", "fft")]


class TestWireCodec:
    @pytest.mark.parametrize("factory", [configs.baseline, configs.barre,
                                         configs.fbarre, configs.mgvm,
                                         configs.valkyrie])
    def test_config_round_trip_is_exact(self, factory):
        config = factory()
        wired = json.loads(json.dumps(runner_mod.encode_config(config)))
        assert config_from_wire(wired) == config

    def test_round_trip_preserves_the_cache_key(self, cache):
        point = SweepPoint(configs.fbarre(), "gemv", SCALE,
                           workload_tag="x16")
        again = point_from_wire(json.loads(json.dumps(point_to_wire(point))))
        assert again.key() == point.key()

    def test_pair_points_travel(self, cache):
        point = SweepPoint(configs.baseline(), "gemv", SCALE,
                           pair_with="fft")
        again = point_from_wire(point_to_wire(point))
        assert again.pair_with == "fft"
        assert again.key() == point.key()

    def test_scale_is_pinned_by_the_coordinator(self, cache, monkeypatch):
        """A worker with a different REPRO_BENCH_SCALE must compute the
        same key: the wire carries the resolved scale, never None."""
        point = SweepPoint(configs.baseline(), "gemv", scale=None)
        wire = point_to_wire(point)
        key_at_publish = point.key()
        assert wire["scale"] == point.resolved_scale()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.9")
        assert point_from_wire(wire).key() == key_at_publish

    def test_workload_object_points_cannot_travel(self, cache):
        workload = get_workload("gemv")
        point = SweepPoint(configs.baseline(), workload, SCALE)
        assert point_to_wire(point) is None


class TestQueueProtocol:
    def _sweep_dir(self, tmp_path: Path) -> Path:
        d = tmp_path / "meta" / "queue" / "s1"
        for sub in ("groups", "claims", "done"):
            (d / sub).mkdir(parents=True)
        return d

    def test_claims_are_exclusive(self, tmp_path):
        d = self._sweep_dir(tmp_path)
        assert _claim_group(d, "g1", "worker-a") is not None
        assert _claim_group(d, "g1", "worker-b") is None

    def test_heartbeat_refreshes_claim_mtime(self, tmp_path):
        d = self._sweep_dir(tmp_path)
        claim = _claim_group(d, "g1", "worker-a")
        old = time.time() - 120
        os.utime(claim, (old, old))
        beat = _Heartbeat(claim, interval=0.02)
        beat.start()
        time.sleep(0.1)
        beat.stop()
        assert time.time() - claim.stat().st_mtime < 60

    def test_reclaim_frees_stale_claims_and_counts_steals(self, tmp_path):
        d = self._sweep_dir(tmp_path)
        claim = _claim_group(d, "g1", "dead-worker")
        old = time.time() - 3600
        os.utime(claim, (old, old))
        fresh = _claim_group(d, "g2", "live-worker")
        stats = SweepStats()
        events: list[dict] = []
        DistributedBackend()._reclaim(d, stale_s=30.0, stats=stats,
                                      events=events.append)
        assert not claim.exists(), "the stale claim must be freed"
        assert fresh.exists(), "a heartbeating claim must be left alone"
        assert stats.steals == 1
        assert events and events[0]["event"] == "group_reclaimed"
        assert events[0]["worker"] == "dead-worker"

    def test_claim_stale_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLAIM_STALE", "7.5")
        assert claim_stale_s() == 7.5

    def test_local_worker_count_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISTRIBUTED_LOCAL", raising=False)
        assert local_worker_count(3) == 3
        monkeypatch.setenv("REPRO_DISTRIBUTED_LOCAL", "0")
        assert local_worker_count(3) == 0

    def test_worker_once_with_empty_queue_exits_clean(self, cache):
        stats = run_worker(worker_id="w1", cache_dir=str(cache), once=True)
        assert stats["groups"] == 0
        assert stats["points"] == 0

    def test_worker_requires_a_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        with pytest.raises(RuntimeError, match="cache directory"):
            run_worker(worker_id="w1", once=True)


class TestDistributedSweep:
    def test_matches_serial_bit_for_bit(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        caches = {}
        for scheduler in ("serial", "distributed"):
            cache = tmp_path / scheduler
            monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
            out = sweep(_points(), jobs=2, progress=False,
                        scheduler=scheduler)
            assert all(r is not None for r in out.results)
            caches[scheduler] = {p.name: p.read_bytes()
                                 for p in cache.glob("*.json")}
        assert caches["serial"] == caches["distributed"]
        assert len(caches["serial"]) == 4

    def test_second_run_is_all_cache_hits(self, cache):
        points = _points()
        sweep(points, jobs=2, progress=False, scheduler="distributed")
        out = sweep(points, jobs=2, progress=False, scheduler="distributed")
        assert out.stats.cached == 4
        assert out.stats.simulated == 0

    def test_queue_dir_is_cleaned_up(self, cache):
        sweep(_points()[:1], jobs=1, progress=False,
              scheduler="distributed")
        queue = cache / "meta" / "queue"
        assert not queue.exists() or not list(queue.iterdir())

    def test_workers_record_timings_under_their_host(self, cache,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_HOST_ID", "coordinator-host")
        point = _points()[0]
        sweep([point], jobs=1, progress=False, scheduler="distributed")
        entry = runner_mod.load_timings()[
            runner_mod.point_digest(point.key())]
        # The local helper forks from this process, so it shares the
        # REPRO_HOST_ID override — the measurement lands under it.
        assert entry["hosts"] == {
            "coordinator-host": pytest.approx(entry["seconds"], abs=0.01)}

    def test_worker_failure_propagates_with_traceback(self, cache,
                                                      monkeypatch):
        def boom(point):
            raise RuntimeError("injected point failure")

        # Local helpers fork from this process, so the patch rides along.
        monkeypatch.setattr("repro.experiments.distributed._run_inline",
                            boom)
        with pytest.raises(RuntimeError,
                           match="injected point failure"):
            sweep(_points()[:1], jobs=1, progress=False,
                  scheduler="distributed")

    def test_requires_a_writable_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        with pytest.raises(RuntimeError, match="shared result cache"):
            sweep(_points()[:1], jobs=1, progress=False,
                  scheduler="distributed")

    def test_events_cover_publish_and_finish(self, cache):
        events: list[dict] = []
        sweep(_points()[:2], jobs=1, progress=False,
              scheduler="distributed", events=events.append)
        kinds = [e["event"] for e in events]
        assert "queue_published" in kinds
        assert kinds.count("point_finish") == 2
        published = next(e for e in events
                         if e["event"] == "queue_published")
        assert published["points"] == 2


def _sweep_same_point(scheduler: str, cache_dir: str, out_path: str) -> None:
    """Subprocess entry: sweep one fixed point, dump its payload."""
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    out = sweep([SweepPoint(configs.baseline(), "gemv", SCALE)],
                jobs=1, progress=False, scheduler=scheduler)
    Path(out_path).write_text(
        json.dumps(_serialize(out.results[0]), sort_keys=True))


class TestConcurrentSameKeyFill:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_two_processes_filling_one_key_simulate_once(
            self, cache, tmp_path, monkeypatch, scheduler):
        """Two independent sweeps race on the *same* cache key: the
        per-key lockfile (with its capped backoff) must collapse them to
        one simulation, for every backend — including two distributed
        coordinators whose worker fleets collide on a key."""
        log = tmp_path / "simulations.log"

        real_run = McmGpuSimulator.run

        def counting_run(sim_self):
            with open(log, "a") as fh:      # O_APPEND: atomic small write
                fh.write("sim\n")
            time.sleep(0.3)                 # widen the race window
            return real_run(sim_self)

        # The racing sweeps fork from this process, so the patch (and the
        # log path) ride into every worker they spawn.
        monkeypatch.setattr(McmGpuSimulator, "run", counting_run)
        ctx = multiprocessing.get_context("fork")
        outs = [tmp_path / f"result-{i}.json" for i in range(2)]
        procs = [ctx.Process(target=_sweep_same_point,
                             args=(scheduler, str(cache), str(out)))
                 for out in outs]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=180)
        assert all(p.exitcode == 0 for p in procs), (
            f"racing sweep crashed: {[p.exitcode for p in procs]}")
        assert log.read_text().count("sim") == 1, (
            "the same key was simulated more than once across processes")
        payloads = [out.read_text() for out in outs]
        assert payloads[0] == payloads[1]
        assert not list(cache.glob("*.lock")), "stale lockfile left behind"
