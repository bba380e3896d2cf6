"""Route-level tests for the simulation-as-a-service job API.

Each test boots the real asyncio server (``BackgroundServer``) on an
ephemeral port and talks plain HTTP through urllib — the same framing a
curl client uses — so these cover the transport, routing, schemas,
the job lifecycle, and the shared-cache guarantees end to end.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.experiments import configs
from repro.experiments import runner as runner_mod
from repro.experiments.sweep import SweepJob, SweepPoint, sweep
from repro.gpu.mcm import McmGpuSimulator
from repro.service import (
    BackgroundServer,
    JobStore,
    ServiceApp,
)

SCALE = 0.05
TERMINAL = ("completed", "failed", "cancelled")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return tmp_path


@pytest.fixture
def make_service(cache):
    """Factory for (server, store) pairs; everything torn down at exit."""
    live = []

    def _make():
        store = JobStore(job_slots=1, sweep_jobs=1)
        server = BackgroundServer(ServiceApp(store)).start()
        live.append((server, store))
        return server, store

    yield _make
    for server, store in live:
        store.begin_shutdown("cancel")
        store.drain()
        server.stop()


@pytest.fixture
def slow_sim(monkeypatch):
    """Make every simulation take >=0.25s so tests can race it reliably."""
    real = McmGpuSimulator.run

    def slow(self):
        time.sleep(0.25)
        return real(self)

    monkeypatch.setattr(McmGpuSimulator, "run", slow)


def request(base, method, path, body=None, token=None):
    """One HTTP round trip -> (status, headers, bytes)."""
    headers = {"Content-Type": "application/json"}
    if token:
        headers["X-Repro-Token"] = token
    req = urllib.request.Request(
        base + path, method=method, headers=headers,
        data=json.dumps(body).encode() if body is not None else None)
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def poll_job(base, job_id, timeout=90.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, body = request(base, "GET", f"/jobs/{job_id}")
        assert status == 200
        job = json.loads(body)
        if job["state"] in TERMINAL:
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


def gemv_point(scheme="baseline"):
    return {"scheme": scheme, "app": "gemv", "scale": SCALE}


class TestBasics:
    def test_healthz_and_meta(self, make_service):
        server, _ = make_service()
        status, _, body = request(server.base_url, "GET", "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, _, body = request(server.base_url, "GET", "/meta")
        meta = json.loads(body)
        assert status == 200
        assert "gemv" in meta["apps"]
        assert "fbarre" in meta["schemes"]
        assert "fig15" in meta["figures"]
        assert "schedulers" not in meta

    def test_unknown_route_404_and_wrong_method_405(self, make_service):
        server, _ = make_service()
        assert request(server.base_url, "GET", "/nope")[0] == 404
        assert request(server.base_url, "DELETE", "/healthz")[0] == 405

    def test_unknown_job_and_result_404(self, make_service):
        server, _ = make_service()
        assert request(server.base_url, "GET", "/jobs/j999999")[0] == 404
        assert request(server.base_url, "DELETE", "/jobs/j999999")[0] == 404
        # Well-formed digest, never simulated:
        assert request(server.base_url, "GET",
                       "/results/" + "0" * 24)[0] == 404
        # Malformed digest must not touch the filesystem:
        assert request(server.base_url, "GET",
                       "/results/../etc/passwd")[0] == 404

    def test_schema_errors_are_400_with_reason(self, make_service):
        server, _ = make_service()
        cases = [
            ({"points": [{"scheme": "nosuch", "app": "gemv"}]}, "scheme"),
            ({"points": [{"scheme": "barre", "app": "nosuch"}]}, "app"),
            ({"figure": "fig999"}, "figure"),
            ({"points": [], }, "non-empty"),
            ({"figure": "fig05", "points": [gemv_point()]}, "exactly one"),
            ({"points": [gemv_point()], "scale": 99}, "out of range"),
            ({"validate": {"schemes": ["nosuch"]}}, "validate.schemes"),
            ({"validate": {"schemes": ["ats"], "engine": "event"}},
             "unknown validate field(s): engine"),
            ({"points": [gemv_point()], "scheduler": "affinity"},
             "unknown job field(s): scheduler"),
            ({}, "exactly one"),
        ]
        for payload, needle in cases:
            status, _, body = request(server.base_url, "POST", "/jobs",
                                      payload)
            assert status == 400, payload
            assert needle in json.loads(body)["error"]

    def test_non_json_body_is_400(self, make_service):
        server, _ = make_service()
        req = urllib.request.Request(server.base_url + "/jobs",
                                     method="POST", data=b"not json {")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400


class TestJobLifecycle:
    def test_submit_poll_fetch_happy_path(self, cache, make_service):
        server, _ = make_service()
        status, _, body = request(server.base_url, "POST", "/jobs",
                                  {"points": [gemv_point()]})
        assert status == 202
        submitted = json.loads(body)
        assert submitted["state"] in ("queued", "running")
        assert submitted["kind"] == "points"

        job = poll_job(server.base_url, submitted["id"])
        assert job["state"] == "completed"
        assert job["progress"]["done"] == job["progress"]["total"] == 1
        entry = job["result"]["points"][0]
        assert entry["app"] == "gemv" and entry["simulated"] is True
        assert job["result"]["stats"]["simulated"] == 1

        status, _, payload = request(server.base_url, "GET",
                                     entry["result_url"])
        assert status == 200
        cache_file = next(cache.glob(f"*-{entry['digest']}.json"))
        assert payload == cache_file.read_bytes(), (
            "HTTP result bytes diverge from the cache file")

        # The job shows up in the listing.
        _, _, body = request(server.base_url, "GET", "/jobs")
        assert [j["id"] for j in json.loads(body)["jobs"]] == [job["id"]]

    def test_cached_job_serves_cli_result_without_resimulation(
            self, cache, make_service, monkeypatch):
        from repro.cli import main
        assert main(["sweep", "--schemes", "baseline", "--apps", "gemv",
                     "--scale", str(SCALE), "--jobs", "1"]) == 0
        cli_file = next(cache.glob("*.json"))
        cli_bytes = cli_file.read_bytes()

        # Any simulation now would be a bug — make one impossible to miss.
        def boom(self):
            raise AssertionError("cache hit expected; simulator invoked")
        monkeypatch.setattr(McmGpuSimulator, "run", boom)

        server, _ = make_service()
        _, _, body = request(server.base_url, "POST", "/jobs",
                             {"points": [gemv_point()]})
        job = poll_job(server.base_url, json.loads(body)["id"])
        assert job["state"] == "completed"
        entry = job["result"]["points"][0]
        assert entry["simulated"] is False
        assert job["result"]["stats"]["cached"] == 1
        assert job["result"]["stats"]["simulated"] == 0
        _, _, payload = request(server.base_url, "GET", entry["result_url"])
        assert payload == cli_bytes, (
            "service payload is not byte-identical to the CLI cache fill")

    def test_figure_job_runs_and_reports_output(self, cache, make_service):
        server, _ = make_service()
        _, _, body = request(server.base_url, "POST", "/jobs",
                             {"figure": "fig05", "scale": SCALE})
        job = poll_job(server.base_url, json.loads(body)["id"], timeout=180)
        assert job["state"] == "completed"
        assert job["result"]["figure"] == "fig05"
        assert "output" in job["result"]
        # fig05: 3 apps x (baseline, shared-l2) = 6 points, all cached now.
        assert len(job["result"]["points"]) == 6
        assert len(list(cache.glob("*.json"))) == 6

    def test_validate_job(self, cache, make_service):
        server, _ = make_service()
        _, _, body = request(
            server.base_url, "POST", "/jobs",
            {"validate": {"schemes": ["barre"], "seeds": 1}, "scale": 0.5})
        job = poll_job(server.base_url, json.loads(body)["id"], timeout=180)
        assert job["state"] == "completed"
        assert job["result"]["ok"] is True
        assert "accesses checked" in job["result"]["summary"]

    def test_cancel_running_job_is_point_boundary_deterministic(
            self, cache, make_service, slow_sim):
        server, _ = make_service()
        points = [{"scheme": s, "app": a, "scale": SCALE}
                  for s in ("baseline", "fbarre") for a in ("gemv", "fft")]
        _, _, body = request(server.base_url, "POST", "/jobs",
                             {"points": points})
        job_id = json.loads(body)["id"]
        time.sleep(0.4)     # let at least one slow point finish
        status, _, _ = request(server.base_url, "DELETE", f"/jobs/{job_id}")
        assert status == 200
        job = poll_job(server.base_url, job_id)
        assert job["state"] == "cancelled"
        assert "cancelled" in job["error"]
        # Whatever finished before the cancel is durable in the cache and
        # never torn: every file is complete, loadable JSON.
        files = list(cache.glob("*.json"))
        assert len(files) < 4
        for path in files:
            json.loads(path.read_text())
        assert not list(cache.glob("*.lock"))


class TestSharedCache:
    def test_http_job_and_cli_sweep_share_one_cache(self, cache,
                                                    make_service):
        """A service job and a concurrent CLI-style sweep overlap on one
        point; the lockfile discipline must let both finish with exactly
        one simulation per unique point."""
        server, _ = make_service()
        service_points = [gemv_point(), {"scheme": "baseline", "app": "fft",
                                         "scale": SCALE}]
        cli_points = [SweepPoint(configs.baseline(), "fft", SCALE),
                      SweepPoint(configs.baseline(), "spmv", SCALE)]

        _, _, body = request(server.base_url, "POST", "/jobs",
                             {"points": service_points})
        job_id = json.loads(body)["id"]
        cli_outcome = {}
        thread = threading.Thread(
            target=lambda: cli_outcome.update(
                out=sweep(cli_points, jobs=1, progress=False)))
        thread.start()
        job = poll_job(server.base_url, job_id)
        thread.join(timeout=120)
        assert job["state"] == "completed"
        assert all(r is not None for r in cli_outcome["out"].results)
        # gemv, fft, spmv — fft simulated once despite both clients.
        assert len(list(cache.glob("*.json"))) == 3
        assert not list(cache.glob("*.lock"))
        assert not list(cache.glob("*.tmp"))
        fft_digest = runner_mod.point_digest(cli_points[0].key())
        _, _, payload = request(server.base_url, "GET",
                                f"/results/{fft_digest}")
        assert payload == next(cache.glob(f"*-{fft_digest}.json")).read_bytes()


class TestShutdown:
    def test_drain_finishes_inflight_and_rejects_new(self, cache,
                                                     make_service,
                                                     slow_sim):
        server, store = make_service()
        _, _, body = request(server.base_url, "POST", "/jobs",
                             {"points": [gemv_point()]})
        job_id = json.loads(body)["id"]
        store.begin_shutdown("drain")
        status, _, body = request(server.base_url, "POST", "/jobs",
                                  {"points": [gemv_point("barre")]})
        assert status == 503
        assert "shutting down" in json.loads(body)["error"]
        status, _, body = request(server.base_url, "GET", "/healthz")
        assert json.loads(body)["status"] == "shutting-down"
        store.drain()
        job = poll_job(server.base_url, job_id)
        assert job["state"] == "completed", "drain must finish in-flight jobs"

    def test_cancel_mode_stops_jobs_at_point_boundaries(self, cache,
                                                        make_service,
                                                        slow_sim):
        server, store = make_service()
        points = [{"scheme": s, "app": "gemv", "scale": SCALE}
                  for s in ("baseline", "barre", "fbarre", "least")]
        _, _, body = request(server.base_url, "POST", "/jobs",
                             {"points": points})
        job_id = json.loads(body)["id"]
        time.sleep(0.3)
        store.begin_shutdown("cancel")
        store.drain()
        _, _, body = request(server.base_url, "GET", f"/jobs/{job_id}")
        assert json.loads(body)["state"] == "cancelled"
        for path in cache.glob("*.json"):    # nothing torn
            json.loads(path.read_text())


class TestSweepJobHandle:
    """The service's unit of work, exercised directly (no HTTP)."""

    def test_run_completes_and_snapshot_reports(self, cache):
        job = SweepJob([SweepPoint(configs.baseline(), "gemv", SCALE)],
                       jobs=1)
        outcome = job.run()
        assert job.state == "completed"
        assert outcome.stats.simulated == 1
        snap = job.snapshot()
        assert snap["state"] == "completed"
        assert snap["progress"]["done"] == 1
        assert snap["stats"]["simulated"] == 1
        # Re-running a completed job is a no-op returning the outcome.
        assert job.run() is outcome

    def test_cancel_then_resume_serves_finished_points_from_cache(
            self, cache, slow_sim):
        points = [SweepPoint(cfg(), "gemv", SCALE)
                  for cfg in (configs.baseline, configs.barre,
                              configs.fbarre)]
        job = SweepJob(points, jobs=1)
        job.start()
        time.sleep(0.35)          # first point done, second in flight
        job.cancel()
        job.join(timeout=60)
        assert job.state == "cancelled"
        assert job.outcome is None
        finished = len(list(cache.glob("*.json")))
        assert 1 <= finished < 3

        outcome = job.run()       # resume
        assert job.state == "completed"
        assert len(outcome.results) == 3
        assert outcome.stats.cached == finished, (
            "resume must serve previously finished points from the cache")

    def test_double_start_is_rejected(self, cache, slow_sim):
        job = SweepJob([SweepPoint(configs.baseline(), "gemv", SCALE)],
                       jobs=1)
        job.start()
        with pytest.raises(RuntimeError, match="already running"):
            job.run()
        job.join(timeout=60)
        assert job.state == "completed"


class TestObservabilityRoutes:
    """The PR-7 routes: /metrics, /sweeps, job filtering, failure detail."""

    def test_metrics_route_is_valid_prometheus_text(self, make_service):
        from tests.test_metrics import parse_exposition
        server, _ = make_service()
        request(server.base_url, "GET", "/healthz")
        status, headers, body = request(server.base_url, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        parsed = parse_exposition(body.decode())
        samples = parsed["repro_http_requests_total"]["samples"]
        assert any('route="/healthz"' in line for line in samples)

    def test_jobs_listing_filters_and_limits_newest_first(self, cache,
                                                          make_service):
        server, _ = make_service()
        ids = []
        for scheme in ("baseline", "fbarre"):
            _, _, body = request(server.base_url, "POST", "/jobs",
                                 {"points": [gemv_point(scheme)]})
            ids.append(json.loads(body)["id"])
            poll_job(server.base_url, ids[-1])

        _, _, body = request(server.base_url, "GET", "/jobs")
        listing = json.loads(body)
        assert [j["id"] for j in listing["jobs"]] == list(reversed(ids))
        assert listing["total"] == 2

        _, _, body = request(server.base_url, "GET", "/jobs?limit=1")
        limited = json.loads(body)
        assert [j["id"] for j in limited["jobs"]] == [ids[-1]]
        assert limited["total"] == 2    # total counts matches, not the page

        _, _, body = request(server.base_url, "GET",
                             "/jobs?state=completed&limit=10")
        assert len(json.loads(body)["jobs"]) == 2
        _, _, body = request(server.base_url, "GET", "/jobs?state=failed")
        assert json.loads(body)["jobs"] == []

        status, _, _ = request(server.base_url, "GET", "/jobs?state=bogus")
        assert status == 400
        status, _, _ = request(server.base_url, "GET", "/jobs?limit=x")
        assert status == 400

    def test_failed_job_reports_type_and_traceback(self, cache,
                                                   make_service,
                                                   monkeypatch):
        def boom(self):
            raise RuntimeError("injected simulator failure")
        monkeypatch.setattr(McmGpuSimulator, "run", boom)
        server, _ = make_service()
        _, _, body = request(server.base_url, "POST", "/jobs",
                             {"points": [gemv_point()]})
        job = poll_job(server.base_url, json.loads(body)["id"])
        assert job["state"] == "failed"
        assert job["error_type"] == "RuntimeError"
        assert "injected simulator failure" in job["error"]
        assert "RuntimeError" in job["traceback"]
        assert len(job["traceback"]) <= 2100
        # The summary listing carries the type but not the traceback.
        _, _, body = request(server.base_url, "GET", "/jobs")
        summary = json.loads(body)["jobs"][0]
        assert summary["error_type"] == "RuntimeError"
        assert "traceback" not in summary

    def test_sweeps_catalog_routes(self, cache, make_service):
        server, _ = make_service()
        _, _, body = request(server.base_url, "POST", "/jobs",
                             {"points": [gemv_point()]})
        job = poll_job(server.base_url, json.loads(body)["id"])
        digest = job["result"]["points"][0]["digest"]

        status, _, body = request(server.base_url, "GET", "/sweeps")
        assert status == 200
        index = json.loads(body)
        assert index["count"] == 1
        assert index["points"][0]["digest"] == digest
        assert index["points"][0]["scheme"] == "baseline"
        assert index["points"][0]["app"] == "gemv"
        assert index["sim_versions"] == [runner_mod.SIM_VERSION]

        status, _, body = request(server.base_url, "GET",
                                  f"/sweeps/{digest}")
        assert status == 200
        detail = json.loads(body)
        assert detail["payload"]["app"] == "gemv"
        assert detail["latency"]["p50"] <= detail["latency"]["p99"]

        status, _, _ = request(server.base_url, "GET", f"/sweeps/{'0' * 24}")
        assert status == 404

    def test_job_event_log_is_persisted_jsonl(self, cache, make_service):
        from repro.obs.eventlog import read_events
        server, _ = make_service()
        _, _, body = request(server.base_url, "POST", "/jobs",
                             {"points": [gemv_point()]})
        job = poll_job(server.base_url, json.loads(body)["id"])
        assert job["state"] == "completed"
        log_path = cache / "meta" / "events" / f"{job['id']}.jsonl"
        assert job["event_log"] == str(log_path)
        events = read_events(log_path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "sweep_start"
        assert "point_finish" in kinds and "sweep_finish" in kinds
        assert all(e["seq"] == i for i, e in enumerate(events))
