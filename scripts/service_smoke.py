#!/usr/bin/env python
"""CI smoke for the service: the HTTP path must equal the CLI path, byte-for-byte.

Boots the real server in-process (ephemeral port), then asserts the two
acceptance properties end to end:

1. **Cached job, no re-simulation** — fill one point through the CLI
   sweep, submit the same point over HTTP, and require the job to report
   0 simulations with a fetched payload byte-identical to the CLI's
   cache file.
2. **Cache-miss job through the sweep engine** — submit golden points
   the cache has never seen; the sweep engine simulates them, and the
   cached payloads' SHA-256 must match
   the frozen ``cache_payload_sha256`` digests in ``tests/golden/``.

Then a graceful drain.  Run from the repo root::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

SCALE = 0.05            # the golden-run scale (tests/test_golden_runs.py)
GOLDEN = {name: json.loads(
    (REPO / "tests" / "golden" / f"{name}.json").read_text())
    for name in ("baseline-gemv", "fbarre-gemv", "fbarre-fft")}


def http(base, method, path, body=None):
    req = urllib.request.Request(
        base + path, method=method,
        data=json.dumps(body).encode() if body is not None else None)
    with urllib.request.urlopen(req, timeout=120) as resp:
        return resp.status, resp.read()


def poll(base, job_id, timeout=300.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, payload = http(base, "GET", f"/jobs/{job_id}")
        job = json.loads(payload)
        if job["state"] in ("completed", "failed", "cancelled"):
            return job
        time.sleep(0.1)
    raise SystemExit(f"FAIL: job {job_id} did not finish in {timeout}s")


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"  ok: {message}")


def main() -> int:
    import os
    cache_dir = tempfile.mkdtemp(prefix="service-smoke-")
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    os.environ.pop("REPRO_NO_CACHE", None)

    from repro.cli import main as cli_main
    from repro.service import BackgroundServer, JobStore, ServiceApp

    print(f"[smoke] cache: {cache_dir}")

    print("[smoke] 1/3 CLI fills baseline-gemv, HTTP serves it back")
    rc = cli_main(["sweep", "--schemes", "baseline", "--apps", "gemv",
                   "--scale", str(SCALE), "--jobs", "1"])
    check(rc == 0, "CLI sweep exits 0")
    cli_file = next(Path(cache_dir).glob("*.json"))
    cli_sha = hashlib.sha256(cli_file.read_bytes()).hexdigest()
    check(cli_sha == GOLDEN["baseline-gemv"]["cache_payload_sha256"],
          "CLI cache file matches the golden digest")

    store = JobStore(job_slots=1)
    server = BackgroundServer(ServiceApp(store)).start()
    base = server.base_url
    print(f"[smoke] server up at {base}")
    try:
        status, _ = http(base, "GET", "/healthz")
        check(status == 200, "healthz is 200")

        status, payload = http(base, "POST", "/jobs", {
            "points": [{"scheme": "baseline", "app": "gemv",
                        "scale": SCALE}]})
        check(status == 202, "submit is 202")
        job = poll(base, json.loads(payload)["id"])
        check(job["state"] == "completed", "cached job completes")
        check(job["result"]["stats"]["simulated"] == 0,
              "cached job re-simulated nothing")
        entry = job["result"]["points"][0]
        check(entry["simulated"] is False, "point served from cache")
        _, fetched = http(base, "GET", entry["result_url"])
        check(fetched == cli_file.read_bytes(),
              "HTTP payload is byte-identical to the CLI cache file")

        print("[smoke] 2/3 cache-miss job lands golden digests")
        status, payload = http(base, "POST", "/jobs", {
            "points": [{"scheme": "fbarre", "app": "gemv", "scale": SCALE},
                       {"scheme": "fbarre", "app": "fft", "scale": SCALE}],
            "jobs": 2})
        check(status == 202, "miss-job submit is 202")
        job = poll(base, json.loads(payload)["id"])
        check(job["state"] == "completed", "miss job completes")
        check(job["result"]["stats"]["simulated"] == 2,
              "both misses were simulated")
        for entry, name in zip(job["result"]["points"],
                               ("fbarre-gemv", "fbarre-fft")):
            _, fetched = http(base, "GET", entry["result_url"])
            sha = hashlib.sha256(fetched).hexdigest()
            check(sha == GOLDEN[name]["cache_payload_sha256"],
                  f"{name} payload matches its golden digest")

        print("[smoke] 3/3 graceful drain")
        store.begin_shutdown("drain")
        store.drain()
        _, payload = http(base, "GET", "/healthz")
        check(json.loads(payload)["status"] == "shutting-down",
              "healthz reports shutting-down")
    finally:
        server.stop()
    print("[smoke] PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
