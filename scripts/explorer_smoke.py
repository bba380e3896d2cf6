#!/usr/bin/env python
"""CI smoke for the experiment explorer: reports from cache, zero simulations.

Warms a scratch result cache with the golden-run points (the same
scheme/app/scale tuples ``tests/test_golden_runs.py`` freezes), then runs
``repro explore`` against it and asserts the acceptance properties:

1. The explorer renders the figure comparison, the latency-percentile
   table, and the cache overview purely from cached payloads — the
   runner's simulation counter (``runner.SIMULATIONS``) must not move.
2. ``--html`` emits a self-contained static page (no scripts, no
   external fetches).
3. The key-manifest sidecars let the catalog decode every point back to
   its scheme, scale, and SIM_VERSION.

Run from the repo root::

    PYTHONPATH=src python scripts/explorer_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

SCALE = 0.05            # the golden-run scale (tests/test_golden_runs.py)
SCHEMES = ("baseline", "fbarre")
APPS = ("gemv", "fft")


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"  ok: {message}")


def main() -> int:
    cache_dir = tempfile.mkdtemp(prefix="explorer-smoke-")
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    os.environ.pop("REPRO_NO_CACHE", None)

    from repro.cli import main as cli_main
    from repro.experiments import runner
    from repro.obs import catalog

    print(f"[smoke] cache: {cache_dir}")
    print(f"[smoke] 1/3 warm cache via sweep "
          f"({len(SCHEMES)}x{len(APPS)} golden points)")
    rc = cli_main(["sweep", "--schemes", ",".join(SCHEMES),
                   "--apps", ",".join(APPS),
                   "--scale", str(SCALE), "--jobs", "2"])
    check(rc == 0, "warm sweep exits 0")

    print("[smoke] 2/3 explore renders from cache with zero simulations")
    before = runner.SIMULATIONS
    html_path = Path(cache_dir) / "report" / "index.html"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(["explore", "--html", str(html_path)])
    text = out.getvalue()
    simulated = runner.SIMULATIONS - before
    check(rc == 0, "explore exits 0")
    check(simulated == 0, f"explore ran {simulated} simulations (want 0)")
    check("speedup over baseline" in text, "figure comparison rendered")
    check("translation latency percentiles" in text,
          "latency percentile table rendered")
    check(f"{len(SCHEMES) * len(APPS)} points" in text,
          "overview counts every cached point")
    check("0 simulations" in text, "explorer reports its zero-sim contract")
    html = html_path.read_text()
    check(html.startswith("<!doctype html>"), "HTML report written")
    for forbidden in ("<script", "http://", "https://"):
        check(forbidden not in html,
              f"HTML report is self-contained (no {forbidden!r})")

    print("[smoke] 3/3 catalog decodes every point via key manifests")
    entries = catalog.scan()
    check(len(entries) == len(SCHEMES) * len(APPS),
          f"catalog sees all {len(SCHEMES) * len(APPS)} points")
    check({e.scheme for e in entries} == set(SCHEMES),
          "schemes decoded from manifests")
    check(all(e.scale == SCALE for e in entries), "scales decoded")
    check(all(e.sim_version == runner.SIM_VERSION for e in entries),
          "SIM_VERSION decoded")
    print("[smoke] PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
