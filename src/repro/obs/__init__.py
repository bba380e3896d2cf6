"""Observability over banked experiment state: catalog, reports, events.

Everything the repo's sweeps bank in the result cache — per-point latency
histograms, wall-time sidecars, key manifests, trace-span exports — goes
dark the moment a run ends unless something can read it back.  This
package is that something, in three parts:

* :mod:`repro.obs.catalog` — walks the result cache and decodes each
  entry into (app, scheme, scale, SIM_VERSION) using the key-manifest
  sidecar (``meta/keys/``), falling back to payload fields for entries
  filled before the manifest existed.
* :mod:`repro.obs.reports` — renderers over catalog entries: figure
  comparisons (per-app speedup by scheme), p50/p99 latency percentile
  tables, phase breakdowns re-rendered from banked trace-span JSONL,
  side-by-side diffs of two ``SIM_VERSION`` generations, and a static
  self-contained HTML report.  **Zero simulations** — every renderer
  reads cached payloads only, and ``repro explore`` asserts it.
* :mod:`repro.obs.eventlog` — a JSONL sink for the sweep engine's
  structured run events (``sweep_start``, ``point_start``, ...) so a
  sweep's timeline is reconstructible after the fact.
"""

from repro.obs.catalog import CatalogEntry, scan
from repro.obs.eventlog import RunEventLog, read_events

__all__ = [
    "CatalogEntry",
    "RunEventLog",
    "read_events",
    "scan",
]
