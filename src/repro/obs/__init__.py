"""Observability over banked experiment state: catalog and reports.

Everything the repo's sweeps bank in the result cache — per-point latency
histograms, key manifests with fill-time seconds, trace-span exports —
goes dark the moment a run ends unless something can read it back.  This
package is that something, in two parts:

* :mod:`repro.obs.catalog` — walks the result cache and decodes each
  entry into (app, scheme, scale, SIM_VERSION, seconds) using the key
  manifests (``meta/keys/``), falling back to payload fields for entries
  filled before the manifest existed.
* :mod:`repro.obs.reports` — renderers over catalog entries: figure
  comparisons (per-app speedup by scheme), p50/p99 latency percentile
  tables, phase breakdowns re-rendered from banked trace-span JSONL,
  side-by-side diffs of two ``SIM_VERSION`` generations, and a static
  self-contained HTML report.  **Zero simulations** — every renderer
  reads cached payloads only, and ``repro explore`` asserts it.
"""

from repro.obs.catalog import CatalogEntry, scan

__all__ = [
    "CatalogEntry",
    "scan",
]
