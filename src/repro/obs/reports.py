"""Report renderers over catalog entries — comparisons without simulations.

Every renderer here consumes :class:`~repro.obs.catalog.CatalogEntry`
objects (or banked trace-span JSONL) and produces text or HTML; none of
them can trigger a simulation, which is the property ``repro explore``
asserts via the runner's simulation counter (``runner.SIMULATIONS``).

The views mirror the paper's headline evidence:

* :func:`figure_comparison` — per-app speedup by scheme (Fig 15's shape),
  normalized to the cached baseline points.
* :func:`latency_table` — p50/p90/p99 translation-latency percentiles per
  (app, scheme) from the payloads' :class:`LatencyHistogram` (Fig 18's
  distributional view).
* :func:`phase_breakdown` — the per-phase latency partition re-rendered
  from a banked ``repro trace --format jsonl`` export.
* :func:`version_diff` — side-by-side cycles of two ``SIM_VERSION``
  generations over the points they share.
* :func:`render_html` — all of the above as one static, dependency-free
  HTML file (inline CSS, no scripts, no external fetches).
"""

from __future__ import annotations

import html
from pathlib import Path

from repro.experiments.report import format_phase_breakdown, format_series_table
from repro.obs.catalog import CatalogEntry, group_by_scheme

#: Scheme column order for comparison tables: the baseline first, then
#: the paper's progression; anything unrecognized sorts after, by name.
_SCHEME_ORDER = ("baseline", "shared-l2", "shared_l2", "valkyrie", "least",
                 "barre", "fbarre", "mgvm")


def _scheme_sort_key(name: str) -> tuple:
    try:
        return (0, _SCHEME_ORDER.index(name))
    except ValueError:
        return (1, name)


def speedup_series(entries: list[CatalogEntry],
                   sim_version: str | None = None,
                   tag: str = "") -> tuple[list[str], dict[str, dict]]:
    """(apps, scheme -> app -> speedup-over-baseline) from cached cycles.

    Needs cached ``baseline`` points to normalize against; apps with no
    baseline point are dropped (a ratio against nothing is noise, not
    data).  Returns ``([], {})`` when the cache holds no baseline at all.
    """
    grouped = group_by_scheme(entries, sim_version=sim_version, tag=tag)
    base = grouped.get("baseline", {})
    apps = sorted(a for a in base if base[a].cycles > 0)
    if not apps:
        return [], {}
    series: dict[str, dict] = {}
    for scheme in sorted(grouped, key=_scheme_sort_key):
        row = {app: base[app].cycles / grouped[scheme][app].cycles
               for app in apps
               if app in grouped[scheme] and grouped[scheme][app].cycles > 0}
        if row:
            series[scheme] = row
    return apps, series


def figure_comparison(entries: list[CatalogEntry],
                      sim_version: str | None = None,
                      tag: str = "") -> str:
    """Fig 15-shaped comparison table: speedup over baseline, by scheme."""
    apps, series = speedup_series(entries, sim_version=sim_version, tag=tag)
    version = f" [{sim_version}]" if sim_version else ""
    title = f"speedup over baseline (cached points{version})"
    if not series:
        return f"{title}\n  no cached baseline points to normalize against"
    return format_series_table(title, apps, series)


def latency_rows(entries: list[CatalogEntry],
                 sim_version: str | None = None,
                 tag: str = "") -> list[dict]:
    """One row per (app, scheme) with translation-latency percentiles."""
    grouped = group_by_scheme(entries, sim_version=sim_version, tag=tag)
    rows = []
    for scheme in sorted(grouped, key=_scheme_sort_key):
        for app in sorted(grouped[scheme]):
            hist = grouped[scheme][app].latency
            if not hist.total():
                continue    # pre-histogram cache generations
            rows.append({"app": app, "scheme": scheme,
                         "samples": hist.total(),
                         "mean": round(hist.mean(), 1),
                         "p50": hist.p50, "p90": hist.p90, "p99": hist.p99,
                         "max": hist.max})
    return rows


def latency_table(entries: list[CatalogEntry],
                  sim_version: str | None = None,
                  tag: str = "") -> str:
    """Aligned p50/p90/p99 translation-latency table (cycles)."""
    rows = latency_rows(entries, sim_version=sim_version, tag=tag)
    title = "translation latency percentiles (cycles, cached histograms)"
    if not rows:
        return f"{title}\n  no cached latency histograms"
    header = (f"{'app':<8}{'scheme':<12}{'samples':>9}{'mean':>9}"
              f"{'p50':>7}{'p90':>7}{'p99':>7}{'max':>7}")
    lines = [title, header]
    for r in rows:
        lines.append(f"{r['app']:<8}{r['scheme']:<12}{r['samples']:>9}"
                     f"{r['mean']:>9.1f}{r['p50']:>7}{r['p90']:>7}"
                     f"{r['p99']:>7}{r['max']:>7}")
    return "\n".join(lines)


def phase_breakdown(trace_path: str | Path) -> str:
    """Re-render a phase breakdown from a banked span JSONL export."""
    from repro.common.trace import read_spans_jsonl
    path = Path(trace_path)
    spans = read_spans_jsonl(path)
    return format_phase_breakdown(
        f"phase breakdown ({path.name}, {len(spans)} spans)", spans)


def version_diff(entries: list[CatalogEntry], version_a: str,
                 version_b: str, tag: str = "") -> str:
    """Side-by-side cycles of two SIM_VERSION generations, per (app, scheme).

    Only points present under *both* versions are compared — the view is
    about what a simulator change did to identical experiments, not about
    coverage drift.  The delta column is ``b/a - 1`` (positive = version
    B is slower).
    """
    a = group_by_scheme(entries, sim_version=version_a, tag=tag)
    b = group_by_scheme(entries, sim_version=version_b, tag=tag)
    title = f"cycles: {version_a} vs {version_b} (shared cached points)"
    rows = []
    for scheme in sorted(set(a) & set(b), key=_scheme_sort_key):
        for app in sorted(set(a[scheme]) & set(b[scheme])):
            ca, cb = a[scheme][app].cycles, b[scheme][app].cycles
            rows.append((app, scheme, ca, cb,
                         (cb / ca - 1.0) if ca else 0.0))
    if not rows:
        return f"{title}\n  no points cached under both versions"
    header = (f"{'app':<8}{'scheme':<12}{version_a:>12}{version_b:>12}"
              f"{'delta':>9}")
    lines = [title, header]
    for app, scheme, ca, cb, delta in rows:
        lines.append(f"{app:<8}{scheme:<12}{ca:>12}{cb:>12}{delta:>+9.2%}")
    return "\n".join(lines)


def overview(entries: list[CatalogEntry]) -> str:
    """One-paragraph cache summary: counts, versions, schemes, apps."""
    if not entries:
        return "result cache: empty (nothing to explore)"
    versions = sorted({e.sim_version for e in entries if e.sim_version})
    schemes = sorted({e.scheme for e in entries}, key=_scheme_sort_key)
    apps = sorted({e.app for e in entries})
    timed = [e.seconds for e in entries if e.seconds is not None]
    lines = [f"result cache: {len(entries)} points, "
             f"{len(schemes)} schemes, {len(apps)} apps",
             f"  sim versions: {', '.join(versions) or '(no manifests)'}",
             f"  schemes:      {', '.join(schemes)}",
             f"  apps:         {', '.join(apps)}"]
    if timed:
        lines.append(f"  banked compute: {sum(timed):.1f}s over "
                     f"{len(timed)} timed points")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# HTML report (static, self-contained: inline CSS, no scripts)
# --------------------------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2rem;
       color: #1a1a2e; max-width: 72rem; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: 0.75rem 0; font-size: 0.88rem; }
th, td { border: 1px solid #d0d0e0; padding: 0.3rem 0.6rem;
         text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { background: #eef0f8; }
pre { background: #f6f6fa; padding: 0.75rem; overflow-x: auto;
      font-size: 0.82rem; }
.meta { color: #666; font-size: 0.85rem; }
"""


def _html_table(headers: list[str], rows: list[list]) -> str:
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(str(c))}</td>" for c in row)
        + "</tr>" for row in rows)
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def render_html(entries: list[CatalogEntry],
                sim_version: str | None = None,
                trace_path: str | Path | None = None,
                diff: tuple[str, str] | None = None) -> str:
    """The full explorer report as one dependency-free HTML document."""
    parts = ["<!doctype html><html><head><meta charset='utf-8'>",
             "<title>repro explorer</title>",
             f"<style>{_CSS}</style></head><body>",
             "<h1>Experiment explorer &mdash; result-cache report</h1>",
             f"<pre class='meta'>{html.escape(overview(entries))}</pre>"]

    apps, series = speedup_series(entries, sim_version=sim_version)
    parts.append("<h2>Speedup over baseline</h2>")
    if series:
        rows = [[scheme] + [f"{series[scheme].get(a, float('nan')):.2f}"
                            if a in series[scheme] else "-" for a in apps]
                for scheme in series]
        parts.append(_html_table(["scheme", *apps], rows))
    else:
        parts.append("<p class='meta'>no cached baseline points</p>")

    parts.append("<h2>Translation latency percentiles (cycles)</h2>")
    lrows = latency_rows(entries, sim_version=sim_version)
    if lrows:
        parts.append(_html_table(
            ["app", "scheme", "samples", "mean", "p50", "p90", "p99", "max"],
            [[r["app"], r["scheme"], r["samples"], r["mean"], r["p50"],
              r["p90"], r["p99"], r["max"]] for r in lrows]))
    else:
        parts.append("<p class='meta'>no cached latency histograms</p>")

    if trace_path is not None:
        parts.append("<h2>Phase breakdown</h2>")
        parts.append(f"<pre>{html.escape(phase_breakdown(trace_path))}</pre>")

    if diff is not None:
        parts.append("<h2>Version diff</h2>")
        parts.append("<pre>"
                     + html.escape(version_diff(entries, diff[0], diff[1]))
                     + "</pre>")

    parts.append("<h2>Catalog</h2>")
    parts.append(_html_table(
        ["app", "scheme", "scale", "tag", "version", "cycles", "seconds",
         "digest"],
        [[e.app, e.scheme,
          "-" if e.scale is None else f"{e.scale:g}", e.tag or "-",
          e.sim_version or "-", e.cycles,
          "-" if e.seconds is None else f"{e.seconds:.2f}", e.digest]
         for e in entries]))
    parts.append("</body></html>")
    return "".join(parts) + "\n"
