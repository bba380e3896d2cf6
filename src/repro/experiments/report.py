"""Plain-text rendering of experiment series (the figures' printed rows)."""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.common.stats import geomean


def format_series_table(title: str, apps: Sequence[str],
                        series: Mapping[str, Mapping[str, float]],
                        fmt: str = "{:.2f}",
                        mean_row: bool = True) -> str:
    """Render per-app series as an aligned table, one column per app.

    ``series`` maps series-name -> app -> value (e.g. speedup).  The final
    column is the geometric mean, matching the paper's "average" bars.
    """
    name_width = max((len(name) for name in series), default=8)
    col = max(7, max((len(a) for a in apps), default=4) + 1)
    lines = [title]
    header = " " * name_width + "".join(f"{app:>{col}}" for app in apps)
    if mean_row:
        header += f"{'gmean':>{col}}"
    lines.append(header)
    for name, values in series.items():
        row = f"{name:<{name_width}}"
        for app in apps:
            value = values.get(app)
            row += f"{fmt.format(value) if value is not None else '-':>{col}}"
        if mean_row:
            present = [values[a] for a in apps if a in values]
            positive = [v for v in present if v > 0]
            # Geometric means only exist for positive series (fractions can
            # legitimately be zero); fall back to a dash otherwise.
            cell = fmt.format(geomean(positive)) \
                if positive and len(positive) == len(present) else "-"
            row += f"{cell:>{col}}"
        lines.append(row)
    return "\n".join(lines)


def series_text(heading: str,
                mean_row: bool = True) -> Callable[[Mapping], str]:
    """A figure's render: its series table, then its ``means:`` line if
    the figure returns ``means``."""
    def render(out: Mapping) -> str:
        text = format_series_table(heading, out["apps"], out["series"],
                                   mean_row=mean_row)
        if "means" in out:
            text += "\nmeans: " + ", ".join(
                f"{k}={v:.3f}" for k, v in out["means"].items())
        return text
    return render


def format_bar_chart(title: str, values: Mapping[str, float],
                     width: int = 50, reference: float | None = None) -> str:
    """Render a horizontal ASCII bar chart (one bar per key).

    ``reference`` draws a marker column (e.g. the 1.0x line for speedups)
    so over/under-performance is visible at a glance.
    """
    if not values:
        return title
    peak = max(max(values.values()), reference or 0.0)
    if peak <= 0:
        return title
    name_width = max(len(k) for k in values)
    lines = [title]
    ref_col = int(round((reference / peak) * width)) if reference else None
    for key, value in values.items():
        length = max(0, int(round((value / peak) * width)))
        bar = list("#" * length + " " * (width - length))
        if ref_col is not None and 0 <= ref_col < width:
            bar[ref_col] = "|" if bar[ref_col] == " " else "+"
        lines.append(f"{key:<{name_width}} {''.join(bar)} {value:.2f}")
    return "\n".join(lines)


def format_phase_breakdown(title: str, spans: Iterable) -> str:
    """Per-phase latency breakdown of a traced run, as an aligned table.

    One row per phase, sorted by total attributed cycles (descending, name
    as the tiebreak so output is deterministic).  The ``cycles`` column sums
    to the run's total translation latency — each span's intervals partition
    it exactly (see :meth:`repro.common.trace.Span.intervals`).
    """
    from repro.common.trace import (
        phase_histograms,
        phase_totals,
        total_span_cycles,
    )
    spans = [s for s in spans if s.end is not None]
    totals = phase_totals(spans)
    hists = phase_histograms(spans)
    grand = total_span_cycles(spans)
    header = (f"{'phase':<20}{'cycles':>12}{'share':>8}{'count':>9}"
              f"{'mean':>8}{'p50':>7}{'p90':>7}{'p99':>7}{'max':>7}")
    lines = [title, header]
    for phase in sorted(totals, key=lambda p: (-totals[p], p)):
        hist = hists[phase]
        share = totals[phase] / grand if grand else 0.0
        lines.append(f"{phase:<20}{totals[phase]:>12}{share:>8.1%}"
                     f"{hist.total():>9}{hist.mean():>8.1f}"
                     f"{hist.p50:>7}{hist.p90:>7}{hist.p99:>7}"
                     f"{hist.max:>7}")
    lines.append(f"{'total':<20}{grand:>12}{'100.0%' if grand else '-':>8}"
                 f"{len(spans):>9}"
                 f"{(grand / len(spans) if spans else 0.0):>8.1f}")
    return "\n".join(lines)


def format_kv_block(title: str, values: Mapping[str, object]) -> str:
    """Render scalar results as aligned key/value lines."""
    width = max((len(k) for k in values), default=4)
    lines = [title]
    for key, value in values.items():
        rendered = f"{value:.3f}" if isinstance(value, float) else str(value)
        lines.append(f"  {key:<{width}}  {rendered}")
    return "\n".join(lines)
