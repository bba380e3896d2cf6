"""Collect per-figure bench outputs into one summary report.

The figure bench writes each figure's text to ``results/<name>.txt``; this
module stitches them into ``results/SUMMARY.md`` in ``FIGURES`` order (the
paper's), under each figure's title, so a full reproduction run leaves a
single reviewable artifact.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.registry import FIGURES


def build_summary(results_dir: str | Path) -> str:
    """Render the markdown summary from whatever results exist."""
    root = Path(results_dir)
    sections = ["# Reproduction summary",
                "",
                "Generated from the per-figure benchmark outputs in "
                "`results/`.  See EXPERIMENTS.md for paper-vs-measured "
                "commentary.", ""]
    missing = []
    for name, fig in FIGURES.items():
        path = root / f"{name}.txt"
        if not path.exists():
            missing.append(name)
            continue
        sections.append(f"## {fig.title}")
        sections.append("")
        sections.append("```")
        sections.append(path.read_text().rstrip())
        sections.append("```")
        sections.append("")
    if missing:
        sections.append(f"*Not yet generated: {', '.join(missing)} — run "
                        f"`pytest benchmarks/bench_figures.py "
                        f"--benchmark-only`.*")
    return "\n".join(sections)


def write_summary(results_dir: str | Path) -> Path:
    """Write ``SUMMARY.md`` next to the per-figure outputs."""
    root = Path(results_dir)
    path = root / "SUMMARY.md"
    path.write_text(build_summary(root) + "\n")
    return path
