#!/usr/bin/env python
"""Perf gate: this checkout's perfbench against its parent commit's.

Run it from the repository root, with the parent commit's files unpacked
in a directory of their own::

    parent="$(mktemp -d)"
    git archive HEAD^ | tar -x -C "$parent"
    python scripts/perf_gate.py "$parent"

For every workload in ``BENCHMARK.json``, each side runs its own
``perfbench/run.py --trace 0`` ``PAIRS`` times, alternating which side
runs first, so both see the same host.  The gate fails if any run is not
``correct``, or if an end-to-end metric's median on this side is worse
than the parent's by more than that metric's ``bound``.  Only the last
line of perfbench's output, its JSON result, is read.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: perfbench ``--seconds`` per run: one pass of the workload.
SECONDS = 1
#: Runs per side and workload; the gate compares their medians.
PAIRS = 3


def run_perfbench(side: Path, workload: str) -> dict:
    """One perfbench run of ``side``'s own program; its JSON result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=side, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"correct": False,
                "error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    return json.loads(lines[-1])


def regressions(workload: str, parent: list[dict], this: list[dict],
                end_to_end: list[dict]) -> list[str]:
    """Every failure of one workload's runs, as one line each."""
    failures = [f"{workload}: {name} run {i + 1} is not correct "
                f"({run.get('error') or run.get('failed')})"
                for name, runs in (("parent", parent), ("this", this))
                for i, run in enumerate(runs) if not run.get("correct")]
    if failures:
        return failures
    for metric in end_to_end:
        name = metric["name"]
        if name not in parent[0]["metrics"]:
            continue
        before = statistics.median(r["metrics"][name]["value"]
                                   for r in parent)
        after = statistics.median(r["metrics"][name]["value"] for r in this)
        if metric["better"] == "lower":
            worse = after > before * (1 + metric["bound"])
        else:
            worse = after < before * (1 - metric["bound"])
        change = after / before - 1 if before else float("inf")
        print(f"  {workload:<16} {name:<16} parent {before:10.4g}  "
              f"this {after:10.4g}  {change:+7.1%}  "
              f"(bound {metric['bound']:.0%}){'  WORSE' if worse else ''}")
        if worse:
            failures.append(f"{workload}: {name} median {after:.4g} vs "
                            f"parent {before:.4g} ({change:+.1%}, bound "
                            f"{metric['bound']:.0%}, better "
                            f"{metric['better']})")
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    parent_dir = Path(argv[0]).resolve()
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        runs: dict[Path, list[dict]] = {parent_dir: [], REPO: []}
        for pair in range(PAIRS):
            order = (parent_dir, REPO) if pair % 2 == 0 else (REPO, parent_dir)
            for side in order:
                runs[side].append(run_perfbench(side, workload))
        failures += regressions(workload, runs[parent_dir], runs[REPO],
                                bench["end_to_end"])
    if failures:
        print(f"perf gate FAILED ({PAIRS} pairs per workload):")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"perf gate OK: {PAIRS} pairs per workload, every run correct, "
          f"no end-to-end median past its bound")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
