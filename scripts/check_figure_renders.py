#!/usr/bin/env python
"""Pin every figure's printed text at ``REPRO_BENCH_SCALE=0.05``.

Fills the points of every figure in ``registry.FIGURES`` in one sweep on a
fresh result cache, evaluates each figure, and compares the sha256 of
``FIGURES[name].render(out)`` with ``tests/golden/figure_renders.json``.
A change in simulated behaviour that reaches any figure's text fails here,
even one no golden point covers.

Run from the repo root::

    PYTHONPATH=src python scripts/check_figure_renders.py           # check
    PYTHONPATH=src python scripts/check_figure_renders.py --update  # re-pin

Re-pin only after a deliberate change in simulated behaviour, one that
also bumps ``SIM_VERSION``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

SCALE = 0.05
JOBS = 2
PINS = REPO / "tests" / "golden" / "figures" / "renders.json"


def render_digests() -> dict[str, str]:
    """sha256 of each figure's render, filled on a fresh cache."""
    from repro.experiments.registry import FIGURES, figure_points
    from repro.experiments.sweep import sweep

    points = [p for name in FIGURES for p in figure_points(name, SCALE)]
    sweep(points, jobs=JOBS, progress=False)
    digests = {}
    for name, fig in FIGURES.items():
        text = fig.render(fig.run(scale=SCALE))
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {PINS.relative_to(REPO)}")
    args = parser.parse_args(argv)
    cache_dir = tempfile.mkdtemp(prefix="figure-renders-")
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    os.environ["REPRO_BENCH_SCALE"] = str(SCALE)
    os.environ.pop("REPRO_NO_CACHE", None)
    start = time.perf_counter()
    try:
        digests = render_digests()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(f"[renders] {len(digests)} figures rendered at scale {SCALE} "
          f"in {time.perf_counter() - start:.1f} s")
    if args.update:
        PINS.write_text(json.dumps({"scale": SCALE, "renders": digests},
                                   indent=1) + "\n")
        print(f"[renders] pinned {PINS.relative_to(REPO)}")
        return 0
    pinned = json.loads(PINS.read_text())["renders"]
    bad = [name for name in sorted(set(pinned) | set(digests))
           if pinned.get(name) != digests.get(name)]
    for name in bad:
        print(f"FAIL: {name}: render {str(digests.get(name))[:12]} "
              f"!= pin {str(pinned.get(name))[:12]}")
    if not bad:
        print("[renders] every render matches its pin")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
