"""What each entry path imports, and that every public name still resolves.

Planning a sweep, reading results back from the cache and ``repro --help``
need keys and payloads only, so they must import neither numpy nor the
simulator (DESIGN.md, "Layering").  Each check runs in a fresh interpreter,
because this test process has long since loaded both.  The package-level
exports load lazily (PEP 562); the examples and the public names pin that
they still resolve to the objects their modules define.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.mapping
from repro.common.result import SimResult
from repro.experiments import configs, runner
from repro.experiments.runner import SweepPoint

REPO = Path(__file__).resolve().parent.parent

#: Modules the plan and cache-read paths must never load (each also
#: stands for its submodules).
SIMULATOR_MODULES = ("numpy", "repro.gpu.mcm", "repro.core", "repro.iommu",
                     "repro.filters", "repro.gmmu", "repro.migration",
                     "repro.paging", "repro.mapping.driver")

_PLAN_AND_READ = """
import contextlib, importlib, io, json, os, sys
from repro.experiments.registry import FIGURES, figure_points
sweep_mod = importlib.import_module("repro.experiments.sweep")
from repro.experiments import configs, runner

os.environ["REPRO_CACHE_DIR"] = {empty!r}
points = [p for name in FIGURES for p in figure_points(name, 0.05)]
outcome = sweep_mod.sweep(points, jobs=1, dry_run=True, progress=False)

os.environ["REPRO_CACHE_DIR"] = {filled!r}
result = runner.cached_result(configs.baseline(), "gemv", scale=0.05)

from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()) as text:
    try:
        main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
assert "sweep" in text.getvalue()

forbidden = {forbidden!r}
print(json.dumps({{
    "unique": outcome.stats.unique,
    "cycles": None if result is None else result.cycles,
    "loaded": sorted(m for m in sys.modules
                     if any(m == f or m.startswith(f + ".")
                            for f in forbidden)),
}}))
"""

#: Harness modules a one-point cache read must not load.
HARNESS_MODULES = ("repro.experiments.figures", "repro.experiments.ablations",
                   "repro.experiments.registry", "repro.experiments.sweep")

_READ_ONE = """
import json, os, sys
os.environ["REPRO_CACHE_DIR"] = {filled!r}
from repro.experiments import configs, runner
result = runner.cached_result(configs.baseline(), "gemv", scale=0.05)
print(json.dumps({{
    "cycles": None if result is None else result.cycles,
    "loaded": sorted(m for m in {forbidden!r} if m in sys.modules),
}}))
"""

_MCM_ALONE = """
import json, sys
import repro.gpu.mcm as mcm
imported = "numpy" in sys.modules
from repro.experiments import configs
from repro.workloads import get_workload
mcm.McmGpuSimulator(configs.baseline(), [get_workload("gemv")],
                    trace_scale=0.05)
print(json.dumps({"on_import": imported, "after_build": "numpy" in sys.modules}))
"""


def _fresh(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_plan_cache_read_and_help_load_no_simulator(tmp_path: Path,
                                                    monkeypatch) -> None:
    empty, filled = tmp_path / "empty", tmp_path / "filled"
    empty.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(filled))
    stored = runner.fill(SweepPoint(configs.baseline(), "gemv", 0.05))

    out = _fresh(_PLAN_AND_READ.format(empty=str(empty), filled=str(filled),
                                       forbidden=SIMULATOR_MODULES))

    assert out["loaded"] == []
    assert out["unique"] > 100
    assert out["cycles"] == stored.cycles
    assert not list(empty.rglob("*.json")), "the dry run wrote a result"


def test_one_point_read_loads_no_figure_or_sweep_module(tmp_path: Path,
                                                       monkeypatch) -> None:
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    stored = runner.fill(SweepPoint(configs.baseline(), "gemv", 0.05))

    out = _fresh(_READ_ONE.format(filled=str(tmp_path),
                                  forbidden=HARNESS_MODULES))

    assert out == {"cycles": stored.cycles, "loaded": []}


def test_experiments_exports_resolve_lazily() -> None:
    import repro.experiments as experiments
    from repro.experiments import registry, report, runner as runner_mod
    from repro.experiments.sweep import SweepOutcome, collect_points

    assert experiments.FIGURES is registry.FIGURES
    assert experiments.format_series_table is report.format_series_table
    assert experiments.cached_result is runner_mod.cached_result
    assert experiments.SweepOutcome is SweepOutcome
    assert experiments.collect_points is collect_points
    assert experiments.sweep is importlib.import_module(
        "repro.experiments.sweep")
    for name in experiments.__all__:
        assert getattr(experiments, name) is not None
    with pytest.raises(AttributeError, match="no_such_name"):
        experiments.no_such_name  # noqa: B018


def test_simulator_module_loads_numpy_only_when_a_simulator_is_built() -> None:
    assert _fresh(_MCM_ALONE) == {"on_import": False, "after_build": True}


@pytest.mark.parametrize("path", sorted((REPO / "examples").glob("*.py")),
                         ids=lambda p: p.stem)
def test_example_imports_cleanly(path: Path) -> None:
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_package_exports_resolve_to_their_definitions() -> None:
    from repro import (APP_ORDER, McmGpuSimulator, get_workload, make_suite,
                       run_app)
    from repro import SimResult as exported
    from repro.gpu import mcm
    from repro.workloads import suite

    assert (McmGpuSimulator, run_app) == (mcm.McmGpuSimulator, mcm.run_app)
    assert (APP_ORDER, get_workload, make_suite) == (
        suite.APP_ORDER, suite.get_workload, suite.make_suite)
    assert exported is SimResult is mcm.SimResult
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018


@pytest.mark.parametrize("name", repro.mapping.__all__)
def test_mapping_export_resolves(name: str) -> None:
    value = getattr(repro.mapping, name)
    homes = [importlib.import_module(f"repro.mapping.{module}") for module in
             ("allocator", "coalescing", "driver", "policies")]
    assert any(getattr(home, name, None) is value for home in homes)
