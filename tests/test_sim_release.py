"""A finished simulator is freed by reference counting alone.

``McmGpuSimulator.run`` ends by releasing the links ``_build`` wired that
close reference cycles (agent routes and L2 hooks, the IOMMU/GMMU
response routes, Valkyrie's prefetch fill, each stream's completion
callback).  Per-access callbacks are partials that live until
their event fires, and the few routes built at construction close over
the part they need, never over the simulator.  So once its last name goes,
nothing is left for the cyclic collector.  Runs with the invariant
checker are out of scope (DESIGN.md): its wrappers close over the
simulator.  The cyclic collector is paused while a simulator builds and
runs, and the caller's setting comes back however the run ends.
"""

from __future__ import annotations

import gc

import pytest

from repro.common.errors import SimulationError
from repro.experiments import configs
from repro.gpu import mcm
from repro.gpu.mcm import McmGpuSimulator
from repro.scenarios import NAMED_SCENARIOS
from repro.workloads import get_workload
from tests.test_golden_runs import POINTS, SCALE, SCENARIO_SCALE, _workload


def _finished(name: str, trace: bool) -> McmGpuSimulator:
    factory, args, app = POINTS[name]
    scale = SCENARIO_SCALE if app in NAMED_SCENARIOS else SCALE
    sim = McmGpuSimulator(factory(*args), [_workload(app)],
                          trace_scale=scale, trace=trace)
    sim.run()
    return sim


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(POINTS))
def test_finished_simulator_leaves_no_cyclic_garbage(name: str,
                                                     trace: bool) -> None:
    sim = _finished(name, trace)
    with pytest.raises(SimulationError, match="runs once"):
        sim.run()
    # What a result reader needs stays readable after the release.
    assert sum(len(s) for c in sim.chiplets for s in c.l2._sets)
    assert not trace or sim.tracer.spans
    gc.collect()
    gc.disable()
    try:
        del sim
        assert gc.collect() == 0
    finally:
        gc.enable()


def _gemv() -> McmGpuSimulator:
    return McmGpuSimulator(configs.baseline(), [get_workload("gemv")],
                           trace_scale=SCALE)


def test_collector_is_paused_over_build_and_run(monkeypatch) -> None:
    seen = {"build": [], "run": []}
    real_build_driver = mcm.build_driver

    def build_driver(config):
        seen["build"].append(gc.isenabled())
        return real_build_driver(config)

    monkeypatch.setattr(mcm, "build_driver", build_driver)
    sim = _gemv()
    assert gc.isenabled()
    sim.pfn_observer = lambda *_access: seen["run"].append(gc.isenabled())
    sim.run()
    assert gc.isenabled()
    assert seen["build"] == [False]
    assert seen["run"] and not any(seen["run"])


def test_collector_is_restored_when_a_run_raises() -> None:
    sim = _gemv()
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=10)
    assert gc.isenabled()


def test_collector_the_caller_disabled_stays_disabled() -> None:
    gc.disable()
    try:
        sim = _gemv()
        assert not gc.isenabled()
        sim.run()
        assert not gc.isenabled()
    finally:
        gc.enable()
