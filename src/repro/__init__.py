"""Barre Chord reproduction: efficient virtual memory translation for MCM-GPUs.

Public entry points:

* :class:`repro.SimConfig` — simulation configuration (paper Table II).
* :func:`repro.run_app` — simulate one benchmark under a configuration.
* :func:`repro.get_workload` / :data:`repro.APP_ORDER` — the 19 Table I
  benchmarks as calibrated trace generators.
* :mod:`repro.experiments.figures` — one runner per paper table/figure.
* :mod:`repro.experiments.configs` — canonical scheme configurations
  (baseline, Valkyrie, Least, Barre, F-Barre, MGvm, super pages).

Quick example::

    from repro import BackendKind, SimConfig, get_workload, run_app

    result = run_app(SimConfig(backend=BackendKind.FBARRE),
                     get_workload("spmv"))
    print(result.cycles, result.mpki, result.coalesced_fraction)
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the module that defines it.  Names load on first access
#: (PEP 562), so ``import repro`` and the plan and cache-read paths under
#: it import neither the simulator nor numpy.
_EXPORTS = {
    "APP_ORDER": "repro.workloads.suite",
    "BackendKind": "repro.common.config",
    "MappingKind": "repro.common.config",
    "McmGpuSimulator": "repro.gpu.mcm",
    "SimConfig": "repro.common.config",
    "SimResult": "repro.common.result",
    "get_workload": "repro.workloads.suite",
    "make_suite": "repro.workloads.suite",
    "run_app": "repro.gpu.mcm",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
