"""Simulation-as-a-service: an async HTTP job API over the sweep engine.

``repro.service`` turns the repo's experiment machinery into a front
door: clients POST jobs (point-sets, figures, validate runs), poll
``GET /jobs/{id}`` for live progress streamed from the sweep engine's
own telemetry, and fetch results by cache digest from
``GET /results/{key}`` — byte-identical to what the CLI path writes,
because both ride the same content-keyed cache with lockfile + atomic
rename fills.  Start it with ``python -m repro serve``.

Layers (each importable on its own):

* :mod:`repro.service.schemas` — strict request validation;
* :mod:`repro.service.jobs`    — the job store and lifecycle state
  machine over :class:`repro.experiments.sweep.SweepJob`;
* :mod:`repro.service.app`     — routing, HTTP framing, server runners.

Full API reference: ``docs/service.md``.
"""

from repro.service.app import (
    ROUTES,
    BackgroundServer,
    ServiceApp,
    serve_forever,
)
from repro.service.jobs import JobStore, StoreClosing
from repro.service.schemas import JobSpec, SchemaError, parse_job_request

__all__ = [
    "ROUTES", "BackgroundServer", "ServiceApp", "serve_forever",
    "JobStore", "StoreClosing",
    "JobSpec", "SchemaError", "parse_job_request",
]
