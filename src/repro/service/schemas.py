"""Request/response schemas for the job API.

The wire format is plain JSON; this module is the single place where an
untrusted request body becomes typed, validated Python.  Parsing is
strict — unknown keys, unknown scheme/app/figure names, and out-of-range
values all raise :class:`SchemaError` (the HTTP layer maps it to a 400
with the message verbatim) — so a malformed job can never reach the
sweep engine.  Full request/response documentation: ``docs/service.md``.

A job is exactly one of three kinds:

* ``points``   — an explicit list of (scheme, app) simulation points;
* ``figure``   — a name from :data:`repro.experiments.registry.FIGURES`
  whose full point-set is enumerated server-side;
* ``validate`` — a differential-validation run (schemes vs the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Hard ceiling on explicit point lists per request — one request must
#: not be able to enqueue more work than a full-reproduction sweep.
MAX_POINTS_PER_JOB = 2048

#: Ceiling on validate seeds per request.
MAX_VALIDATE_SEEDS = 200

#: Trace-scale bounds accepted over the wire.
MIN_SCALE, MAX_SCALE = 0.001, 4.0


class SchemaError(ValueError):
    """A request body failed validation; the message is client-safe."""


def _schemes() -> dict:
    from repro.cli import SCHEMES
    return SCHEMES


def _apps() -> tuple:
    from repro.workloads.suite import APP_ORDER
    return APP_ORDER


def _figures() -> dict:
    from repro.experiments.registry import FIGURES
    return FIGURES


def _require_keys(payload: dict, allowed: set[str], where: str) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise SchemaError(
            f"unknown {where} field(s): {', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(sorted(allowed))})")


def _parse_scale(value, default=None) -> float | None:
    if value is None:
        return default
    try:
        scale = float(value)
    except (TypeError, ValueError):
        raise SchemaError(f"scale must be a number, got {value!r}") from None
    if not MIN_SCALE <= scale <= MAX_SCALE:
        raise SchemaError(
            f"scale {scale:g} out of range [{MIN_SCALE}, {MAX_SCALE}]")
    return scale


@dataclass(frozen=True)
class PointSpec:
    """One requested simulation point, still by-name (not yet a config)."""

    scheme: str
    app: str
    scale: float | None = None
    tag: str = ""
    pair_with: str | None = None

    def to_sweep_point(self):
        """Materialize into the sweep engine's :class:`SweepPoint`."""
        from repro.experiments.sweep import SweepPoint
        return SweepPoint(config=_schemes()[self.scheme](), app=self.app,
                          scale=self.scale, workload_tag=self.tag,
                          pair_with=self.pair_with)


@dataclass(frozen=True)
class JobSpec:
    """A fully validated job request, ready for the job store."""

    kind: str                       #: "points" | "figure" | "validate"
    points: tuple[PointSpec, ...] = ()
    figure: str | None = None
    validate_schemes: tuple[str, ...] = ()
    validate_seeds: int = 0
    validate_seed_start: int = 0
    scale: float | None = None
    sweep_jobs: int | None = None   #: worker override for this job

    def describe(self) -> str:
        if self.kind == "figure":
            return f"figure {self.figure}"
        if self.kind == "validate":
            return (f"validate {','.join(self.validate_schemes)} "
                    f"x{self.validate_seeds} seeds")
        return f"{len(self.points)} explicit points"


def _parse_point(entry, index: int, default_scale) -> PointSpec:
    if not isinstance(entry, dict):
        raise SchemaError(f"points[{index}] must be an object")
    _require_keys(entry, {"scheme", "app", "scale", "tag", "pair_with"},
                  f"points[{index}]")
    scheme = entry.get("scheme")
    if scheme not in _schemes():
        raise SchemaError(
            f"points[{index}].scheme {scheme!r} unknown "
            f"(choose from {', '.join(sorted(_schemes()))})")
    app = entry.get("app")
    if app not in _apps():
        raise SchemaError(f"points[{index}].app {app!r} unknown")
    pair = entry.get("pair_with")
    if pair is not None and pair not in _apps():
        raise SchemaError(f"points[{index}].pair_with {pair!r} unknown")
    tag = entry.get("tag", "")
    if not isinstance(tag, str) or len(tag) > 64:
        raise SchemaError(f"points[{index}].tag must be a short string")
    return PointSpec(scheme=scheme, app=app,
                     scale=_parse_scale(entry.get("scale"), default_scale),
                     tag=tag, pair_with=pair)


def parse_job_request(payload) -> JobSpec:
    """Validate a decoded ``POST /jobs`` body into a :class:`JobSpec`."""
    if not isinstance(payload, dict):
        raise SchemaError("request body must be a JSON object")
    _require_keys(payload, {"points", "figure", "validate", "scale",
                            "jobs"}, "job")
    kinds = [k for k in ("points", "figure", "validate") if k in payload]
    if len(kinds) != 1:
        raise SchemaError(
            "a job must have exactly one of 'points', 'figure', 'validate'")
    scale = _parse_scale(payload.get("scale"))
    sweep_jobs = payload.get("jobs")
    if sweep_jobs is not None:
        if not isinstance(sweep_jobs, int) or not 1 <= sweep_jobs <= 64:
            raise SchemaError("jobs must be an integer in [1, 64]")
    common = {"scale": scale, "sweep_jobs": sweep_jobs}

    kind = kinds[0]
    if kind == "points":
        entries = payload["points"]
        if not isinstance(entries, list) or not entries:
            raise SchemaError("points must be a non-empty list")
        if len(entries) > MAX_POINTS_PER_JOB:
            raise SchemaError(
                f"points list exceeds the per-job cap "
                f"({len(entries)} > {MAX_POINTS_PER_JOB})")
        points = tuple(_parse_point(e, i, scale)
                       for i, e in enumerate(entries))
        return JobSpec(kind="points", points=points, **common)

    if kind == "figure":
        name = payload["figure"]
        if name not in _figures():
            raise SchemaError(
                f"figure {name!r} unknown "
                f"(choose from {', '.join(sorted(_figures()))})")
        return JobSpec(kind="figure", figure=name, **common)

    body = payload["validate"]
    if not isinstance(body, dict):
        raise SchemaError("validate must be an object")
    _require_keys(body, {"schemes", "seeds", "seed_start"}, "validate")
    from repro.validation.differential import SCHEME_FACTORIES
    schemes = body.get("schemes")
    if (not isinstance(schemes, list) or not schemes
            or any(s not in SCHEME_FACTORIES for s in schemes)):
        raise SchemaError(
            f"validate.schemes must be a non-empty list from "
            f"{', '.join(sorted(SCHEME_FACTORIES))}")
    seeds = body.get("seeds", 10)
    if not isinstance(seeds, int) or not 1 <= seeds <= MAX_VALIDATE_SEEDS:
        raise SchemaError(
            f"validate.seeds must be an integer in [1, {MAX_VALIDATE_SEEDS}]")
    seed_start = body.get("seed_start", 0)
    if not isinstance(seed_start, int) or seed_start < 0:
        raise SchemaError("validate.seed_start must be a non-negative int")
    return JobSpec(kind="validate", validate_schemes=tuple(schemes),
                   validate_seeds=seeds, validate_seed_start=seed_start,
                   **common)
