"""Cache catalog: decode result-cache entries back into experiment points.

A cache filename carries only ``<app>-<digest>.json`` — the digest is a
one-way hash of the full point key (SIM_VERSION, canonical config JSON,
app, scale, tag) — so the catalog leans on the key manifest the runner
writes at fill time (``<root>/meta/keys/<digest>.json``,
:func:`repro.experiments.runner.load_key_manifest`), which also carries
the host seconds the fill took.  Entries filled before the manifest
existed decode from the payload's own ``app`` / ``backend`` fields with
unknown scale, version and seconds; they are still listed, just less
precisely.

Scheme names are recovered by comparing the manifest's canonical config
JSON against every registered scheme factory's
(:data:`repro.experiments.configs.SCHEMES`).  A config that matches no
factory — e.g. a figure's modified variant — reports the payload's
backend value instead.

Nothing in this module simulates, writes, or locks: the catalog is a
read-only view, safe to take while a sweep is filling the same cache
(atomic renames mean every file it sees is whole).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.stats import LatencyHistogram
from repro.experiments import runner
from repro.experiments.configs import SCHEMES


@dataclass
class CatalogEntry:
    """One decoded result-cache point."""

    digest: str
    file: str                       #: cache filename (``<app>-<digest>.json``)
    app: str
    backend: str                    #: payload's backend value
    scheme: str                     #: decoded scheme name, or the backend
    scale: float | None             #: None when no manifest survived
    sim_version: str | None         #: None when no manifest survived
    tag: str
    seconds: float | None           #: fill-time host seconds (manifest)
    cycles: int
    payload: dict = field(repr=False, default_factory=dict)

    @property
    def latency(self) -> LatencyHistogram:
        """The point's translation-latency histogram (may be empty)."""
        return LatencyHistogram.from_dict(
            self.payload.get("translation_latency"))

    def result(self):
        """The full :class:`~repro.gpu.mcm.SimResult` behind this entry."""
        return runner._deserialize(dict(self.payload))


def scheme_index() -> dict[str, str]:
    """Canonical config JSON -> scheme name, for every registered scheme."""
    return {runner._config_key(factory()): name
            for name, factory in sorted(SCHEMES.items())}


def _entry_from_file(path: Path,
                     schemes: dict[str, str]) -> CatalogEntry | None:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None     # torn tmp file mid-rename, or vanished underneath us
    if not isinstance(payload, dict) or "cycles" not in payload:
        return None
    digest = path.stem.rsplit("-", 1)[-1]
    manifest = runner.load_key_manifest(digest, path.parent) or {}
    backend = str(payload.get("backend", "?"))
    scheme = schemes.get(manifest.get("config"), backend)
    return CatalogEntry(
        digest=digest, file=path.name,
        app=str(manifest.get("app", payload.get("app", "?"))),
        backend=backend, scheme=scheme,
        scale=manifest.get("scale"),
        sim_version=manifest.get("sim_version"),
        tag=str(manifest.get("tag", "")),
        seconds=manifest.get("seconds"),
        cycles=int(payload["cycles"]),
        payload=payload)


def scan(root: Path | str | None = None) -> list[CatalogEntry]:
    """Every decodable point in the result cache, deterministically ordered.

    ``root=None`` uses the runner's active cache directory (so the
    catalog honours ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` exactly like
    the runner does); pass a path to inspect an arbitrary cache copy.
    Ordering is (app, scheme, tag, scale, digest) — stable across runs
    so rendered reports diff cleanly.
    """
    if root is None:
        root = runner._cache_dir()
        if root is None:
            return []
    root = Path(root)
    if not root.is_dir():
        return []
    schemes = scheme_index()
    entries = []
    for path in sorted(root.glob("*.json")):
        entry = _entry_from_file(path, schemes)
        if entry is not None:
            entries.append(entry)
    entries.sort(key=lambda e: (e.app, e.scheme, e.tag,
                                e.scale if e.scale is not None else -1.0,
                                e.digest))
    return entries


def group_by_scheme(entries: list[CatalogEntry],
                    sim_version: str | None = None,
                    tag: str = "") -> dict[str, dict[str, CatalogEntry]]:
    """scheme -> app -> entry, filtered to one version and workload tag.

    Points without a manifest (``sim_version`` None) are kept only when
    no version filter is requested — a comparison table must never mix
    simulator generations.  Duplicate (scheme, app) cells — e.g. the
    same point at two scales — keep the highest scale, which is the
    least-noisy measurement.
    """
    grouped: dict[str, dict[str, CatalogEntry]] = {}
    for entry in entries:
        if entry.tag != tag:
            continue
        if sim_version is not None and entry.sim_version != sim_version:
            continue
        cell = grouped.setdefault(entry.scheme, {})
        held = cell.get(entry.app)
        if held is None or (entry.scale or 0.0) > (held.scale or 0.0):
            cell[entry.app] = entry
    return grouped
