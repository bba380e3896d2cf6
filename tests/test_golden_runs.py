"""Golden-run regression net: a cycle-for-cycle behavioral freeze.

Every point in :data:`POINTS` is simulated with tracing on and reduced to
three artifacts that together pin the simulator's observable behavior:

* the **full serialized stats payload** (every ``SimResult`` field the
  disk cache persists, including the VPN-gap and latency histograms);
* the **SHA256 of the trace JSONL export** — the byte-exact span stream,
  which freezes the cycle stamp of every phase transition of every
  translation request;
* the **SHA256 of the cache payload** (``json.dumps`` of the serialized
  stats) — what :mod:`repro.experiments.runner` writes to disk, so cached
  results stay loadable and byte-identical across refactors.

The goldens under ``tests/golden/`` were captured before the hot-path
optimization work and must survive it unchanged: any drift — a different
event order, a changed latency, a reordered dict — fails here with the
first divergent stat named.  That is the contract that lets the inner
loops be rewritten aggressively.

Regenerate only when a *semantic* change is intended (and say so in the
commit message, since cached sweep results invalidate too — bump
``SIM_VERSION``):

    PYTHONPATH=src python tests/test_golden_runs.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import configs
from repro.experiments.runner import _serialize
from repro.common.trace import write_spans_jsonl
from repro.gpu.mcm import McmGpuSimulator
from repro.workloads.suite import get_workload

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Small but path-diverse: every translation backend, the IOMMU TLB, and
#: migration each exercise a different set of inner loops.
SCALE = 0.05

POINTS: dict[str, tuple] = {
    "baseline-gemv": (configs.baseline, (), "gemv"),
    "shared-l2-gemv": (configs.shared_l2, (), "gemv"),
    "valkyrie-gemv": (configs.valkyrie, (), "gemv"),
    "least-gemv": (configs.least, (), "gemv"),
    "barre-gemv": (configs.barre, (), "gemv"),
    "fbarre-gemv": (configs.fbarre, (), "gemv"),
    "fbarre-fft": (configs.fbarre, (), "fft"),
    "mgvm-gemv": (configs.mgvm, (), "gemv"),
    "iommu-tlb-gemv": (lambda: configs.with_iommu_tlb(configs.baseline()),
                       (), "gemv"),
    "fbarre-migration-gemv": (lambda: configs.with_migration(configs.fbarre()),
                              (), "gemv"),
}


def _digest(name: str, tmp_dir: Path) -> dict:
    """Run one golden point and reduce it to its frozen artifacts."""
    factory, args, app = POINTS[name]
    sim = McmGpuSimulator(factory(*args), [get_workload(app)],
                          trace_scale=SCALE, trace=True)
    result = sim.run()
    cache_payload = json.dumps(_serialize(result))
    jsonl_path = write_spans_jsonl(sim.tracer.spans, tmp_dir / f"{name}.jsonl")
    return {
        "point": name,
        "app": app,
        "scale": SCALE,
        # Round-trip through JSON so regen and check compare like with like.
        "stats": json.loads(cache_payload),
        "spans": len(sim.tracer.spans),
        "trace_jsonl_sha256": hashlib.sha256(
            jsonl_path.read_bytes()).hexdigest(),
        "cache_payload_sha256": hashlib.sha256(
            cache_payload.encode()).hexdigest(),
    }


def _flatten(value, prefix: str = "") -> dict[str, object]:
    """Dotted-key view of a nested stats payload, for readable diffs."""
    if isinstance(value, dict):
        out: dict[str, object] = {}
        for key in sorted(value):
            out.update(_flatten(value[key], f"{prefix}.{key}" if prefix
                                else str(key)))
        return out
    return {prefix: value}


def _first_divergence(golden: dict, actual: dict) -> str | None:
    """Human-readable description of the first differing stat, or None."""
    flat_golden = _flatten(golden)
    flat_actual = _flatten(actual)
    for key in sorted(set(flat_golden) | set(flat_actual)):
        if key not in flat_actual:
            return f"{key}: golden={flat_golden[key]!r}, now missing"
        if key not in flat_golden:
            return f"{key}: new stat {flat_actual[key]!r}, absent from golden"
        if flat_golden[key] != flat_actual[key]:
            return (f"{key}: golden={flat_golden[key]!r}, "
                    f"got={flat_actual[key]!r}")
    return None


@pytest.mark.parametrize("name", sorted(POINTS))
def test_golden_run(name: str, tmp_path: Path) -> None:
    golden_path = GOLDEN_DIR / f"{name}.json"
    assert golden_path.exists(), (
        f"missing golden file {golden_path}; regenerate with "
        f"`PYTHONPATH=src python tests/test_golden_runs.py --regen`")
    golden = json.loads(golden_path.read_text())
    actual = _digest(name, tmp_path)

    divergence = _first_divergence(golden["stats"], actual["stats"])
    assert divergence is None, (
        f"behavioral drift in {name}: first divergent stat -> {divergence}\n"
        f"(if this change is intentional, regenerate the goldens AND bump "
        f"SIM_VERSION in src/repro/experiments/runner.py)")
    assert actual["spans"] == golden["spans"], (
        f"{name}: span count drifted {golden['spans']} -> {actual['spans']}")
    assert actual["trace_jsonl_sha256"] == golden["trace_jsonl_sha256"], (
        f"{name}: trace JSONL bytes drifted (stats identical — a phase "
        f"stamp moved or reordered; diff `repro trace --format jsonl`)")
    assert actual["cache_payload_sha256"] == golden["cache_payload_sha256"], (
        f"{name}: cache payload bytes drifted (stats compare equal but "
        f"serialize differently — key order or float formatting changed)")


def test_point_keys_are_pinned() -> None:
    """Point keys (hence cache filenames) never drift without intent.

    The digests are pinned literals: any change to the canonical config
    JSON — a new, renamed or removed ``SimConfig`` field, or a change to
    the encoder — moves them and orphans every existing cache entry.  If
    that is intended, bump ``SIM_VERSION`` and re-pin.
    """
    from repro.experiments.runner import point_digest, point_key

    assert point_digest(point_key(configs.baseline(), "gemv", 0.05)) \
        == "b09ea42a367fc88f91dfb44e"
    assert point_digest(point_key(configs.fbarre(), "gemv", 0.05)) \
        == "ab2724d81647b6d1ec2908aa"


def test_batch_engine_is_off_by_default(tmp_path: Path,
                                        monkeypatch) -> None:
    """The retired engine selector cannot switch anything back on.

    ``SimConfig`` has no ``engine`` field any more, and a stale
    ``REPRO_ENGINE`` in the environment changes neither the point key nor
    a single byte of a golden point's cache payload or trace.
    """
    import dataclasses

    from repro.common.config import SimConfig
    from repro.experiments.runner import point_key

    assert "engine" not in {f.name for f in dataclasses.fields(SimConfig)}
    cfg = configs.baseline()
    key = point_key(cfg, "gemv", SCALE)
    monkeypatch.setenv("REPRO_ENGINE", "batch")
    assert point_key(cfg, "gemv", SCALE) == key

    name = "baseline-gemv"
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    actual = _digest(name, tmp_path)
    assert actual["cache_payload_sha256"] == golden["cache_payload_sha256"]
    assert actual["trace_jsonl_sha256"] == golden["trace_jsonl_sha256"]


def test_engine_field_changes_cache_key_not_payload_bytes() -> None:
    """The retired ``engine`` field lives on in the cache key only.

    It is kept there as the constant ``"event"`` so existing point keys
    did not move (and entries once keyed for another engine can never be
    read back as these results), while the persisted payload never
    carried it, so cache bytes stay the same too.
    """
    from repro.experiments.runner import point_key

    cfg_json = point_key(configs.baseline(), "gemv", SCALE).split("|")[1]
    assert json.loads(cfg_json)["engine"] == "event"

    golden = json.loads((GOLDEN_DIR / "baseline-gemv.json").read_text())
    assert "engine" not in golden["stats"], (
        "an engine marker leaked into the persisted payload; that would "
        "change cache bytes for every result")


def test_golden_matrix_has_no_strays() -> None:
    """Every golden file corresponds to a live matrix point."""
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk == set(POINTS), (
        f"golden files and POINTS disagree: "
        f"only on disk {sorted(on_disk - set(POINTS))}, "
        f"only in matrix {sorted(set(POINTS) - on_disk)}")


def _regen() -> None:
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(POINTS):
            digest = _digest(name, Path(tmp))
            path = GOLDEN_DIR / f"{name}.json"
            path.write_text(json.dumps(digest, indent=2, sort_keys=True)
                            + "\n")
            print(f"wrote {path} ({digest['spans']} spans, "
                  f"{digest['stats']['cycles']} cycles)")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regen", action="store_true",
                        help="regenerate tests/golden/*.json from this build")
    if parser.parse_args().regen:
        _regen()
    else:
        parser.error("pass --regen (plain runs happen through pytest)")
