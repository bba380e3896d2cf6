"""Golden-run regression net: a cycle-for-cycle behavioral freeze.

Every point in :data:`POINTS` is simulated with tracing on and reduced to
the artifacts that together pin the simulator's observable behavior:

* the **full serialized stats payload** (every ``SimResult`` field the
  disk cache persists, including the VPN-gap and latency histograms);
* the **SHA256 of the trace JSONL export** — the byte-exact span stream,
  which freezes the cycle stamp of every phase transition of every
  translation request;
* the **SHA256 of the cache payload** (``json.dumps`` of the serialized
  stats) — what :mod:`repro.experiments.runner` writes to disk, so cached
  results stay loadable and byte-identical across refactors;
* for multi-tenant scenario points, ``SimResult.extra`` as well
  (teardowns, dead PASIDs, per-PASID counters), which the cache payload
  leaves out.

Each point also runs untraced, the fast path every sweep and benchmark
times, and once more through the kernel's instrumented loop: both must
serialize to the golden cache payload and fire exactly the pinned number
of events, ending at the pinned cycle (:data:`EVENT_PINS`), so an added,
dropped or re-timed event fails even where the stats happen to agree.

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
from repro.scenarios import NAMED_SCENARIOS, ScenarioWorkload, named_scenario
from repro.workloads.suite import get_workload

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Small but path-diverse: every translation backend, the IOMMU TLB, and
#: migration each exercise a different set of inner loops.
SCALE = 0.05
#: Scenario points replay their pinned timeline at full trace scale, as
#: ``repro validate --scenario`` does: smaller traces drain before the
#: mid-run teardown has walks in flight to kill.
SCENARIO_SCALE = 1.0

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
    # Fig 19's oracle sharing mesh: the oracle branch of ``Link.send``.
    "fbarre-oracle-sharing-gemv": (
        lambda: configs.fbarre(oracle_sharing=True), (), "gemv"),
    # 16 chiplets: every filter update fans out to 15 RCF replicas.
    "fbarre-16c-gemv": (lambda: configs.fbarre(num_chiplets=16), (), "gemv"),
    # Demand paging: the IOMMU's and the GMMUs' fault handlers.
    "fbarre-ondemand-gemv": (lambda: configs.fbarre(demand_paging=True),
                             (), "gemv"),
    "mgvm-ondemand-gemv": (lambda: configs.mgvm(demand_paging=True),
                           (), "gemv"),
    # Multi-tenant churn: the dead-PASID guards, per-PASID counters and
    # per-PASID gap histograms of the IOMMU and of the GMMUs.
    "fbarre-churn-min": (configs.fbarre, (), "churn-min"),
    "mgvm-churn-min": (configs.mgvm, (), "churn-min"),
}


#: ``(queue.events_fired, queue.now)`` at the end of each point's run,
#: captured before the access path was flattened into bound-method
#: partials.  The count and the final cycle are the same traced or not.
EVENT_PINS: dict[str, tuple[int, int]] = {
    "barre-gemv": (7732, 5987),
    "baseline-gemv": (7739, 7479),
    "fbarre-16c-gemv": (14957, 4080),
    "fbarre-churn-min": (1011, 1864),
    "fbarre-fft": (17814, 14244),
    "fbarre-gemv": (8809, 4247),
    "fbarre-migration-gemv": (8809, 4247),
    "fbarre-ondemand-gemv": (8487, 18955),
    "fbarre-oracle-sharing-gemv": (8809, 4247),
    "iommu-tlb-gemv": (7972, 6713),
    "least-gemv": (7740, 6513),
    "mgvm-churn-min": (947, 1769),
    "mgvm-gemv": (7411, 8573),
    "mgvm-ondemand-gemv": (7586, 72187),
    "shared-l2-gemv": (7614, 6461),
    "valkyrie-gemv": (7842, 7481),
}


def _workload(app: str):
    """A Table I app by abbreviation, or a pinned named scenario."""
    if app in NAMED_SCENARIOS:
        return ScenarioWorkload.from_scenario(named_scenario(app))
    return get_workload(app)


def _digest(name: str, tmp_dir: Path) -> dict:
    """Run one golden point and reduce it to its frozen artifacts."""
    factory, args, app = POINTS[name]
    scale = SCENARIO_SCALE if app in NAMED_SCENARIOS else SCALE
    sim = McmGpuSimulator(factory(*args), [_workload(app)],
                          trace_scale=scale, trace=True)
    result = sim.run()
    cache_payload = json.dumps(_serialize(result))
    jsonl_path = write_spans_jsonl(sim.tracer.spans, tmp_dir / f"{name}.jsonl")
    digest = {
        "point": name,
        "app": app,
        "scale": scale,
        # Round-trip through JSON so regen and check compare like with like.
        "stats": json.loads(cache_payload),
        "spans": len(sim.tracer.spans),
        "trace_jsonl_sha256": hashlib.sha256(
            jsonl_path.read_bytes()).hexdigest(),
        "cache_payload_sha256": hashlib.sha256(
            cache_payload.encode()).hexdigest(),
    }
    if result.extra:
        # Scenario bookkeeping (teardowns, dead PASIDs, per-PASID
        # counters) is not in the cache payload, so it is pinned here.
        digest["extra"] = json.loads(json.dumps(result.extra))
    return digest


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
    extra, golden_extra = actual.get("extra", {}), golden.get("extra", {})
    assert extra == golden_extra, (
        f"{name}: scenario extras drifted; first divergence -> "
        f"{_first_divergence(golden_extra, extra)}")
    assert actual["spans"] == golden["spans"], (
        f"{name}: span count drifted {golden['spans']} -> {actual['spans']}")
    assert actual["trace_jsonl_sha256"] == golden["trace_jsonl_sha256"], (
        f"{name}: trace JSONL bytes drifted (stats identical — a phase "
        f"stamp moved or reordered; diff `repro trace --format jsonl`)")
    assert actual["cache_payload_sha256"] == golden["cache_payload_sha256"], (
        f"{name}: cache payload bytes drifted (stats compare equal but "
        f"serialize differently — key order or float formatting changed)")


def _untraced_run(name: str, *, instrumented: bool) -> tuple[str, int, int]:
    """Cache payload sha256, events fired and final cycle of an untraced
    run, through the kernel's fast loop or, with a no-op ``on_step`` hook,
    through its instrumented ``step()`` loop."""
    factory, args, app = POINTS[name]
    scale = SCENARIO_SCALE if app in NAMED_SCENARIOS else SCALE
    sim = McmGpuSimulator(factory(*args), [_workload(app)],
                          trace_scale=scale)
    if instrumented:
        sim.queue.on_step = lambda: None
    payload = json.dumps(_serialize(sim.run()))
    return (hashlib.sha256(payload.encode()).hexdigest(),
            sim.queue.events_fired, sim.queue.now)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_untraced_run_matches_golden(name: str) -> None:
    """The untraced fast path serializes to the traced golden's bytes and
    fires the pinned events, ending at the pinned cycle."""
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    sha, fired, now = _untraced_run(name, instrumented=False)
    assert sha == golden["cache_payload_sha256"], (
        f"{name}: the untraced run's cache payload differs from the golden")
    assert (fired, now) == EVENT_PINS[name], (
        f"{name}: (events_fired, final cycle) drifted "
        f"{EVENT_PINS[name]} -> {(fired, now)}")


@pytest.mark.parametrize("name", sorted(POINTS))
def test_instrumented_loop_matches_fast_loop(name: str) -> None:
    """``step()`` (taken when ``on_step`` is set) and ``_run_fast`` fire the
    same events: same payload bytes, same count, same final cycle."""
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    sha, fired, now = _untraced_run(name, instrumented=True)
    assert sha == golden["cache_payload_sha256"]
    assert (fired, now) == EVENT_PINS[name]


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


#: Golden points whose F-Barre agents' end state is pinned as well.  The
#: SimResult payload leaves out ``rcf_insert_drops``, ``updates_applied``,
#: which replica computed each filter update, and the filters' exact
#: contents, so a filter refactor could move those and keep every digest.
AGENT_POINTS = ("fbarre-fft", "fbarre-16c-gemv")
AGENT_DIR = GOLDEN_DIR / "agents"


def _filter_digest(f) -> str:
    """SHA-256 over a filter's ordered rows, size and kick cursor."""
    state = [[list(row) for row in f.rows()], len(f), f._kick_cursor]
    return hashlib.sha256(json.dumps(state).encode()).hexdigest()


def _agent_state(name: str) -> dict:
    factory, args, app = POINTS[name]
    sim = McmGpuSimulator(factory(*args), [get_workload(app)],
                          trace_scale=SCALE)
    sim.run()
    return {"point": name, "agents": {
        str(cid): {
            "stats": dict(sorted(agent.stats.counters.items())),
            "updates_computed": agent.updates_computed,
            "updates_replayed": agent.updates_replayed,
            "lcf": _filter_digest(agent.lcf),
            "rcfs": {str(peer): _filter_digest(rcf)
                     for peer, rcf in sorted(agent.rcfs.items())},
        } for cid, agent in sim.agents.items()}}


@pytest.mark.parametrize("name", AGENT_POINTS)
def test_fbarre_agent_state_is_pinned(name: str) -> None:
    """Every agent's counters, replica split and filter contents."""
    golden = json.loads((AGENT_DIR / f"{name}.json").read_text())
    actual = _agent_state(name)
    assert actual["agents"].keys() == golden["agents"].keys()
    for cid, agent in golden["agents"].items():
        assert actual["agents"][cid] == agent, (
            f"{name}: agent {cid} drifted; first divergence -> "
            f"{_first_divergence(agent, actual['agents'][cid])}")


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
        AGENT_DIR.mkdir(exist_ok=True)
        for name in AGENT_POINTS:
            path = AGENT_DIR / f"{name}.json"
            path.write_text(json.dumps(_agent_state(name), indent=1,
                                       sort_keys=True) + "\n")
            print(f"wrote {path}")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regen", action="store_true",
                        help="regenerate tests/golden/*.json from this build")
    if parser.parse_args().regen:
        _regen()
    else:
        parser.error("pass --regen (plain runs happen through pytest)")
