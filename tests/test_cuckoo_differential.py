"""Differential check: the production cuckoo filter against a frozen copy.

``tests/reference_cuckoo.py`` keeps the list-per-row filter as it stood
before its kick loop was rewritten.  Both filters get the same
batch streams, and after every batch their per-item results, changed rows,
row contents, sizes, kick cursors and ``contains`` answers (over every item
the stream has named so far) must agree.  A second production filter
replays each recorded effect, so the replica path is held to the same
states.

The streams are the LCF and RCF traffic of F-Barre points whose RCFs
saturate (kick chains that fail, and drops at the 95% ceiling), plus
seeded random batches that hold a filter at 60-99% offered load.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.config import CuckooConfig
from repro.experiments import configs
from repro.filters import CuckooFilter
from repro.gpu.mcm import McmGpuSimulator
from repro.workloads.suite import get_workload
from tests.reference_cuckoo import ReferenceCuckooFilter

#: One stream: ``(add, items)`` batches in arrival order.
Stream = list[tuple[bool, tuple[int, ...]]]


class _Recorder:
    """Stands in for one agent filter and logs what it is fed."""

    def __init__(self, inner: CuckooFilter, log: Stream) -> None:
        self._inner = inner
        self.log = log

    def insert(self, item: int) -> bool:
        self.log.append((True, (item,)))
        return self._inner.insert(item)

    def delete(self, item: int) -> bool:
        self.log.append((False, (item,)))
        return self._inner.delete(item)

    def apply_batch(self, add, items, seq, effect=None):
        self.log.append((add, tuple(items)))
        return self._inner.apply_batch(add, items, seq, effect)

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def recorded_streams(app: str) -> dict[str, Stream]:
    """The LCF and RCF streams of one F-Barre point at scale 0.05.

    Every peer holds an identical replica of a sender's RCF stream, so one
    receiver's copy of each sender's stream is kept.
    """
    sim = McmGpuSimulator(configs.fbarre(), [get_workload(app)],
                          trace_scale=0.05)
    streams: dict[str, Stream] = {}
    for cid, agent in sim.agents.items():
        agent.lcf = _Recorder(agent.lcf, streams.setdefault(f"lcf.{cid}", []))
        agent.rcfs = {peer: _Recorder(rcf, streams.setdefault(
            f"rcf.{cid}<-{peer}", [])) for peer, rcf in agent.rcfs.items()}
    sim.run()
    kept: dict[str, Stream] = {}
    for name, stream in streams.items():
        if name.startswith("rcf.") and stream in kept.values():
            continue
        kept[name] = stream
    return kept


def check_stream(config: CuckooConfig, stream: Stream, *,
                 single_ops: bool) -> dict[str, int]:
    """Feed ``stream`` to all three filters, comparing after every batch.

    ``single_ops`` sends one-item batches through ``insert``/``delete``
    (the LCF's path) instead of ``apply_batch`` (the RCFs').  Returns how
    many inserts the stream placed after a kick chain, dropped after a
    failed chain, and dropped at the ceiling.
    """
    reference = ReferenceCuckooFilter(config)
    computed, replica = CuckooFilter(config), CuckooFilter(config)
    seen: list[int] = []
    known: set[int] = set()
    outcomes = {"chains_ok": 0, "chains_failed": 0, "ceiling_drops": 0}
    for seq, (add, items) in enumerate(stream):
        touched: set[int] = set()
        results = []
        for item in items:
            if not add:
                results.append(reference.delete(item, touched))
                continue
            cursor = reference._kick_cursor
            ok = reference.insert(item, touched)
            kicks = reference._kick_cursor - cursor
            if ok and kicks:
                outcomes["chains_ok"] += 1
            elif not ok:
                outcomes["chains_failed" if kicks else "ceiling_drops"] += 1
            results.append(ok)
        rows = reference.rows()
        if single_ops:
            (item,) = items
            for f in (computed, replica):
                assert (f.insert if add else f.delete)(item) == results[0]
        else:
            effect = computed.apply_batch(add, items, seq)
            assert list(effect.results) == results
            assert sorted(effect.rows) == [(row, rows[row])
                                           for row in sorted(touched)]
            assert effect.size == len(reference)
            assert effect.kick_cursor == reference._kick_cursor
            assert replica.apply_batch(add, items, seq, effect) is effect
        for f in (computed, replica):
            assert f.rows() == rows
            assert len(f) == len(reference)
            assert f._kick_cursor == reference._kick_cursor
        for item in items:
            if item not in known:
                known.add(item)
                seen.append(item)
        expected = [reference.contains(item) for item in seen]
        assert [computed.contains(item) for item in seen] == expected
        assert computed.members(seen) == [
            item for item, hit in zip(seen, expected) if hit]
    return outcomes


@pytest.mark.parametrize("app", ["matr", "gups", "spmv"])
def test_fbarre_filter_streams_match_reference(app):
    config = configs.fbarre().cuckoo
    outcomes = {"chains_ok": 0, "chains_failed": 0, "ceiling_drops": 0}
    for name, stream in recorded_streams(app).items():
        got = check_stream(config, stream, single_ops=name.startswith("lcf"))
        for key, count in got.items():
            outcomes[key] += count
    # The RCFs saturate: the streams must reach every insert outcome.
    assert all(outcomes.values()), outcomes


def random_stream(seed: int, config: CuckooConfig,
                  batches: int = 160) -> Stream:
    """Add/delete batches that hold the load inside a drifting 60-99% band
    of capacity (past the 95% ceiling, inserts drop)."""
    rng = np.random.default_rng(seed)
    resident: list[int] = []
    stream: Stream = []
    target = 0.6
    for _ in range(batches):
        target = min(0.99, max(0.6, target + rng.uniform(-0.08, 0.08)))
        add = len(resident) < target * config.capacity or not resident
        if add:
            items = [int(v) for v in rng.integers(0, 1 << 40, size=16)]
            resident.extend(items)
        else:
            picks = sorted(rng.choice(len(resident), replace=False,
                                      size=min(12, len(resident))))
            items = [resident[i] for i in picks]
            for i in reversed(picks):
                del resident[i]
            items.append(int(rng.integers(0, 1 << 40)))  # likely absent
        stream.append((add, tuple(items)))
    return stream


#: Default geometry, a tight one with short chains, and ways that are
#: neither 4 nor a power of two.
GEOMETRIES = [CuckooConfig(),
              CuckooConfig(rows=16, ways=2, fingerprint_bits=6, max_kicks=8),
              CuckooConfig(rows=32, ways=3, fingerprint_bits=7, max_kicks=20),
              CuckooConfig(rows=64, ways=1, fingerprint_bits=8, max_kicks=12)]


@pytest.mark.parametrize("config", GEOMETRIES,
                         ids=lambda c: f"{c.rows}x{c.ways}")
@pytest.mark.parametrize("seed", [0, 1])
def test_random_streams_match_reference(seed, config):
    outcomes = check_random_stream(seed, config)
    assert outcomes["chains_ok"] and outcomes["chains_failed"], outcomes


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(50))
def test_random_streams_match_reference_deep(seed):
    for config in GEOMETRIES:
        check_random_stream(1000 + seed, config)


def check_random_stream(seed: int, config: CuckooConfig) -> dict[str, int]:
    stream = random_stream(seed, config,
                           batches=160 if config.capacity <= 256 else 400)
    return check_stream(config, stream, single_ops=False)
