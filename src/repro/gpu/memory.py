"""Data-side memory fabric: local vs. remote DRAM accesses.

After translation, the access touches the frame's owning chiplet.  Remote
accesses pay a mesh round trip and consume mesh bandwidth — this is the
NUMA effect that makes coarse (super-page) mappings lose on hot-page apps
(Fig 2, Fig 25) and that locality-aware policies minimize (Fig 26).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.common.config import MemoryMap
from repro.common.events import EventQueue
from repro.common.stats import StatSet
from repro.memsim.links import Mesh

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.migration.acud import MigrationEngine


class MemoryFabric:
    """Routes post-translation data accesses to their owning chiplet.

    Each chiplet's DRAM has finite bandwidth: accesses serialize at
    ``dram_serialization`` cycles apiece per owner.  When a coarse mapping
    concentrates hot data on one chiplet (super pages, round-robin misfits),
    that chiplet's queue grows — the hot-chiplet effect behind Fig 2/25/26.
    Every remote access is reported to the ``migration`` engine, if any.
    """

    def __init__(self, queue: EventQueue, memory_map: MemoryMap, mesh: Mesh,
                 dram_latency: int, dram_serialization: int = 2,
                 migration: MigrationEngine | None = None) -> None:
        self.queue = queue
        self.memory_map = memory_map
        self.mesh = mesh
        self.migration = migration
        self.dram_latency = dram_latency
        self.dram_serialization = dram_serialization
        self.stats = StatSet("memory")
        self._counters = self.stats.counters
        self._sums = self.stats.sums
        self._obs_counts = self.stats.sample_counts
        self._schedule = queue.schedule
        #: ``mesh.sends[src][dst]``: the remote path's per-pair link sends.
        self._sends = mesh.sends
        self._dram_free = [0] * memory_map.num_chiplets
        # Owner lookup runs once per data access.  Chiplet windows are
        # contiguous (MemoryMap.chiplet_bases), so a power-of-two window
        # resolves by shift; any other size falls back to division.
        frames = memory_map.frames_per_chiplet
        self._owner_shift = (frames.bit_length() - 1
                             if frames & (frames - 1) == 0 else None)
        self._frames_per_chiplet = frames

    def owner_of(self, global_pfn: int) -> int:
        shift = self._owner_shift
        if shift is not None:
            return global_pfn >> shift
        return global_pfn // self._frames_per_chiplet

    def _serve(self, owner: int, done: Callable[[], None]) -> None:
        """One DRAM access at ``owner``: queue for bandwidth, pay latency."""
        now = self.queue.now
        start = self._dram_free[owner]
        if start < now:
            start = now
        self._dram_free[owner] = start + self.dram_serialization
        # Inlined stats.observe("dram_queueing", ...): one per data access.
        self._sums["dram_queueing"] += start - now
        self._obs_counts["dram_queueing"] += 1
        self._schedule(start + self.dram_latency - now, done)

    def access(self, chiplet_id: int, pasid: int, vpn: int, global_pfn: int,
               done: Callable[[], None]) -> None:
        """Serve one data access; ``done()`` fires when the data is back.

        The local path is :meth:`owner_of` and :meth:`_serve` inlined; a
        remote access is noted to the migration engine, crosses the mesh
        to the owner, is served there and returns, one bound-method
        partial per hop.
        """
        shift = self._owner_shift
        owner = (global_pfn >> shift if shift is not None
                 else global_pfn // self._frames_per_chiplet)
        if owner == chiplet_id:
            self._counters["local_accesses"] += 1
            now = self.queue.now
            dram_free = self._dram_free
            start = dram_free[owner]
            if start < now:
                start = now
            dram_free[owner] = start + self.dram_serialization
            self._sums["dram_queueing"] += start - now
            self._obs_counts["dram_queueing"] += 1
            self._schedule(start + self.dram_latency - now, done)
            return
        self._counters["remote_accesses"] += 1
        if self.migration is not None:
            self.migration.note_access(chiplet_id, owner, pasid, vpn)
        self._sends[chiplet_id][owner](
            None, partial(self._at_owner, owner, chiplet_id, done))

    def _at_owner(self, owner: int, chiplet_id: int,
                  done: Callable[[], None], _payload: None) -> None:
        self._serve(owner, partial(self._reply, owner, chiplet_id, done))

    def _reply(self, owner: int, chiplet_id: int,
               done: Callable[[], None]) -> None:
        self._sends[owner][chiplet_id](None, partial(_arrived, done))

    def remote_fraction(self) -> float:
        total = (self.stats.count("local_accesses")
                 + self.stats.count("remote_accesses"))
        return self.stats.count("remote_accesses") / total if total else 0.0


def _arrived(done: Callable[[], None], _payload: None) -> None:
    """A data reply's mesh delivery: the access is complete."""
    done()
