"""Per-chiplet GMMUs over a distributed page table (MGvm-style, §VII-F).

MGvm [41] gives every chiplet a private GMMU whose walkers traverse a page
table *distributed across chiplet memories*: the PTEs of a page live with
the chiplet that owns the page, so a walk is local when MGvm's coarse
mapping co-located them and remote (a mesh round trip per walk) otherwise.
Barre Chord composes with this: PEC coalescing in each GMMU removes local
*and* remote walks, which is exactly the Fig 21 comparison.
"""

from __future__ import annotations

from typing import Callable

from repro.common.config import IommuConfig
from repro.common.events import EventQueue
from repro.iommu.ats import AtsRequest, AtsResponse
from repro.iommu.iommu import Iommu
from repro.mapping.coalescing import PecBuffer
from repro.memsim.links import Mesh
from repro.memsim.page_table import AddressSpaceRegistry
from repro.memsim.tlb import TlbEntry
from repro.core.translation import MissHandler


class Gmmu(Iommu):
    """One chiplet's GMMU: a walker pool over the distributed page table."""

    def __init__(self, queue: EventQueue, chiplet_id: int,
                 config: IommuConfig, spaces: AddressSpaceRegistry,
                 pec_buffer: PecBuffer, chiplet_bases: tuple[int, ...],
                 respond: Callable[[AtsResponse], None],
                 pt_owner: Callable[[int, int], int], mesh: Mesh,
                 **walker) -> None:
        """``walker`` holds :class:`Iommu`'s keyword-only arguments."""
        super().__init__(queue, config, spaces, pec_buffer, chiplet_bases,
                         respond, **walker)
        self.chiplet_id = chiplet_id
        self.pt_owner = pt_owner
        self.mesh = mesh
        self.stats.name = f"gmmu.{chiplet_id}"

    def _walk_latency(self, request: AtsRequest) -> int:
        """Local walks cost the base latency; remote ones add a mesh RTT.

        The mesh packets for remote PTE fetches are charged on the link so
        heavy remote walking also consumes interconnect bandwidth.
        """
        owner = self.pt_owner(request.pasid, request.vpn)
        if owner == self.chiplet_id:
            self.stats.bump("local_walks")
            return self.config.walk_latency
        self.stats.bump("remote_walks")
        self.mesh.send(self.chiplet_id, owner, None, _ignore)
        self.mesh.send(owner, self.chiplet_id, None, _ignore)
        return self.config.walk_latency + 2 * self.mesh.link(
            self.chiplet_id, owner).config.latency


def _ignore(_payload: None) -> None:
    """Delivery of a PTE-fetch packet: its cost is in the walk latency."""


class GmmuHandler(MissHandler):
    """Routes a chiplet's L2 misses into its local GMMU."""

    def __init__(self, gmmu: Gmmu, chiplet_id: int, *,
                 dead_pasids: set[int] | None = None) -> None:
        self.gmmu = gmmu
        self.chiplet_id = chiplet_id
        self._waiting: dict[tuple[int, int], list[Callable]] = {}
        self.gmmu.respond = self._deliver
        #: Torn-down address spaces (the simulator's one set); a
        #: post-teardown resolve would leak a waiter forever — the GMMU
        #: flushes dead-PASID requests without responding.
        self.dead_pasids: set[int] = (set() if dead_pasids is None
                                      else dead_pasids)

    def resolve(self, pasid: int, vpn: int, done: Callable) -> None:
        if pasid in self.dead_pasids:
            self.gmmu.stats.bump("dead_resolves_dropped")
            return
        key = (pasid, vpn)
        waiters = self._waiting.setdefault(key, [])
        waiters.append(done)
        if len(waiters) == 1:
            self.gmmu.receive(AtsRequest(pasid, vpn, self.chiplet_id))

    def _deliver(self, response: AtsResponse) -> None:
        entry = TlbEntry(response.pasid, response.vpn, response.global_pfn,
                         response.coal, response.pec)
        for done in self._waiting.pop((response.pasid, response.vpn), []):
            done(entry)

    def purge_pasid(self, pasid: int) -> int:
        """Drop waiters of a destroyed address space (their GMMU walks die
        in the walker's dead-PASID guard; a late response is a no-op)."""
        dead = [key for key in self._waiting if key[0] == pasid]
        for key in dead:
            del self._waiting[key]
        return len(dead)
