"""Latency + serialization link models (PCIe and inter-chiplet mesh).

A link delivers each packet after ``latency`` cycles plus queueing behind
previously sent packets: the link serializes one packet every
``cycles_per_packet`` cycles, so sustained over-offered load builds a queue —
this is what makes ATS traffic reduction (Fig 16c) translate into speedup.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.common.config import LinkConfig
from repro.common.events import EventQueue
from repro.common.stats import StatSet


class Link:
    """A unidirectional bandwidth-limited channel.

    ``oracle=True`` removes serialization (fixed latency, infinite
    bandwidth) — the comparison point of Fig 19.
    """

    def __init__(self, queue: EventQueue, config: LinkConfig,
                 name: str = "link", oracle: bool = False) -> None:
        self.queue = queue
        self.config = config
        self.stats = StatSet(name)
        self.oracle = oracle
        self._next_free = 0
        # Resolved once: ``send`` runs for every translation message.
        self._latency = config.latency
        self._cycles_per_packet = config.cycles_per_packet
        self._counters = self.stats.counters
        self._sums = self.stats.sums
        self._samples = self.stats.sample_counts
        self._schedule = queue.schedule

    def send(self, payload: Any, deliver: Callable[[Any], None],
             packets: int = 1) -> int:
        """Enqueue ``payload``; ``deliver`` fires on arrival.

        ``packets`` charges the serialization of a multi-message batch
        (e.g. F-Barre's per-sibling filter updates) as one event.  Returns
        the delivery cycle (useful for tests).
        """
        now = self.queue.now
        if self.oracle:
            arrival = now + self._latency
        else:
            depart = self._next_free
            if depart < now:
                depart = now
            self._next_free = depart + self._cycles_per_packet * packets
            # ``stats.observe("queueing", ...)``, in place.
            self._sums["queueing"] += depart - now
            self._samples["queueing"] += 1
            arrival = depart + self._latency
        self._counters["packets"] += packets
        self._schedule(arrival - now, partial(deliver, payload))
        return arrival

    def occupy(self, cycles: int) -> None:
        """Block the link for a bulk transfer (e.g. a page-migration copy).

        Subsequent packets queue behind the transfer; oracle links ignore
        occupancy just as they ignore serialization.
        """
        if self.oracle or cycles <= 0:
            return
        start = max(self.queue.now, self._next_free)
        self._next_free = start + cycles
        self.stats.bump("bulk_transfers")
        self.stats.observe("bulk_cycles", cycles)

    @property
    def packets_sent(self) -> int:
        return self.stats.count("packets")


class DuplexLink:
    """A pair of independent directions sharing one config (PCIe style)."""

    def __init__(self, queue: EventQueue, config: LinkConfig,
                 name: str = "duplex", oracle: bool = False) -> None:
        self.up = Link(queue, config, name=f"{name}.up", oracle=oracle)
        self.down = Link(queue, config, name=f"{name}.down", oracle=oracle)

    @property
    def packets_sent(self) -> int:
        return self.up.packets_sent + self.down.packets_sent


class Mesh:
    """All-to-all inter-chiplet network: one link per ordered pair.

    Table II models the MCM interconnect as a 768 GB/s mesh with 32-cycle
    latency; we give each ordered chiplet pair its own serialized channel.
    """

    def __init__(self, queue: EventQueue, config: LinkConfig,
                 num_chiplets: int, oracle: bool = False) -> None:
        self.num_chiplets = num_chiplets
        self._links: dict[tuple[int, int], Link] = {}
        for src in range(num_chiplets):
            for dst in range(num_chiplets):
                if src != dst:
                    self._links[(src, dst)] = Link(
                        queue, config, name=f"mesh.{src}->{dst}", oracle=oracle)
        #: ``sends[src][dst]`` is that pair's bound ``Link.send`` (None on
        #: the diagonal): per-packet callers index it instead of hashing a
        #: ``(src, dst)`` tuple.
        self.sends: list[list[Callable[..., int] | None]] = [
            [self._links[(src, dst)].send if src != dst else None
             for dst in range(num_chiplets)]
            for src in range(num_chiplets)]

    def send(self, src: int, dst: int, payload: Any,
             deliver: Callable[[Any], None], packets: int = 1) -> int:
        if src == dst:
            raise ValueError(f"mesh send to self (chiplet {src})")
        return self._links[(src, dst)].send(payload, deliver, packets=packets)

    def link(self, src: int, dst: int) -> Link:
        return self._links[(src, dst)]

    @property
    def packets_sent(self) -> int:
        return sum(link.packets_sent for link in self._links.values())
