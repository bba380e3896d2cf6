"""Link / mesh serialization and latency tests."""

import pytest

from repro.common import EventQueue, LinkConfig
from repro.memsim import DuplexLink, Link, Mesh


def test_single_packet_latency():
    q = EventQueue()
    link = Link(q, LinkConfig(latency=150, cycles_per_packet=2))
    arrivals = []
    link.send("ats", lambda p: arrivals.append((q.now, p)))
    q.run()
    assert arrivals == [(150, "ats")]


def test_back_to_back_packets_serialize():
    """Packets sent the same cycle queue behind each other."""
    q = EventQueue()
    link = Link(q, LinkConfig(latency=100, cycles_per_packet=10))
    times = []
    for i in range(3):
        link.send(i, lambda p: times.append(q.now))
    q.run()
    assert times == [100, 110, 120]


def test_oracle_link_ignores_bandwidth():
    q = EventQueue()
    link = Link(q, LinkConfig(latency=100, cycles_per_packet=10), oracle=True)
    times = []
    for i in range(3):
        link.send(i, lambda p: times.append(q.now))
    q.run()
    assert times == [100, 100, 100]


def test_link_idle_gap_resets_serialization():
    q = EventQueue()
    link = Link(q, LinkConfig(latency=5, cycles_per_packet=10))
    times = []
    link.send("a", lambda p: times.append(q.now))
    q.schedule(50, lambda: link.send("b", lambda p: times.append(q.now)))
    q.run()
    assert times == [5, 55]  # second packet sees an idle link


def test_duplex_directions_independent():
    q = EventQueue()
    duplex = DuplexLink(q, LinkConfig(latency=10, cycles_per_packet=10))
    times = []
    duplex.up.send("u", lambda p: times.append(("u", q.now)))
    duplex.down.send("d", lambda p: times.append(("d", q.now)))
    q.run()
    assert sorted(times) == [("d", 10), ("u", 10)]
    assert duplex.packets_sent == 2


def test_mesh_routes_between_chiplets():
    q = EventQueue()
    mesh = Mesh(q, LinkConfig(latency=32, cycles_per_packet=1), num_chiplets=4)
    got = []
    mesh.send(0, 3, "probe", lambda p: got.append((q.now, p)))
    q.run()
    assert got == [(32, "probe")]
    assert mesh.packets_sent == 1


def test_mesh_rejects_self_send():
    q = EventQueue()
    mesh = Mesh(q, LinkConfig(latency=32), num_chiplets=2)
    with pytest.raises(ValueError):
        mesh.send(1, 1, "x", lambda p: None)


def test_mesh_send_table_holds_each_pairs_link():
    q = EventQueue()
    mesh = Mesh(q, LinkConfig(latency=32), num_chiplets=3)
    for src in range(3):
        for dst in range(3):
            send = mesh.sends[src][dst]
            if src == dst:
                assert send is None
            else:
                assert send.__self__ is mesh.link(src, dst)


def test_mesh_pairs_have_independent_bandwidth():
    q = EventQueue()
    mesh = Mesh(q, LinkConfig(latency=10, cycles_per_packet=100), num_chiplets=3)
    times = []
    mesh.send(0, 1, "a", lambda p: times.append(q.now))
    mesh.send(0, 2, "b", lambda p: times.append(q.now))
    mesh.send(0, 1, "c", lambda p: times.append(q.now))
    q.run()
    assert sorted(times) == [10, 10, 110]  # only the repeated pair queues


def test_link_stats_exact_for_batches_and_idle_gap():
    """Packet counts and the queueing mean and sample count stay exact:
    a 3-packet batch, a 2-packet batch behind it, then one after an idle
    gap."""
    q = EventQueue()
    link = Link(q, LinkConfig(latency=5, cycles_per_packet=10))
    got = []
    assert link.send("a", lambda p: got.append((q.now, p)), packets=3) == 5
    # Queues behind the batch's 30 serialization cycles.
    assert link.send("b", lambda p: got.append((q.now, p)), packets=2) == 35
    # The link is free again at cycle 50: no queueing at cycle 80.
    q.schedule(80, lambda: got.append(
        ("sent", link.send("c", lambda p: got.append((q.now, p))))))
    q.run()
    assert got == [(5, "a"), (35, "b"), ("sent", 85), (85, "c")]
    assert link.stats.as_dict() == {"packets": 6, "queueing_mean": 10.0,
                                    "queueing_samples": 3}
    assert link.packets_sent == 6


def test_oracle_link_counts_packets_and_never_queues():
    q = EventQueue()
    link = Link(q, LinkConfig(latency=7, cycles_per_packet=10), oracle=True)
    got = []
    assert link.send("a", lambda p: got.append(q.now), packets=4) == 7
    assert link.send("b", lambda p: got.append(q.now), packets=4) == 7
    q.run()
    assert got == [7, 7]
    assert link.stats.as_dict() == {"packets": 8}
    assert link.stats.samples("queueing") == 0
