"""Memory fabric and migration engine tests."""

from repro.common import EventQueue, LinkConfig, MemoryMap, MappingKind
from repro.common.config import MigrationConfig
from repro.gpu.memory import MemoryFabric
from repro.mapping import (
    AllocationRequest,
    FrameAllocatorGroup,
    GpuDriver,
    make_policy,
)
from repro.memsim import AddressSpaceRegistry, Mesh
from repro.migration import MigrationEngine


def make_fabric(dram=100, mesh_latency=32, frames_per_chiplet=1000):
    q = EventQueue()
    mm = MemoryMap(num_chiplets=4, frames_per_chiplet=frames_per_chiplet)
    mesh = Mesh(q, LinkConfig(latency=mesh_latency, cycles_per_packet=1), 4)
    return q, MemoryFabric(q, mm, mesh, dram_latency=dram)


def test_local_access_costs_dram_only():
    q, fabric = make_fabric()
    times = []
    fabric.access(0, 0, 0, 5, lambda: times.append(q.now))
    q.run()
    assert times == [100]
    assert fabric.stats.count("local_accesses") == 1


def test_remote_access_adds_mesh_round_trip():
    q, fabric = make_fabric()
    times = []
    # Frame 2500 is chiplet 2's.
    fabric.access(0, 0, 0, 2500, lambda: times.append(q.now))
    q.run()
    assert times == [100 + 2 * 32]
    assert fabric.stats.count("remote_accesses") == 1
    assert fabric.remote_fraction() == 1.0


def test_owner_of_uses_frame_windows():
    _q, fabric = make_fabric()
    assert fabric.owner_of(0) == 0
    assert fabric.owner_of(999) == 0
    assert fabric.owner_of(1000) == 1
    assert fabric.owner_of(3999) == 3
    # A power-of-two window resolves by shift instead of division.
    _q, fabric = make_fabric(frames_per_chiplet=1024)
    assert fabric._owner_shift == 10
    assert fabric.owner_of(1023) == 0
    assert fabric.owner_of(1024) == 1
    assert fabric.owner_of(4095) == 3


class FakeChiplet:
    def __init__(self):
        self.invalidated = []

    def invalidate(self, pasid, vpn):
        self.invalidated.append((pasid, vpn))


class TestMigrationEngine:
    def make(self, threshold=3):
        q = EventQueue()
        mm = MemoryMap(num_chiplets=2, frames_per_chiplet=64)
        allocators = FrameAllocatorGroup(2, 64)
        spaces = AddressSpaceRegistry()
        driver = GpuDriver(mm, allocators, spaces,
                           make_policy(MappingKind.LASP, 2),
                           barre_enabled=True)
        rec = driver.malloc(AllocationRequest(data_id=1, pages=2, row_pages=1))
        mesh = Mesh(q, LinkConfig(latency=10, cycles_per_packet=1), 2)
        chiplets = [FakeChiplet(), FakeChiplet()]
        engine = MigrationEngine(q, MigrationConfig(enabled=True,
                                                    threshold=threshold,
                                                    page_copy_latency=100),
                                 driver, chiplets, mesh)
        return q, driver, engine, chiplets, rec

    def test_threshold_triggers_migration(self):
        _q, driver, engine, chiplets, rec = self.make(threshold=3)
        vpn = rec.start_vpn  # lives on chiplet 0
        for _ in range(3):
            engine.note_access(accessor=1, owner=0, pasid=0, vpn=vpn)
        assert engine.migrations == 1
        assert driver.chiplet_of(0, vpn) == 1
        # All group members' entries were shot down in every chiplet.
        assert len(chiplets[0].invalidated) == 2

    def test_below_threshold_no_migration(self):
        _q, _driver, engine, _chiplets, rec = self.make(threshold=5)
        for _ in range(4):
            engine.note_access(1, 0, 0, rec.start_vpn)
        assert engine.migrations == 0

    def test_local_accesses_do_not_count(self):
        _q, _driver, engine, _chiplets, rec = self.make(threshold=1)
        engine.note_access(0, 0, 0, rec.start_vpn)
        assert engine.migrations == 0

    def test_disabled_engine_ignores_everything(self):
        q, driver, _engine, chiplets, rec = self.make()
        mesh = Mesh(q, LinkConfig(latency=10), 2)
        engine = MigrationEngine(q, MigrationConfig(enabled=False),
                                 driver, chiplets, mesh)
        for _ in range(50):
            engine.note_access(1, 0, 0, rec.start_vpn)
        assert engine.migrations == 0

    def test_counters_reset_after_migration(self):
        _q, _driver, engine, _chiplets, rec = self.make(threshold=2)
        vpn = rec.start_vpn
        for _ in range(2):
            engine.note_access(1, 0, 0, vpn)
        assert engine.migrations == 1
        # Back on chiplet 1 now; accesses from 0 must count afresh.
        engine.note_access(0, 1, 0, vpn)
        assert engine.migrations == 1

    def test_copy_occupies_mesh_link(self):
        q, _driver, engine, _chiplets, rec = self.make(threshold=1)
        engine.note_access(1, 0, 0, rec.start_vpn)
        times = []
        engine.mesh.send(0, 1, None, lambda _p: times.append(q.now))
        q.run()
        assert times[0] >= 100  # queued behind the page copy
