"""GMMU tests: local vs remote walks, PEC integration."""

from repro.common import (
    EventQueue,
    IommuConfig,
    LinkConfig,
    MappingKind,
    MemoryMap,
)
from repro.gmmu import Gmmu, GmmuHandler
from repro.iommu import AtsRequest
from repro.mapping import (
    AllocationRequest,
    FrameAllocatorGroup,
    GpuDriver,
    make_policy,
)
from repro.memsim import AddressSpaceRegistry, Mesh


def make_gmmu(chiplet_id=0, barre=False, walk=100):
    queue = EventQueue()
    mm = MemoryMap(num_chiplets=4, frames_per_chiplet=4096)
    allocators = FrameAllocatorGroup(4, 4096)
    spaces = AddressSpaceRegistry()
    driver = GpuDriver(mm, allocators, spaces,
                       make_policy(MappingKind.CHUNKING, 4),
                       barre_enabled=barre)
    mesh = Mesh(queue, LinkConfig(latency=32, cycles_per_packet=1), 4)
    responses = []
    gmmu = Gmmu(queue, chiplet_id,
                IommuConfig(num_ptws=2, walk_latency=walk),
                spaces, driver.pec_buffer, mm.chiplet_bases,
                respond=responses.append,
                pt_owner=driver.chiplet_of, mesh=mesh,
                barre_enabled=barre)
    return queue, driver, gmmu, responses, mesh


def req(vpn, chiplet=0):
    return AtsRequest(pasid=0, vpn=vpn, src_chiplet=chiplet)


def test_local_walk_costs_base_latency():
    queue, driver, gmmu, responses, _mesh = make_gmmu(chiplet_id=0)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=8))
    # Chunking maps the first two pages to chiplet 0: local walk.
    gmmu.receive(req(rec.start_vpn))
    queue.run()
    assert queue.now == 100
    assert gmmu.stats.count("local_walks") == 1
    assert gmmu.stats.count("remote_walks") == 0


def test_remote_walk_adds_mesh_round_trip():
    queue, driver, gmmu, responses, mesh = make_gmmu(chiplet_id=0)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=8))
    # The last pages live on chiplet 3: remote page-table walk.
    gmmu.receive(req(rec.end_vpn))
    queue.run()
    assert queue.now == 100 + 2 * 32
    assert gmmu.stats.count("remote_walks") == 1
    assert mesh.packets_sent == 2  # PTE fetch there and back


def test_barre_gmmu_coalesces():
    queue, driver, gmmu, responses, _mesh = make_gmmu(barre=True)
    rec = driver.malloc(AllocationRequest(data_id=1, pages=4, row_pages=1))
    assert rec.coalesced_pages == 4
    for vpn in range(rec.start_vpn, rec.start_vpn + 4):
        gmmu.receive(req(vpn))
    queue.run()
    assert gmmu.stats.count("pec_coalesced") > 0
    assert len(responses) == 4


def test_handler_routes_and_delivers():
    queue, driver, gmmu, _responses, _mesh = make_gmmu()
    rec = driver.malloc(AllocationRequest(data_id=1, pages=4))
    handler = GmmuHandler(gmmu, chiplet_id=0)
    got = []
    handler.resolve(0, rec.start_vpn, got.append)
    handler.resolve(0, rec.start_vpn, got.append)  # merged
    queue.run()
    assert len(got) == 2
    table = driver.spaces.get(0)
    assert got[0].global_pfn == table.walk(rec.start_vpn).global_pfn
    assert gmmu.stats.count("walks") == 1
