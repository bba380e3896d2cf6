"""Test helper: check every delivered translation against the page table."""

from repro.common import ConfigError, SimulationError
from repro.gpu import McmGpuSimulator


def verify_translations(sim: McmGpuSimulator) -> McmGpuSimulator:
    """Make ``sim`` raise on any delivered PFN its page table disagrees with.

    Installs a ``pfn_observer`` that walks the page table at every data
    access, and returns ``sim``.  Refuses a migration config: there, a
    translation in flight may race a concurrent remap, so a PFN that no
    longer matches the table is not a fault.
    """
    if sim.config.migration.enabled:
        raise ConfigError("verify_translations is racy under migration")
    spaces = sim.spaces

    def check(_chiplet: int, _stream: int, pasid: int, vpn: int,
              pfn: int) -> None:
        expected = spaces.get(pasid).walk(vpn).global_pfn
        if pfn != expected:
            raise SimulationError(
                f"wrong translation: VPN {vpn:#x} -> {pfn:#x}, "
                f"page table says {expected:#x}")

    sim.pfn_observer = check
    return sim
