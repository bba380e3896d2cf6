"""Scenario dataclasses: tenants, aging, lifecycle timelines.

Everything here is pure data plus deterministic derivations.  The only
state-mutating helper is :func:`apply_aging`, which pre-fragments the frame
allocators from the scenario seed — both the simulator and the reference
translator call it on identically-constructed allocator groups, so the two
sides observe the same post-aging free lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.workloads.base import DataSpec, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapping.allocator import FrameAllocatorGroup


@dataclass(frozen=True)
class TenantPlan:
    """One tenant: a workload plus its lifetime on the cycle timeline."""

    workload: Workload
    #: Cycle the tenant's data is allocated and its streams start issuing.
    arrival: int = 0
    #: Cycle the tenant's address space is torn down (None = runs to the
    #: end).  Teardown does not wait for the tenant's streams to drain —
    #: that is the point: it exercises teardown mid-walk.
    departure: int | None = None

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ConfigError(f"tenant arrival {self.arrival} < 0")
        if self.departure is not None and self.departure <= self.arrival:
            raise ConfigError(
                f"tenant departure {self.departure} must follow arrival "
                f"{self.arrival}")

    @property
    def pasid(self) -> int:
        return self.workload.pasid

    @property
    def immortal(self) -> bool:
        return self.departure is None


@dataclass(frozen=True)
class AgingPlan:
    """Allocator fragmentation aging applied before the measured phase.

    ``fraction`` of each chiplet's free frames is claimed at random (from
    the scenario seed); every ``release_every``-th claimed frame is then
    released again.  The released frames punch holes into the free list
    (degrading contiguity, Mosaic-style), while the rest stay resident for
    the whole run (residual occupancy from previous tenants).
    """

    fraction: float = 0.25
    release_every: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ConfigError(f"aging fraction {self.fraction} out of [0, 1)")
        if self.release_every < 1:
            raise ConfigError("aging release_every must be >= 1")


@dataclass(frozen=True)
class LifecycleEvent:
    """One timeline event in the canonical replay order."""

    cycle: int
    kind: str  # "arrive" | "depart"
    tenant: TenantPlan


@dataclass(frozen=True)
class Scenario:
    """A complete multi-tenant timeline, identified by (name, seed)."""

    name: str
    seed: int
    tenants: tuple[TenantPlan, ...]
    aging: AgingPlan | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario needs a name")
        if not self.tenants:
            raise ConfigError(f"scenario {self.name!r} has no tenants")
        pasids = [t.pasid for t in self.tenants]
        if len(set(pasids)) != len(pasids):
            raise ConfigError(
                f"scenario {self.name!r} reuses a PASID: {pasids} "
                f"(teardown semantics need unique address spaces)")

    @property
    def pasids(self) -> list[int]:
        return [t.pasid for t in self.tenants]

    @property
    def immortal_pasids(self) -> set[int]:
        """Tenants alive at end of run — cross-scheme comparable in full."""
        return {t.pasid for t in self.tenants if t.immortal}

    @property
    def churned_pasids(self) -> set[int]:
        return {t.pasid for t in self.tenants if not t.immortal}

    def tenant(self, pasid: int) -> TenantPlan:
        for plan in self.tenants:
            if plan.pasid == pasid:
                return plan
        raise ConfigError(f"scenario {self.name!r} has no PASID {pasid}")

    def lifecycle_events(self) -> list[LifecycleEvent]:
        """The canonical event order both the simulator and oracle replay.

        Sorted by (cycle, arrivals-before-departures, pasid).  Same-cycle
        ties resolve identically everywhere, which is what makes churn runs
        deterministic and oracle-replayable.
        """
        events = []
        for plan in self.tenants:
            events.append(LifecycleEvent(plan.arrival, "arrive", plan))
            if plan.departure is not None:
                events.append(LifecycleEvent(plan.departure, "depart", plan))
        events.sort(key=lambda e: (e.cycle, e.kind != "arrive",
                                   e.tenant.pasid))
        return events

    def describe(self) -> str:
        lines = [f"scenario {self.name!r} (seed {self.seed}): "
                 f"{len(self.tenants)} tenants, "
                 f"{len(self.churned_pasids)} churned"]
        for plan in self.tenants:
            life = (f"{plan.arrival}..{plan.departure}"
                    if plan.departure is not None else f"{plan.arrival}..end")
            lines.append(f"  pasid {plan.pasid}: {plan.workload.abbr} "
                         f"[{life}]")
        if self.aging is not None:
            lines.append(f"  aging: fraction={self.aging.fraction} "
                         f"release_every={self.aging.release_every}")
        return "\n".join(lines)


def apply_aging(allocators: FrameAllocatorGroup, scenario: Scenario) -> None:
    """Fragment the allocators per the scenario's aging plan (idempotent
    callers beware: call exactly once, before any allocation)."""
    aging = scenario.aging
    if aging is None or aging.fraction <= 0.0:
        return
    import numpy as np
    rng = np.random.default_rng(scenario.seed * 1_000_003 + 17)
    for chiplet in range(len(allocators)):
        claimed = allocators[chiplet].fragment(aging.fraction, rng)
        for pfn in claimed[::aging.release_every]:
            allocators[chiplet].release(pfn)
    allocators.reset_hints()


#: Placeholder data object for the composite workload below — scenario mode
#: never allocates or traces it (per-tenant workloads drive everything).
_PLACEHOLDER_DATA = (DataSpec(name="scenario", pages=1),)


@dataclass
class ScenarioWorkload(Workload):
    """A :class:`Workload` wrapper carrying a full scenario timeline.

    Subclassing keeps the whole experiment stack working unchanged: cache
    keys come from ``repr`` (which covers every tenant workload and the
    timeline), ``run_point``/sweeps/the job API accept it like any
    pre-built workload, and the simulator detects the ``scenario`` field
    and switches to lifecycle-scheduled construction.  The inherited
    pattern/data fields are placeholders — scenario runs never trace the
    composite itself.
    """

    scenario: Scenario | None = None

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "ScenarioWorkload":
        return cls(
            # Seed in the abbr: the disk cache keys points by abbr, and the
            # same named timeline under two seeds ages differently.
            abbr=f"scn-{scenario.name}-s{scenario.seed}",
            app_name=f"scenario {scenario.name}",
            suite="scenario",
            category="mid",
            paper_mpki=0.0,
            data=_PLACEHOLDER_DATA,
            pattern="stream",
            weight=1.0,
            gap=1,
            # The composite's pasid is unused; park it clear of tenant ids.
            pasid=max(scenario.pasids) + 1,
            scenario=scenario,
        )
