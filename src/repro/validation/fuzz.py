"""Seeded fuzz workloads for the differential harness.

``python -m repro validate`` needs many *different* small workloads, each
derived deterministically from a seed, so every validation seed exercises
a fresh combination of access pattern, footprint, CTA count, and data
shape.  The generator mirrors the hypothesis strategy in
``tests/test_property_end_to_end.py`` — same pattern set, same parameter
ranges — but is reproducible from a plain integer, which lets the CLI
report "seed 17 diverged" and lets anyone replay exactly that point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.scenarios.scenario import AgingPlan, Scenario, TenantPlan
from repro.workloads.base import DataSpec, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Patterns drawn by the fuzzer (the zipf pattern's long tail makes run
#: time seed-dependent, so like the hypothesis strategy we skip it here).
FUZZ_PATTERNS = ("stream", "blocked", "stencil", "stride", "random",
                 "gather")


def fuzz_workload(seed: int) -> Workload:
    """A small deterministic workload for validation seed ``seed``."""
    import numpy as np
    rng = np.random.default_rng(seed)
    pattern = FUZZ_PATTERNS[int(rng.integers(0, len(FUZZ_PATTERNS)))]
    main_pages = int(rng.integers(16, 601))
    row = int(rng.choice([0, 4, 8, 16]))
    data = [DataSpec("main", pages=main_pages, row_pages=row)]
    if pattern == "gather":
        data.append(DataSpec("vec", pages=int(rng.integers(8, 401)),
                             shared=True, irregular=True))
    return Workload(
        abbr=f"fuzz{seed}", app_name=f"fuzz-{seed}", suite="validate",
        category="mid", paper_mpki=1.0, data=tuple(data), pattern=pattern,
        weight=float(rng.uniform(0.5, 8.0)),
        gap=int(rng.integers(0, 17)),
        num_ctas=int(rng.choice([8, 16, 32])),
        accesses_per_cta=int(rng.integers(10, 61)),
        params={"gather_data": 1, "touches_per_page": 2,
                "stride_pages": int(rng.integers(1, 10)),
                "row_width": max(1, row // 2)},
    )


def _churn_tenant(rng: np.random.Generator, seed: int,
                  pasid: int) -> Workload:
    """One fuzzed tenant: smaller than :func:`fuzz_workload` so a churn
    scenario with up to five of them stays a per-seed smoke, not a soak."""
    pattern = FUZZ_PATTERNS[int(rng.integers(0, len(FUZZ_PATTERNS)))]
    pages = int(rng.integers(16, 129))
    row = int(rng.choice([0, 4, 8]))
    data = [DataSpec(f"t{pasid}", pages=pages, row_pages=row)]
    if pattern == "gather":
        data.append(DataSpec(f"t{pasid}-vec", pages=int(rng.integers(8, 65)),
                             shared=True, irregular=True))
    return Workload(
        abbr=f"churn{seed}t{pasid}", app_name=f"churn-{seed}-tenant-{pasid}",
        suite="validate", category="mid", paper_mpki=1.0, data=tuple(data),
        pattern=pattern,
        weight=float(rng.uniform(0.5, 4.0)),
        gap=int(rng.integers(0, 9)),
        num_ctas=int(rng.choice([8, 16])),
        accesses_per_cta=int(rng.integers(10, 41)),
        pasid=pasid,
        params={"gather_data": 1, "touches_per_page": 2,
                "stride_pages": int(rng.integers(1, 10)),
                "row_width": max(1, row // 2)},
    )


def churn_scenario(seed: int) -> Scenario:
    """A deterministic multi-tenant churn timeline for validation ``seed``.

    Guarantees at least one immortal tenant arriving at cycle 0 (so the
    machine is never empty and end-of-run state is comparable across
    schemes) and at least one churned tenant (so every seed exercises
    teardown).  Arrival/departure windows and the allocator pre-aging
    knobs are all drawn from the seed.
    """
    import numpy as np
    rng = np.random.default_rng(seed * 9_176_501 + 3)
    num_tenants = int(rng.integers(3, 6))
    tenants = []
    for pasid in range(num_tenants):
        workload = _churn_tenant(rng, seed, pasid)
        if pasid == 0:  # the anchor tenant: immortal, arrives at 0
            arrival, departure = 0, None
        else:
            arrival = int(rng.integers(0, 2001))
            # Tenant 1 always churns; the rest flip a coin.
            mortal = pasid == 1 or bool(rng.integers(0, 2))
            departure = (int(rng.integers(arrival + 500, arrival + 4001))
                         if mortal else None)
        tenants.append(TenantPlan(workload, arrival=arrival,
                                  departure=departure))
    aging = AgingPlan(fraction=float(rng.uniform(0.0, 0.4)),
                      release_every=int(rng.integers(1, 4)))
    return Scenario(name=f"churn-fuzz-{seed}", seed=seed,
                    tenants=tuple(tenants), aging=aging)
