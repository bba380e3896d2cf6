"""Differential harness: run schemes against the oracle and each other.

For every validation seed the harness

1. builds the seed's fuzz workload (:func:`repro.validation.fuzz.fuzz_workload`);
2. computes ground truth once per scheme config with the reference
   translator (:mod:`repro.validation.oracle`);
3. runs each requested scheme with a per-access PFN observer (and, by
   default, the runtime invariant checker installed), recording every
   delivered ``(pasid, vpn) -> pfn``;
4. asserts each delivered PFN equals the oracle's **exactly**, and that
   all schemes delivered functionally identical results: the same set of
   translated pages, each living on the same owner chiplet;
5. on a divergence, re-runs the offending scheme with translation-path
   tracing enabled and attaches the divergent access's trace span to the
   report.

Cross-scheme comparison is at owner-chiplet granularity, not raw-PFN,
deliberately: Barre's whole mechanism is to *constrain frame choice* so
group members share a local PFN, which legitimately shifts which frame a
page gets (e.g. a partial tail group advances one chiplet's allocator,
and the next common-free search must skip frames that are free on the
other sharers).  Which chiplet a page lives on — the thing placement
policy and data locality depend on — must never differ; the exact frame
is checked per scheme against that scheme's own ground truth instead.

The ``inject_pec_offset`` hook exists to prove the harness has teeth: it
perturbs every PEC-calculated PFN by a constant (a synthetic off-by-one
datapath bug), which the invariant checker and the oracle comparison must
both catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.common.config import SimConfig
from repro.common.errors import (
    ConfigError,
    InvariantViolation,
    SimulationError,
)
from repro.experiments import configs
from repro.gpu.mcm import McmGpuSimulator
from repro.scenarios import (
    NAMED_SCENARIOS,
    ScenarioWorkload,
    conservation_violations,
    named_scenario,
)
from repro.validation.fuzz import churn_scenario, fuzz_workload
from repro.validation.oracle import RefAccess, reference_translation
from repro.workloads.base import Workload

#: Scheme factories the harness (and the CLI) accepts.  ``ats`` is the
#: paper's name for the baseline ATS translation flow.
SCHEME_FACTORIES = {"ats": configs.baseline, **configs.SCHEMES}


@dataclass
class Divergence:
    """One functional disagreement, anchored to its earliest access."""

    scheme: str
    seed: int
    against: str  # "oracle" or "scheme <name>"
    pasid: int
    vpn: int
    expected_pfn: int
    observed_pfn: int
    access: RefAccess | None = None
    span_report: str | None = None

    def describe(self) -> str:
        where = (self.access.describe() if self.access is not None
                 else f"pasid {self.pasid} vpn {self.vpn:#x}")
        lines = [f"seed {self.seed}, {self.scheme} vs {self.against}: "
                 f"{where} -> {self.observed_pfn:#x}, "
                 f"expected {self.expected_pfn:#x}"]
        if self.span_report:
            lines.append(self.span_report)
        return "\n".join(lines)


@dataclass
class SchemeRun:
    """Outcome of one (scheme, seed) simulation."""

    scheme: str
    seed: int
    accesses: int = 0
    distinct_keys: int = 0
    violation: str | None = None
    observed: dict[tuple[int, int], int] = field(default_factory=dict)


@dataclass
class ValidationReport:
    """Everything ``python -m repro validate`` reports."""

    schemes: list[str]
    seeds: list[int]
    runs: list[SchemeRun] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.violations

    @property
    def accesses_checked(self) -> int:
        return sum(run.accesses for run in self.runs)

    def describe(self) -> str:
        lines = [f"validated schemes {', '.join(self.schemes)} over "
                 f"{len(self.seeds)} seeds: {self.accesses_checked} "
                 f"accesses checked across {len(self.runs)} runs"]
        for violation in self.violations:
            lines.append(f"INVARIANT VIOLATION: {violation}")
        for divergence in self.divergences:
            lines.append(f"DIVERGENCE: {divergence.describe()}")
        if self.ok:
            lines.append("no divergences, no invariant violations")
        return "\n".join(lines)


def _inject_pec_offset(sim, offset: int) -> None:
    """Arm the test-only PEC fault on every PEC datapath in ``sim``."""
    pecs = [sim.iommu.pec] if sim.iommu is not None else []
    pecs.extend(gmmu.pec for gmmu in sim.gmmus)
    pecs.extend(agent.pec for agent in sim.agents.values())
    for pec in pecs:
        pec.inject_pfn_offset = offset


def _span_report(config: SimConfig, workloads: Sequence[Workload],
                 trace_scale: float, pasid: int, vpn: int,
                 inject_pec_offset: int) -> str | None:
    """Re-run with tracing and format the divergent access's span."""
    sim = McmGpuSimulator(config, workloads, trace_scale=trace_scale,
                          trace=True)
    if inject_pec_offset:
        _inject_pec_offset(sim, inject_pec_offset)
    try:
        sim.run()
    except (SimulationError, InvariantViolation):
        pass  # the partial trace is still useful
    spans = [s for s in sim.tracer.spans
             if s.pasid == pasid and s.vpn == vpn]
    if not spans:
        return None
    span = spans[0]
    stamps = ", ".join(f"{phase}@{cycle}" for cycle, phase in span.events)
    return (f"  trace span {span.span_id} (chiplet {span.chiplet}, "
            f"stream {span.stream}, cycles {span.start}.."
            f"{span.end if span.end is not None else 'open'}): {stamps}")


def validate_point(scheme: str, config: SimConfig,
                   workloads: Sequence[Workload], seed: int,
                   trace_scale: float = 1.0,
                   check_invariants: bool = True,
                   inject_pec_offset: int = 0,
                   attach_spans: bool = True,
                   inject_stale_entry: bool = False,
                   ) -> tuple[SchemeRun, list[Divergence]]:
    """Run one scheme on one point and compare every PFN to the oracle.

    Scenario (multi-tenant churn) points additionally enforce the two
    churn property laws: **no stale translation** (a PFN delivered for a
    PASID after its teardown is a violation even if numerically correct)
    and the per-PASID **conservation law**
    (:data:`repro.scenarios.CONSERVATION_LAW`).
    """
    scenario = (getattr(workloads[0], "scenario", None)
                if len(workloads) == 1 else None)
    ref = reference_translation(config, workloads, trace_scale)
    run = SchemeRun(scheme=scheme, seed=seed)
    sim = McmGpuSimulator(config, workloads, trace_scale=trace_scale,
                          check_invariants=check_invariants)
    if inject_pec_offset:
        _inject_pec_offset(sim, inject_pec_offset)
    if inject_stale_entry:
        if scenario is None or not scenario.churned_pasids:
            raise ConfigError("--inject-stale-entry needs a scenario with "
                              "at least one departing tenant")
        sim.inject_stale_pasid = min(scenario.churned_pasids)
    mismatches: dict[tuple[int, int], int] = {}
    stale_deliveries: list[tuple[int, int, int]] = []
    dead_pasids = sim.dead_pasids

    def observer(_cid: int, _stream: int, pasid: int, vpn: int,
                 pfn: int) -> None:
        run.accesses += 1
        if pasid in dead_pasids:
            stale_deliveries.append((pasid, vpn, pfn))
        key = (pasid, vpn)
        run.observed.setdefault(key, pfn)
        expected = ref.translations.get(key)
        if expected is None or pfn != expected:
            mismatches.setdefault(key, pfn)

    sim.pfn_observer = observer
    try:
        sim.run()
    except (InvariantViolation, SimulationError) as exc:
        run.violation = f"seed {seed}, {scheme}: {type(exc).__name__}: {exc}"
    run.distinct_keys = len(run.observed)
    if scenario is not None and run.violation is None:
        problems = []
        if stale_deliveries:
            pasid, vpn, pfn = stale_deliveries[0]
            problems.append(
                f"{len(stale_deliveries)} stale deliveries after teardown "
                f"(first: pasid {pasid} vpn {vpn:#x} -> {pfn:#x})")
        problems.extend(conservation_violations(sim._pasid_counters))
        if problems:
            run.violation = (f"seed {seed}, {scheme}: scenario "
                             f"{scenario.name}: " + "; ".join(problems))
    divergences: list[Divergence] = []
    if mismatches:
        # Report the divergence that is earliest in canonical access order.
        ordered = sorted(
            mismatches,
            key=lambda key: (a.order if (a := ref.first_access_of(*key))
                             is not None else len(ref.accesses)))
        key = ordered[0]
        divergence = Divergence(
            scheme=scheme, seed=seed, against="oracle",
            pasid=key[0], vpn=key[1],
            expected_pfn=ref.translations.get(key, -1),
            observed_pfn=mismatches[key],
            access=ref.first_access_of(*key))
        if attach_spans:
            divergence.span_report = _span_report(
                config, workloads, trace_scale, key[0], key[1],
                inject_pec_offset)
        divergences.append(divergence)
    return run, divergences


def _cross_check(seed: int, ref_runs: list[SchemeRun],
                 frames_per_chiplet: int,
                 immortal_pasids: set[int] | None = None
                 ) -> list[Divergence]:
    """Pairwise functional equality of all clean runs for one seed.

    Checks the translated key *sets* match and that each page's owner
    chiplet agrees (see the module docstring for why raw PFNs may not).

    For scenario (churn) seeds, ``immortal_pasids`` limits the key-set
    equality requirement to tenants alive at end of run: a churned
    tenant's cancelled accesses legitimately cut off at scheme-dependent
    points, so its keys are compared only where both schemes delivered.
    """
    clean = [r for r in ref_runs if r.violation is None]
    if len(clean) < 2:
        return []
    first = clean[0]
    out: list[Divergence] = []
    for other in clean[1:]:
        keys = set(first.observed) | set(other.observed)
        for key in sorted(keys):
            a = first.observed.get(key)
            b = other.observed.get(key)
            if (immortal_pasids is not None
                    and key[0] not in immortal_pasids
                    and (a is None or b is None)):
                continue  # churned tenant: intersection-only comparison
            same_owner = (a is not None and b is not None
                          and a // frames_per_chiplet
                          == b // frames_per_chiplet)
            if not same_owner:
                out.append(Divergence(
                    scheme=other.scheme, seed=seed,
                    against=f"scheme {first.scheme} (owner chiplet)",
                    pasid=key[0], vpn=key[1],
                    expected_pfn=a if a is not None else -1,
                    observed_pfn=b if b is not None else -1))
                break  # first divergent key per scheme pair
    return out


def run_validation(schemes: Sequence[str], seeds: Sequence[int],
                   trace_scale: float = 1.0,
                   check_invariants: bool = True,
                   inject_pec_offset: int = 0,
                   scenario: str | None = None,
                   inject_stale_entry: bool = False) -> ValidationReport:
    """The full differential sweep behind ``python -m repro validate``.

    ``scenario`` switches the per-seed workload from a single fuzzed app
    to a multi-tenant churn timeline: ``"churn"`` draws a fresh fuzzed
    scenario per seed (:func:`repro.validation.fuzz.churn_scenario`);
    a pinned name from :data:`repro.scenarios.NAMED_SCENARIOS` replays
    that fixed timeline with per-seed traces/aging.  Scenario runs
    additionally enforce the no-stale-translation and per-PASID
    conservation laws.
    """
    unknown = [s for s in schemes if s not in SCHEME_FACTORIES]
    if unknown:
        raise ConfigError(f"unknown validation schemes: {', '.join(unknown)} "
                          f"(choose from {', '.join(sorted(SCHEME_FACTORIES))})")
    if scenario is not None and scenario != "churn" \
            and scenario not in NAMED_SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r} (choose 'churn' or one of "
            f"{', '.join(sorted(NAMED_SCENARIOS))})")
    if inject_stale_entry and scenario is None:
        raise ConfigError("--inject-stale-entry needs --scenario")
    report = ValidationReport(schemes=list(schemes), seeds=list(seeds))
    for seed in seeds:
        immortal_pasids = None
        if scenario is not None:
            plan = (churn_scenario(seed) if scenario == "churn"
                    else named_scenario(scenario, seed))
            workload: Workload = ScenarioWorkload.from_scenario(plan)
            immortal_pasids = plan.immortal_pasids
        else:
            workload = fuzz_workload(seed)
        # Owner-chiplet equality only holds between schemes that share a
        # mapping policy (mgvm's chunking places pages differently from
        # the LASP schemes by design), so cross-checks group by mapping.
        by_mapping: dict[object, list[SchemeRun]] = {}
        frames_per_chiplet = 0
        for scheme in schemes:
            config = SCHEME_FACTORIES[scheme](seed=seed)
            frames_per_chiplet = config.frames_per_chiplet
            run, divergences = validate_point(
                scheme, config, [workload], seed,
                trace_scale=trace_scale,
                check_invariants=check_invariants,
                inject_pec_offset=inject_pec_offset,
                inject_stale_entry=inject_stale_entry)
            report.runs.append(run)
            by_mapping.setdefault(config.mapping, []).append(run)
            report.divergences.extend(divergences)
            if run.violation is not None:
                report.violations.append(run.violation)
        for seed_runs in by_mapping.values():
            report.divergences.extend(
                _cross_check(seed, seed_runs, frames_per_chiplet,
                             immortal_pasids=immortal_pasids))
    return report
