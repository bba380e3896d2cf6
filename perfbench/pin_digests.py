"""Pin the result digest of every benchmark op for the current SIM_VERSION.

Run after a deliberate semantic change (one that bumps ``SIM_VERSION``)::

    python3 perfbench/pin_digests.py

Each workload's ops are simulated once at config seed 2024 and must pass
the conservation identities before their digests are written to
``perfbench/digests.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    run.bootstrap()
    import checks
    import suites
    from repro.experiments.runner import SIM_VERSION

    workdir = run.ROOT / ".perfbench_work" / "pin"
    shutil.rmtree(workdir, ignore_errors=True)
    pinned = {}
    try:
        for workload in run.WORKLOADS:
            plan = suites.make_plan(workload, checks.PINNED_SEED,
                                    workdir / "plan-cache")
            plan.pins = None            # check identities, not old digests
            out = (suites.run_sweep_pass(plan, workdir / "cache")
                   if workload == "repro-sweep"
                   else suites.run_inprocess_pass(plan))
            if out.errors:
                print("\n".join(out.errors), file=sys.stderr)
                return 1
            pinned[workload] = {op.label: digest
                                for op, digest in zip(plan.ops, out.digests)}
            print(f"{workload}: {len(plan.ops)} ops pinned", file=sys.stderr)
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    checks.DIGESTS.write_text(json.dumps(
        {"sim_version": SIM_VERSION, "seed": checks.PINNED_SEED,
         "workloads": pinned}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
