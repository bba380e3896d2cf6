"""Self-tests of the benchmark's own checks.

Usage (from the repository root; about a minute)::

    python3 perfbench/selftest.py

* A result with one counter altered is reported as exactly one failed op,
  on every check path: pinned digests, the in-process walk law, the
  result-only identities used for points simulated by ``sweep()``, and warm hits.
* The warm pass simulates zero points.
* Every metric name matches ``[A-Za-z0-9_.-]+``, and a real run emits
  exactly the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys

import run

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def failed_ops(plan, results, sims, pins) -> int:
    import checks
    return sum(bool(checks.point_errors(op.label, r, pins, sim=s))
               for op, r, s in zip(plan.ops, results, sims))


def altered(result, field: str):
    bad = copy.deepcopy(result)
    setattr(bad, field, getattr(bad, field) + 1)
    return bad


def test_altered_counter_is_one_failed_op(workdir) -> None:
    import checks
    import suites
    plan = suites.make_plan("fbarre-suite", checks.PINNED_SEED,
                            workdir / "plan-cache")
    plan.ops = plan.ops[:3]
    assert plan.pins is not None, "no pinned digests for this SIM_VERSION"
    sims = [suites.build(op.point) for op in plan.ops]
    results = [sim.run() for sim in sims]
    for pins, sim_list, field in ((plan.pins, sims, "walks"),
                                  (None, sims, "walks"),
                                  (None, [None] * 3, "ats_requests")):
        assert failed_ops(plan, results, sim_list, pins) == 0
        bad = results[:1] + [altered(results[1], field)] + results[2:]
        n = failed_ops(plan, bad, sim_list, pins)
        assert n == 1, f"{field} altered: {n} failed ops, expected 1"
    print("ok: one altered counter -> exactly one failed op "
          "(digest, walk law, result identities)")


def test_warm_pass_simulates_nothing(workdir) -> None:
    import suites
    plan = suites.make_plan("repro-sweep", 2024, workdir / "plan-cache")
    plan.ops = plan.ops[:4]
    cache = workdir / "sweep-cache"
    cold = suites.run_sweep_pass(plan, cache)
    assert cold.failed == 0 and not cold.errors, cold.errors
    before = sorted(p.name for p in cache.rglob("*") if p.suffix == ".json"
                    and "meta" not in p.parts)
    hits = suites.warm_hits(plan, cold, cache, rounds=2)
    after = sorted(p.name for p in cache.rglob("*") if p.suffix == ".json"
                   and "meta" not in p.parts)
    assert hits.simulated == 0, f"warm pass simulated {hits.simulated}"
    assert hits.failed == 0 and hits.attempted == 8, hits.errors
    assert before == after, "warm pass wrote new cache entries"
    print("ok: warm pass simulated 0 points")

    victim = cache / before[0]
    payload = json.loads(victim.read_text())
    payload["walks"] += 1
    victim.write_text(json.dumps(payload))
    hits = suites.warm_hits(plan, cold, cache, rounds=1)
    assert hits.attempted == 4 and hits.failed == 1, hits.errors
    print("ok: one altered counter in a warm hit -> exactly one failed op")


def test_metric_names() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {}
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        names = [m["name"] for m in bench[kind]]
        assert len(names) == len(set(names)), f"duplicate {kind} names"
        for name in names:
            assert NAME_RE.match(name), f"bad metric name {name!r}"
        declared[trace] = set(names)
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload",
             "baseline-table1", "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        emitted = set(result["metrics"])
        assert emitted == declared[trace], (
            f"--trace {trace}: emitted-only {emitted - declared[trace]}, "
            f"declared-only {declared[trace] - emitted}")
    print("ok: metric names are well formed and match BENCHMARK.json")


def main() -> int:
    run.bootstrap()
    workdir = run.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        test_altered_counter_is_one_failed_op(workdir)
        test_warm_pass_simulates_nothing(workdir)
        test_metric_names()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
