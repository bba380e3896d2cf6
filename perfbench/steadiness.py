"""Run the benchmark over many seeds and record how steady each metric is.

Usage (from the repository root; about 35 minutes)::

    python3 perfbench/steadiness.py --runs 10 --out perfbench/STEADINESS.json

Two sets of runs of the same code, each ``--runs`` seeds of every
``BENCHMARK.json`` workload with ``--trace 0`` and ``run_seconds``: set 1
uses seeds 1..N, set 2 seeds N+1..2N.  Within a set, workloads are
interleaved run by run (seed 1 of every workload, then seed 2, ...), so
slow drift of the machine spreads over all of them.  For every end-to-end
metric each set keeps the values, their median and quartiles
(``statistics.quantiles(values, n=4)``), and the spread
``(q3 - q1) / median`` that ``BENCHMARK.json``'s bounds are judged by.
``agreement`` is how much worse set 2's median is than set 1's, as a share
of set 1's (negative when better); it must stay within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def one_set(seeds: list[int], bench: dict) -> dict:
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            result = one_run(workload, seed, bench["run_seconds"])
            runs[workload].append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']} "
                  f"elapsed={result['elapsed_s']:.1f}s", file=sys.stderr)
    record = {"seeds": seeds, "workloads": {}}
    for workload, results in runs.items():
        metrics = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {"unit": results[0]["metrics"][name]["unit"],
                             "bound": bounds[name], **summarize(values)}
        record["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "elapsed_s": summarize([r["elapsed_s"] for r in results]),
            "metrics": metrics}
        for name, m in metrics.items():
            flag = ""
            if m["spread"] is not None and m["spread"] > m["bound"] / 3:
                flag = "  <-- above a third of the bound"
            spread = ("n/a" if m["spread"] is None
                      else f"{m['spread']:.4f}")
            print(f"{workload:16s} {name:16s} median {m['median']:.6g} "
                  f"spread {spread}{flag}", file=sys.stderr)
    return record


def agreement(first: dict, second: dict, bench: dict) -> dict:
    """Per workload and metric: share by which set 2's median is worse."""
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    out = {}
    for workload, w1 in first["workloads"].items():
        out[workload] = {}
        for name, m1 in w1["metrics"].items():
            a = m1["median"]
            b = second["workloads"][workload]["metrics"][name]["median"]
            worse = (b - a) / a if lower[name] else (a - b) / a
            out[workload][name] = worse
            if worse > m1["bound"]:
                print(f"{workload:16s} {name:16s} set 2 worse by "
                      f"{worse:.4f} > bound {m1['bound']}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    sets = [one_set(list(range(k * args.runs + 1, (k + 1) * args.runs + 1)),
                    bench)
            for k in range(SETS)]
    record = {"runs_per_set": args.runs, "seconds": bench["run_seconds"],
              "trace": 0, "sets": sets,
              "agreement": agreement(sets[0], sets[1], bench)}
    if args.out and args.out.exists():
        # Hand-kept evidence for metrics taken out of BENCHMARK.json.
        dropped = json.loads(args.out.read_text()).get("dropped")
        if dropped:
            record["dropped"] = dropped
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
