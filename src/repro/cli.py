"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``    — simulate one app under one scheme and print the results.
* ``suite``  — run all 19 apps under one scheme (prints a per-app table).
* ``figure`` — regenerate one paper figure/table by name (e.g. fig15).
* ``sweep``  — pre-simulate (scheme, app) points and/or whole figures'
  point-sets in parallel, filling the result cache.
* ``trace``  — run one point with translation-path tracing on and export
  the spans (Chrome trace / JSONL / plain-text breakdown).
* ``validate`` — differential validation: run several schemes on seeded
  fuzz workloads with the invariant checker installed and assert every
  delivered PFN matches the reference translator (and each other).
* ``explore`` — render figure comparisons, latency percentiles, phase
  breakdowns, and SIM_VERSION diffs from the result cache — with zero
  simulations, asserted (see docs/observability.md).
* ``list``   — list apps, schemes, and figures.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import (
    configs,
    format_bar_chart,
    format_series_table,
)
from repro.experiments.registry import FIGURES, figure_points, run_figure
from repro.experiments.runner import run_point, speedups, suite_results
from repro.experiments.configs import SCHEMES
from repro.experiments.sweep import SweepPoint, sweep
from repro.workloads.suite import APP_ORDER, CATEGORY_OF


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Barre Chord (ISCA 2024) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one app under one scheme")
    run.add_argument("app", choices=APP_ORDER)
    run.add_argument("--scheme", choices=sorted(SCHEMES), default="fbarre")
    run.add_argument("--scale", type=float, default=0.3,
                     help="trace scale (default 0.3)")
    run.add_argument("--baseline", action="store_true",
                     help="also run the baseline and report the speedup")

    suite = sub.add_parser("suite", help="run all apps under one scheme")
    suite.add_argument("--scheme", choices=sorted(SCHEMES), default="fbarre")
    suite.add_argument("--scale", type=float, default=0.3)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("name", choices=sorted(FIGURES))
    figure.add_argument("--scale", type=float, default=None)
    figure.add_argument("--jobs", type=int, default=None,
                        help="workers for the prewarm batch "
                             "(default: REPRO_JOBS or all cores)")

    sweep_cmd = sub.add_parser(
        "sweep", help="pre-simulate (scheme, app) points in parallel")
    sweep_cmd.add_argument("--schemes", default="",
                           help="comma-separated schemes, or 'all'")
    sweep_cmd.add_argument("--apps", default="",
                           help="comma-separated apps, or 'all' "
                                "(defaults to all when --schemes is given)")
    sweep_cmd.add_argument("--figures", default="",
                           help="comma-separated figures whose full "
                                "point-sets to warm, or 'all'")
    sweep_cmd.add_argument("--warm-cache", action="store_true",
                           help="warm every figure's point-set "
                                "(a full parallel reproduction pass)")
    sweep_cmd.add_argument("--jobs", type=int, default=None,
                           help="worker processes "
                                "(default: REPRO_JOBS or all cores)")
    sweep_cmd.add_argument("--scale", type=float, default=None,
                           help="trace scale (default: REPRO_BENCH_SCALE)")
    sweep_cmd.add_argument("--dry-run", action="store_true",
                           help="plan only: count cached vs missing points "
                                "and print the cost-model schedule")

    trace = sub.add_parser(
        "trace", help="trace one point's translation path and export spans")
    trace.add_argument("--scheme", choices=sorted(SCHEMES), default="fbarre")
    trace.add_argument("--app", choices=APP_ORDER, required=True)
    trace.add_argument("--scale", type=float, default=None,
                       help="trace scale (default: REPRO_BENCH_SCALE)")
    trace.add_argument("--out", default=None,
                       help="artifact path (default: "
                            "results/trace-<app>-<scheme>.<ext>)")
    trace.add_argument("--format", choices=("chrome", "jsonl", "summary"),
                       default="chrome",
                       help="chrome = Perfetto-loadable trace-event JSON; "
                            "jsonl = one raw span per line; "
                            "summary = plain-text phase breakdown")

    validate = sub.add_parser(
        "validate",
        help="differential validation: schemes vs the reference translator")
    validate.add_argument("--schemes", default="ats,barre,fbarre",
                          help="comma-separated schemes ('ats' = baseline "
                               "ATS; default: ats,barre,fbarre)")
    validate.add_argument("--seeds", type=int, default=10,
                          help="number of fuzz seeds (default 10)")
    validate.add_argument("--seed-start", type=int, default=0,
                          help="first seed (default 0)")
    validate.add_argument("--scale", type=float, default=1.0,
                          help="trace scale for the fuzz workloads")
    validate.add_argument("--no-invariants", action="store_true",
                          help="skip the runtime invariant checker "
                               "(oracle comparison only)")
    validate.add_argument("--inject-pec-bug", type=int, default=0,
                          metavar="OFFSET",
                          help="test-only: add OFFSET to every "
                               "PEC-calculated PFN and prove the harness "
                               "catches it (expect failures)")
    validate.add_argument("--scenario", default=None, metavar="NAME",
                          help="validate multi-tenant churn timelines "
                               "instead of single fuzz apps: 'churn' = "
                               "fuzzed scenario per seed, or a pinned "
                               "name (churn-min, churn-small, "
                               "multi-tenant)")
    validate.add_argument("--inject-stale-entry", action="store_true",
                          help="test-only: resurrect one TLB entry of a "
                               "departing tenant and prove the teardown "
                               "sweep catches it (needs --scenario; "
                               "expect failures)")

    report = sub.add_parser(
        "report", help="stitch results/ into results/SUMMARY.md")
    report.add_argument("--results", default="results",
                        help="bench output directory (default: results)")

    explore = sub.add_parser(
        "explore",
        help="render reports from the result cache (zero simulations)")
    explore.add_argument("--cache", default=None, metavar="DIR",
                         help="cache directory to explore "
                              "(default: the active REPRO_CACHE_DIR)")
    explore.add_argument("--sim-version", default=None, metavar="VER",
                         help="restrict comparison tables to one "
                              "SIM_VERSION (default: mix manifest-less "
                              "entries freely)")
    explore.add_argument("--trace", default=None, metavar="JSONL",
                         help="banked span export (repro trace --format "
                              "jsonl) to re-render as a phase breakdown")
    explore.add_argument("--diff", nargs=2, default=None,
                         metavar=("VER_A", "VER_B"),
                         help="side-by-side cycles diff of two "
                              "SIM_VERSION generations")
    explore.add_argument("--html", default=None, metavar="PATH",
                         help="also write a static self-contained HTML "
                              "report to PATH")

    sub.add_parser("list", help="list apps, schemes, figures")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_point(SCHEMES[args.scheme](), args.app, scale=args.scale)
    print(f"{args.app} under {args.scheme}:")
    print(f"  cycles            {result.cycles}")
    print(f"  L2 TLB MPKI       {result.mpki:.2f}")
    print(f"  ATS requests      {result.ats_requests}")
    print(f"  walks / coalesced {result.walks} / {result.pec_coalesced}")
    print(f"  remote data       {result.remote_data_fraction:.1%}")
    if args.baseline:
        base = run_point(configs.baseline(), args.app, scale=args.scale)
        print(f"  speedup vs baseline {result.speedup_over(base):.2f}x")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    cfg = SCHEMES[args.scheme]()
    results = suite_results(cfg, list(APP_ORDER), args.scale)
    base = suite_results(configs.baseline(), list(APP_ORDER), args.scale)
    series = {
        "speedup": speedups(results, base),
        "mpki": {a: results[a].mpki for a in APP_ORDER},
    }
    print(format_series_table(f"{args.scheme} across the Table I suite",
                              list(APP_ORDER), series))
    return 0


def _parse_names(value: str, universe, what: str) -> list[str]:
    """Parse a comma list against a universe of names ('all' = everything)."""
    if not value:
        return []
    if value == "all":
        return sorted(universe)
    names = [v.strip() for v in value.split(",") if v.strip()]
    unknown = [v for v in names if v not in universe]
    if unknown:
        raise SystemExit(
            f"unknown {what}: {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(universe))})")
    return names


def _cmd_sweep(args: argparse.Namespace) -> int:
    schemes = _parse_names(args.schemes, SCHEMES, "scheme")
    apps = _parse_names(args.apps, APP_ORDER, "app")
    if schemes and not apps:
        apps = list(APP_ORDER)
    if apps and not schemes:
        schemes = sorted(SCHEMES)
    figure_names = (sorted(FIGURES) if args.warm_cache
                    else _parse_names(args.figures, FIGURES, "figure"))
    points = [SweepPoint(SCHEMES[scheme](), app, args.scale)
              for scheme in schemes for app in apps]
    for name in figure_names:
        points.extend(figure_points(name, scale=args.scale))
    if not points:
        raise SystemExit(
            "nothing to sweep; pass --schemes/--apps, --figures, "
            "or --warm-cache")
    outcome = sweep(points, jobs=args.jobs, dry_run=args.dry_run)
    print(f"[sweep] {outcome.stats.describe(dry_run=args.dry_run)}")
    if args.dry_run and outcome.plan:
        print("[sweep] cost-model schedule (per-worker queues, "
              "longest-first):")
        for pp in outcome.plan:
            print(f"  worker {pp.worker}: {pp.est_seconds:7.2f}s "
                  f"({pp.source:12s}) {pp.label()}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    out = run_figure(args.name, scale=args.scale, jobs=args.jobs)
    if "series" in out and "apps" in out:
        print(format_series_table(args.name, out["apps"], out["series"],
                                  mean_row=False))
    scalars = {k: v for k, v in out.items()
               if isinstance(v, (int, float))}
    for key, value in scalars.items():
        print(f"{key} = {value:.4f}" if isinstance(value, float)
              else f"{key} = {value}")
    for key in ("means", "pairs", "row_sweep"):
        if key in out:
            print(format_bar_chart(f"{key} (| marks 1.0x)", out[key],
                                   reference=1.0))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.common.trace import write_chrome_trace, write_spans_jsonl
    from repro.experiments.report import format_phase_breakdown
    from repro.experiments.runner import bench_scale, store_point
    from repro.gpu.mcm import McmGpuSimulator
    from repro.workloads.suite import get_workload

    scale = bench_scale() if args.scale is None else args.scale
    config = SCHEMES[args.scheme]()
    sim = McmGpuSimulator(config, [get_workload(args.app)],
                          trace_scale=scale, trace=True)
    result = sim.run()
    spans = sim.tracer.spans

    ext = {"chrome": ".json", "jsonl": ".jsonl", "summary": ".txt"}
    out = Path(args.out) if args.out else \
        Path("results") / f"trace-{args.app}-{args.scheme}{ext[args.format]}"
    out.parent.mkdir(parents=True, exist_ok=True)
    title = (f"{args.app} under {args.scheme} "
             f"(scale {scale:g}, {result.cycles} cycles)")
    if args.format == "chrome":
        write_chrome_trace(spans, out)
    elif args.format == "jsonl":
        write_spans_jsonl(spans, out)
    else:
        out.write_text(format_phase_breakdown(title, spans) + "\n")

    print(format_phase_breakdown(title, spans))
    print(f"{len(spans)} spans -> {out} ({args.format})")
    # A traced run simulates the identical event sequence, so its result is
    # a valid fill for the point's standard cache slot.
    cached = store_point(config, args.app, result, scale=scale)
    if cached is not None:
        print(f"result cached at {cached}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation.differential import (
        SCHEME_FACTORIES,
        run_validation,
    )

    schemes = _parse_names(args.schemes, SCHEME_FACTORIES, "scheme")
    if not schemes:
        raise SystemExit("pass --schemes (e.g. --schemes ats,barre,fbarre)")
    seeds = list(range(args.seed_start, args.seed_start + args.seeds))
    report = run_validation(schemes, seeds, trace_scale=args.scale,
                            check_invariants=not args.no_invariants,
                            inject_pec_offset=args.inject_pec_bug,
                            scenario=args.scenario,
                            inject_stale_entry=args.inject_stale_entry)
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.summary import write_summary
    path = write_summary(args.results)
    print(f"wrote {path}")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments import runner
    from repro.obs import catalog, reports

    # The explorer's contract is *zero simulations*: assert the runner's
    # simulation counter did not move while the report rendered.
    # (Everything below reads cached payloads only; this turns that
    # design intent into a checked invariant.)
    before = runner.SIMULATIONS

    entries = catalog.scan(args.cache)
    sections = [reports.overview(entries),
                reports.figure_comparison(entries,
                                          sim_version=args.sim_version),
                reports.latency_table(entries,
                                      sim_version=args.sim_version)]
    if args.trace:
        sections.append(reports.phase_breakdown(args.trace))
    if args.diff:
        sections.append(reports.version_diff(entries, args.diff[0],
                                             args.diff[1]))
    if args.html:
        out = Path(args.html)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(reports.render_html(
            entries, sim_version=args.sim_version, trace_path=args.trace,
            diff=tuple(args.diff) if args.diff else None))
        sections.append(f"wrote {out}")

    simulated = runner.SIMULATIONS - before
    if simulated:
        raise SystemExit(
            f"explore must never simulate, but ran {simulated} "
            f"simulation(s) — this is a bug in repro.obs")
    print("\n\n".join(sections))
    print(f"\n[explore] rendered {len(entries)} cached points, "
          f"{simulated} simulations")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("apps: " + ", ".join(f"{a}({CATEGORY_OF[a][0]})"
                               for a in APP_ORDER))
    print("schemes: " + ", ".join(sorted(SCHEMES)))
    print("figures: " + ", ".join(sorted(FIGURES)))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "suite": _cmd_suite,
                "figure": _cmd_figure, "sweep": _cmd_sweep,
                "trace": _cmd_trace, "validate": _cmd_validate,
                "report": _cmd_report,
                "explore": _cmd_explore, "list": _cmd_list}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
