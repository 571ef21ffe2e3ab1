"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    The 14 SPEC-analog workloads with their Table 1 metadata.
``analyze WORKLOAD``
    Print the tuning section's IR and what the compiler analyses say
    (Input/Modified_Input, Fig. 1 context analysis, MBR components,
    the consultant's verdict).
``tune WORKLOAD``
    Run the PEAK offline tuning pipeline and report the result.
``consistency WORKLOAD [WORKLOAD ...]``
    Regenerate the named benchmarks' Table 1 rows.
``fig7``
    Run the Fig. 7 experiment for one machine and print all four panels'
    data (improvement + normalised tuning time).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .compiler.flags import ALL_FLAGS
from .machine.config import MACHINES, machine_by_name
from .machine.jit import EXEC_TIERS
from .workloads import WORKLOAD_NAMES, get_workload

__all__ = ["main", "build_parser"]

SEARCHES = ("ie", "be", "ce", "ose", "ffd", "random", "greedy")


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative worker count (got {jobs}; 0 = all cores)"
        )
    return jobs


def _search_by_name(name: str):
    from .core.search import (
        BatchElimination,
        CombinedElimination,
        FractionalFactorial,
        GreedyConstruction,
        IterativeElimination,
        OptimizationSpaceExploration,
        RandomSearch,
    )

    return {
        "ie": IterativeElimination,
        "be": BatchElimination,
        "ce": CombinedElimination,
        "ose": OptimizationSpaceExploration,
        "ffd": FractionalFactorial,
        "random": RandomSearch,
        "greedy": GreedyConstruction,
    }[name]()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PEAK automatic performance tuning (SC 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the SPEC-analog workloads")

    p = sub.add_parser("analyze", help="show a workload's IR and analyses")
    p.add_argument("workload", choices=WORKLOAD_NAMES)
    p.add_argument("--machine", choices=sorted(MACHINES), default="sparc2")

    p = sub.add_parser("tune", help="run the PEAK tuning pipeline")
    p.add_argument("workload", choices=WORKLOAD_NAMES)
    p.add_argument("--machine", choices=sorted(MACHINES), default="pentium4")
    p.add_argument("--method", choices=("auto", "CBR", "MBR", "RBR", "WHL", "AVG"),
                   default="auto")
    p.add_argument("--search", choices=SEARCHES, default="ie")
    p.add_argument("--dataset", choices=("train", "ref"), default="train")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--flags", nargs="*", default=None,
                   help="restrict the searched flag subset")
    p.add_argument("--jobs", type=_jobs_arg, default=None, metavar="N",
                   help="evaluate candidate configurations on N parallel "
                        "workers (0 = all cores; default: serial engine)")
    p.add_argument("--backend", choices=("auto", "serial", "thread", "process"),
                   default="auto",
                   help="worker pool backend for --jobs (default: auto)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the compiled-version cache")
    p.add_argument("--no-prefix-cache", action="store_true",
                   help="disable incremental compilation (pass-prefix IR "
                        "snapshot reuse across configurations)")
    p.add_argument("--exec-tier", type=int, choices=EXEC_TIERS, default=0,
                   help="simulated-execution tier: 0 = paper-faithful "
                        "interpreter, 1 = whole-function compilation "
                        "(bit-identical results, faster)")
    p.add_argument("--trace-out", metavar="FILE", default=None,
                   help="record a span tree of the tuning run and write it "
                        "as JSON-lines (one span per line, header first)")
    p.add_argument("--metrics-out", metavar="FILE", default=None,
                   help="write the run's metrics (ledger categories, cache "
                        "traffic, rating windows) as one schema-versioned "
                        "JSON document")
    p.add_argument("--obs-report", action="store_true",
                   help="print the observability section (span tree summary "
                        "+ metrics) without writing files")

    p = sub.add_parser("consistency", help="regenerate Table 1 rows")
    p.add_argument("workloads", nargs="+", choices=WORKLOAD_NAMES)
    p.add_argument("--machine", choices=sorted(MACHINES), default="sparc2")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("fig7", help="run the Fig. 7 experiment")
    p.add_argument("--machine", choices=sorted(MACHINES), default="pentium4")
    p.add_argument("--benchmarks", nargs="*", default=None)
    p.add_argument("--ref", action="store_true",
                   help="also tune with the ref dataset (right bars)")
    p.add_argument("--seed", type=int, default=1)
    return parser


# --------------------------------------------------------------------------- #


def _cmd_list(out) -> int:
    from .experiments import render_table

    rows = []
    for name in WORKLOAD_NAMES:
        w = get_workload(name)
        rows.append([
            name, w.paper.benchmark, w.paper.tuning_section,
            w.paper.rating_approach, w.paper.invocations,
            "int" if w.paper.is_integer else "fp",
        ])
    print(render_table(
        ["name", "SPEC benchmark", "tuning section", "method (Table 1)",
         "#invocations (paper)", "kind"],
        rows, title="SPEC CPU 2000 analog workloads"), file=out)
    return 0


def _cmd_analyze(args, out) -> int:
    from .analysis import analyze_context, input_set, modified_input_set
    from .core.rating import consult
    from .machine.profiler import profile_tuning_section

    w = get_workload(args.workload)
    machine = machine_by_name(args.machine)
    print(f"== {w.paper.benchmark} / {w.paper.tuning_section} ==", file=out)
    print(w.ts, file=out)
    print(f"\nInput(TS)          = {sorted(input_set(w.ts))}", file=out)
    print(f"Modified_Input(TS) = {sorted(modified_input_set(w.ts))}", file=out)
    ctx = analyze_context(w.ts, pointer_seeds=w.pointer_seeds)
    if ctx.applicable:
        print(f"Context variables  = {[v.display for v in ctx.context_vars]}",
              file=out)
    else:
        print(f"CBR inapplicable: {ctx.reason}", file=out)
    prof = profile_tuning_section(
        w.ts, w.profile_invocations("train", limit=60), machine)
    plan = consult(w.ts, prof, machine, pointer_seeds=w.pointer_seeds)
    print("\nConsultant:", file=out)
    for note in plan.notes:
        print(f"  - {note}", file=out)
    print(f"  => {plan.chosen} (applicable: {', '.join(plan.applicable)})",
          file=out)
    return 0


def _cmd_tune(args, out) -> int:
    from .core.peak import PeakTuner, evaluate_speedup
    from .obs import Obs, render_report

    w = get_workload(args.workload)
    machine = machine_by_name(args.machine)
    want_obs = bool(args.trace_out or args.metrics_out or args.obs_report)
    obs = Obs.create() if want_obs else None
    tuner = PeakTuner(
        machine,
        seed=args.seed,
        search=_search_by_name(args.search),
        jobs=args.jobs,
        parallel_backend=args.backend,
        use_version_cache=not args.no_cache,
        use_prefix_cache=not args.no_prefix_cache,
        exec_tier=args.exec_tier,
        obs=obs,
    )
    method = None if args.method == "auto" else args.method
    flags = tuple(args.flags) if args.flags else None
    if flags:
        known = {f.name for f in ALL_FLAGS}
        unknown = set(flags) - known
        if unknown:
            print(f"unknown flags: {sorted(unknown)}", file=sys.stderr)
            return 2
    result = tuner.tune(w, dataset=args.dataset, method=method, flags=flags)
    improvement = evaluate_speedup(w, result.best_config, machine,
                                   exec_tier=args.exec_tier)
    off = sorted({f.name for f in ALL_FLAGS} - result.best_config.enabled)
    print(f"workload : {w.name} on {machine.name} ({args.dataset} input)", file=out)
    print(f"method   : {result.method_used} (tried {result.methods_tried})", file=out)
    print(f"search   : {result.search.algorithm}, "
          f"{result.search.n_ratings} ratings", file=out)
    print(f"disabled : {off or 'nothing'}", file=out)
    print(f"tuning   : {result.ledger.summary()}", file=out)
    if args.jobs is not None:
        from .core.search.parallel import resolve_jobs

        ledger = result.ledger
        print(
            f"parallel : jobs={resolve_jobs(args.jobs)} backend={args.backend}, "
            f"cache {ledger.cache_hits} hit(s) / {ledger.cache_misses} miss(es) "
            f"({ledger.cache_hit_rate:.0%}), "
            f"wall {ledger.wall_seconds:.2f}s over "
            f"{len(ledger.wall_by_worker)} worker(s)",
            file=out,
        )
        if ledger.prefix_compiles:
            print(
                f"prefix   : {ledger.prefix_full_hits}/{ledger.prefix_compiles} "
                f"compiles fully memoized, "
                f"{ledger.prefix_steps_saved} pipeline step(s) saved "
                f"({ledger.prefix_save_rate:.0%})",
                file=out,
            )
    if obs is not None:
        if args.trace_out:
            n = obs.tracer.write_jsonl(args.trace_out)
            print(f"trace    : {n} span(s) -> {args.trace_out}", file=out)
        if args.metrics_out:
            obs.metrics.write_json(args.metrics_out)
            print(f"metrics  : -> {args.metrics_out}", file=out)
        report = render_report(obs, result.ledger)
        if report:
            print("observability:", file=out)
            for line in report.splitlines():
                print(f"  {line}", file=out)
    print(f"result   : {improvement:+.2f}% vs -O3 on ref", file=out)
    return 0


def _cmd_consistency(args, out) -> int:
    from .experiments import DEFAULT_WINDOWS, consistency_experiment, render_table

    machine = machine_by_name(args.machine)
    rows = []
    for name in args.workloads:
        rows.extend(consistency_experiment(
            get_workload(name), machine,
            samples_per_window=args.samples, seed=args.seed))
    table = []
    for r in rows:
        cells = [r.benchmark,
                 r.tuning_section + (f" ({r.context_label})" if r.context_label else ""),
                 r.method]
        for w in DEFAULT_WINDOWS:
            m, s = r.stats.get(w, (float("nan"), float("nan")))
            cells.append(f"{m:+.2f}({s:.2f})")
        table.append(cells)
    print(render_table(
        ["Benchmark", "TS", "Method"] + [f"w={w}" for w in DEFAULT_WINDOWS],
        table, title="Rating consistency: Mean(StdDev) * 100"), file=out)
    return 0


def _cmd_fig7(args, out) -> int:
    from .experiments import figure7_experiment, render_table, summarize

    machine = machine_by_name(args.machine)
    benchmarks = tuple(args.benchmarks) if args.benchmarks else ("swim", "mgrid", "art", "equake")
    datasets = ("train", "ref") if args.ref else ("train",)
    entries = figure7_experiment(machine, benchmarks=benchmarks,
                                 datasets=datasets, seed=args.seed)
    rows = [
        [e.benchmark, e.method + ("*" if e.suggested else ""), e.dataset,
         f"{e.improvement_pct:7.2f}", f"{e.normalized_tuning_time:7.3f}"]
        for e in entries
    ]
    print(render_table(
        ["Benchmark", "Method", "Dataset", "Improvement %", "Time/WHL"],
        rows, title=f"Figure 7 on {machine.name} (* = consultant's choice)"),
        file=out)
    try:
        print("\n" + summarize(entries).render(), file=out)
    except ValueError:
        pass
    return 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "analyze":
        return _cmd_analyze(args, out)
    if args.command == "tune":
        return _cmd_tune(args, out)
    if args.command == "consistency":
        return _cmd_consistency(args, out)
    if args.command == "fig7":
        return _cmd_fig7(args, out)
    raise AssertionError("unreachable")  # pragma: no cover
