"""The repository benchmark: timed PEAK tunes, checked against expected records.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tune-serial --seed 1 --seconds 30 --trace 0

A *pass* runs every operation of the workload once (see ``operations.py``
and ``manifest.json``); ``--seed`` shuffles the order in which a pass runs
them.  The operations' own inputs are fixed by ``--tune-seed`` (default 1),
so every ``--seed`` does the same work and is checked against the same
expected record (``expected.json``).

``--trace 0`` repeats passes while the next one, and the set-up probes
after the last, are predicted to end within ``--seconds`` of the start
(always at least one pass) and reports the end-to-end metrics: the median
pass's seconds and rates in reference seconds (``speed.py``: seconds on a
machine that runs the reference loop in ``REFERENCE_LOOP_S``, so that the
shared machine's changing speed cancels out); ``setup_s`` is the median of
several fresh interpreters importing the program and building the
workload's operations.
``--trace 1`` runs one untraced pass and then one pass with per-layer spans
(``layer_trace.py``) and reports the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # --setup-only measures from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh interpreters timed per run for ``setup_s``: as many as the budget
#: leaves room for after the passes, within these limits
SETUP_PROBES = 9
MIN_SETUP_PROBES = 3
#: the tune seed of the committed expected record and of every default run
DEFAULT_TUNE_SEED = 1
#: seconds the reference machine takes for one reference loop; a pass's
#: reference seconds are its seconds * REFERENCE_LOOP_S / measured loop seconds
REFERENCE_LOOP_S = 0.001


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1,
                   help="seeds the order in which a pass runs its operations")
    p.add_argument("--seconds", type=float, default=45.0,
                   help="measurement budget; at least one pass always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics")
    p.add_argument("--tune-seed", type=int, default=DEFAULT_TUNE_SEED,
                   help="PeakTuner seed of every operation (needs an expected "
                        "record; see make_expected.py)")
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the operations, print the seconds "
                        "taken and exit (used to time set-up)")
    return p.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source at {SRC / 'repro'}; "
            "run from the root of a repository checkout"
        )
    sys.path.insert(0, str(SRC))


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------- #
# passes


@dataclass
class PassResult:
    """One pass over the workload's operations."""

    wall: float = 0.0
    cpu: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: (operation, TuningResult, improvement_pct) of every op that completed,
    #: in manifest order whatever order the pass ran them in, so float sums
    #: over operations repeat bit for bit
    outcomes: list = field(default_factory=list)
    exec_cache_hits: int = 0
    exec_cache_misses: int = 0
    #: mean thread CPU seconds of the reference loop during the pass (traced
    #: passes are not probed and report no reference seconds)
    loop_s: float = REFERENCE_LOOP_S

    @property
    def wall_ref(self) -> float:
        return self.wall * REFERENCE_LOOP_S / self.loop_s

    @property
    def cpu_ref(self) -> float:
        return self.cpu * REFERENCE_LOOP_S / self.loop_s

    @property
    def ratings(self) -> int:
        return sum(r.search.n_ratings for _, r, _ in self.outcomes)

    @property
    def invocations(self) -> int:
        return sum(r.ledger.invocations for _, r, _ in self.outcomes)

    @property
    def cycles(self) -> float:
        return sum(r.ledger.total_cycles for _, r, _ in self.outcomes)

    @property
    def improvement_pct(self) -> float:
        imps = [imp for _, _, imp in self.outcomes]
        return statistics.fmean(imps) if imps else 0.0


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def run_pass(ops, order, expected: list[dict], tune_seed: int) -> PassResult:
    import operations
    from repro.machine.jit import global_executable_cache

    p = PassResult()
    done = {}
    t0, c0 = time.perf_counter(), cpu_seconds()
    for i in order:
        op = ops[i]
        operations.reset_process_caches()
        p.attempted += 1
        try:
            result, improvement = operations.run_operation(
                op, tune_seed=tune_seed, exec_tier=1
            )
        except Exception:  # an operation that raises counts as failed
            p.failed += 1
            print(f"perfbench: {op.label} raised", file=sys.stderr)
            traceback.print_exc()
            continue
        cache = global_executable_cache()
        p.exec_cache_hits += cache.hits
        p.exec_cache_misses += cache.misses
        record = operations.output_record(op, result, improvement)
        if record != expected[i]:
            p.failed += 1
            print(f"perfbench: {op.label} differs from the expected record\n"
                  f"  expected {json.dumps(expected[i])}\n"
                  f"  got      {json.dumps(record)}", file=sys.stderr)
        done[i] = (op, result, improvement)
    p.wall = time.perf_counter() - t0
    p.cpu = cpu_seconds() - c0
    p.outcomes = [done[i] for i in sorted(done)]
    return p


# --------------------------------------------------------------------------- #
# metrics


def measure_setup(args: argparse.Namespace, probes: int) -> list[float]:
    """Seconds a fresh interpreter takes to import and build the operations."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-only",
           "--workload", args.workload, "--tune-seed", str(args.tune_seed)]
    times = []
    for _ in range(probes):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (pool workers)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end_metrics(passes: list[PassResult], setup: list[float], rss: float) -> dict:
    """Medians over passes; the ledger metrics repeat exactly from pass to pass."""
    return {
        "setup_s": statistics.median(setup),
        "wall_ref_s": statistics.median(p.wall_ref for p in passes),
        "cpu_ref_s": statistics.median(p.cpu_ref for p in passes),
        "ratings_per_ref_s": statistics.median(p.ratings / p.wall_ref for p in passes),
        "invocations_per_ref_s": statistics.median(p.invocations / p.wall_ref
                                                   for p in passes),
        "tuning_gcycles": statistics.median(p.cycles for p in passes) / 1e9,
        "improvement_pct": statistics.median(p.improvement_pct for p in passes),
        "peak_rss_mb": rss,
    }


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(trace, traced: PassResult, untraced: PassResult,
                  unmeasured: list[str]) -> dict:
    results = [r for _, r, _ in traced.outcomes]
    ledgers = [r.ledger for r in results]
    vc_hits = sum(lg.cache_hits for lg in ledgers)
    vc_lookups = vc_hits + sum(lg.cache_misses for lg in ledgers)
    px_saved = sum(lg.prefix_steps_saved for lg in ledgers)
    px_steps = px_saved + sum(lg.prefix_steps_run for lg in ledgers)
    ex_lookups = traced.exec_cache_hits + traced.exec_cache_misses
    jobs = max((op.jobs or 1 for op, _, _ in traced.outcomes), default=1)
    batch_wait = trace.total_s("core.engine.batch")
    busy = float(sum(lg.wall_seconds for lg in ledgers))
    metrics = {
        "machine.execute.self_s": trace.self_s("machine.execute"),
        "machine.executions": trace.calls("machine.execute"),
        "machine.profile.self_s": trace.self_s("machine.profile"),
        "machine.exec_cache.hit_rate": _ratio(traced.exec_cache_hits, ex_lookups),
        "machine.exec_cache.lookups": ex_lookups,
        "compiler.compile.self_s": trace.self_s("compiler.compile"),
        "compiler.compiles": trace.calls("compiler.compile"),
        "compiler.version_cache.hit_rate": _ratio(vc_hits, vc_lookups),
        "compiler.version_cache.lookups": vc_lookups,
        "compiler.prefix.save_rate": _ratio(px_saved, px_steps),
        "compiler.prefix.steps": px_steps,
        "runtime.invoke.self_s": trace.self_s("runtime.invoke"),
        "runtime.invocations": sum(lg.invocations for lg in ledgers),
        "runtime.program_runs": sum(lg.program_runs for lg in ledgers),
        "runtime.save_restore.self_s": trace.self_s("runtime.save_restore"),
        "runtime.save_restore.calls": trace.calls("runtime.save_restore"),
        "core.rating.feed.self_s": trace.self_s("core.rating.feed"),
        "core.rating.feed.inputs": trace.calls("core.rating.feed"),
        "core.rating.rate.self_s": trace.self_s("core.rating.rate"),
        "core.rating.ratings": sum(r.n_versions_rated for r in results),
        "core.rating.method_switches": sum(len(r.methods_tried) - 1 for r in results),
        "core.rating.consult.self_s": trace.self_s("core.rating.consult"),
        "core.search.self_s": trace.self_s("core.search"),
        "core.search.ratings": sum(r.search.n_ratings for r in results),
        "core.peak.evaluate.self_s": trace.self_s("core.peak.evaluate"),
        "core.engine.batch_wait_s": batch_wait,
        "core.engine.batches": trace.calls("core.engine.batch"),
        "core.engine.tasks": trace.engine_tasks,
        "core.engine.worker_busy_s": busy,
        "core.engine.worker_util": _ratio(busy, jobs * batch_wait),
        "trace.overhead_frac": traced.wall / untraced.wall - 1.0,
    }
    for name in unmeasured:
        metrics[name] = -1
    return metrics


# --------------------------------------------------------------------------- #


def environment_stamp() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    manifest = load_json(HERE / "manifest.json")
    if args.workload not in manifest["workloads"]:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(manifest['workloads'])}")
    import_program()
    import operations

    ops = operations.load_operations(manifest, args.workload, tune_seed=args.tune_seed)
    own_setup = time.perf_counter() - _START
    if args.setup_only:
        print(f"{own_setup!r}")
        return 0

    env = environment_stamp()
    bench = load_json(ROOT / "BENCHMARK.json")
    records = load_json(HERE / "expected.json")["tune_seeds"].get(str(args.tune_seed))
    if records is None:
        raise SystemExit(f"perfbench: no expected record for tune seed "
                         f"{args.tune_seed}; generate it with perfbench/make_expected.py")
    expected = records[args.workload]
    if [rec["operation"] for rec in expected] != [op.label for op in ops]:
        raise SystemExit(f"perfbench: expected.json does not list {args.workload}'s "
                         f"operations; regenerate it with perfbench/make_expected.py")
    order = random.Random(args.seed).sample(range(len(ops)), len(ops))

    unmeasured: list[str] = []
    if args.trace:
        from layer_trace import LayerTrace

        untraced = run_pass(ops, order, expected, args.tune_seed)
        with LayerTrace() as trace:
            traced = run_pass(ops, order, expected, args.tune_seed)
        passes = [untraced, traced]
        unmeasured = manifest["unmeasured_on"].get(args.workload, {}).get("metrics", [])
        values = layer_metrics(trace, traced, untraced, unmeasured)
        specs = bench["per_layer"]
    else:
        from speed import SpeedProbe

        # the probes run after the passes, so that peak_rss_mb sees no probe;
        # their time, with a margin for interpreter start, is kept from the budget
        probe_s = 1.5 * own_setup
        passes = []
        started = time.perf_counter()
        while True:
            with SpeedProbe() as speed:
                passes.append(run_pass(ops, order, expected, args.tune_seed))
            passes[-1].loop_s = speed.loop_s
            per_pass = (time.perf_counter() - started) / len(passes)
            if (time.perf_counter() - _START + per_pass + SETUP_PROBES * probe_s
                    > args.seconds):
                break
        rss = peak_rss_mb()  # before the set-up probes add children
        left = args.seconds - (time.perf_counter() - _START)
        probes = min(SETUP_PROBES, max(MIN_SETUP_PROBES, int(left / probe_s)))
        values = end_to_end_metrics(passes, measure_setup(args, probes), rss)
        specs = bench["end_to_end"]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: no value computed for {missing}")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}

    print(f"workload: {args.workload}  seed={args.seed}  tune_seed={args.tune_seed}  "
          f"passes={len(passes)}  order={[ops[i].label for i in order]}")
    print(f"env: {json.dumps(env)}")
    print(f"pass wall s: {[round(p.wall, 3) for p in passes]}  "
          f"cpu s: {[round(p.cpu, 3) for p in passes]}"
          + ("" if args.trace else
             f"  reference loop ms: {[round(1e3 * p.loop_s, 4) for p in passes]}"
             f"  setup probes: {probes}"))
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_frac':<34} {failed / attempted:>16.6g} frac "
          f"({failed} of {attempted} operations)")
    if args.trace:
        print("spans (parent -> span: calls):")
        for (parent, name), calls in sorted(trace.edges.items(), key=str):
            print(f"  {parent or '-'} -> {name}: {calls}")
    if unmeasured:
        print(f"unmeasured (reported as -1; work runs in pool workers): "
              f"{', '.join(unmeasured)}")
    determ = set(manifest["deterministic"])
    print("deterministic: " + json.dumps(
        {name: values[name] for name in metrics if name in determ and name not in unmeasured}
        | {"tuning_cycles": [p.cycles for p in passes],
           "improvement_pct": [p.improvement_pct for p in passes]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
