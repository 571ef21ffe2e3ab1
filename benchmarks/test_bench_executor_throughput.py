"""Bench — Tier-1 whole-function compilation vs the Tier-0 interpreter.

Tier 0 (:class:`Executor`) is the closure interpreter alone: it dispatches
one closure per statement and expression node and generates no code, so
the ratio below is Tier 1 against plain closure dispatch.

Measures simulated invocations/second for both execution tiers on the
hot SPEC-style loop workloads the rating methods spend their time in:
three synthetic loop kernels (reduction, daxpy, 3-point stencil) plus the
four Fig. 7 SPEC analogs, on both paper machines.  The performance gate —
Tier 1 at least 3× Tier 0 — is asserted on the SPARC-II hot-loop kernels,
where compiled code runs windowed (the direct-mapped 16 KB cache holds
the whole working set); the SPEC rows and the Pentium 4 are reported for the
record.  A second bench re-runs the parallel-scaling tune end-to-end on
both tiers: identical tuning outcome, lower wall time.

With ``REPRO_BENCH_JSON=1`` every measured row lands in
``BENCH_executor.json`` next to the pytest-benchmark artifact.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core.peak import PeakTuner
from repro.core.search import IterativeElimination
from repro.ir import ArrayRef, FunctionBuilder, Type, Var
from repro.machine import (
    PENTIUM4,
    SPARC2,
    TieredExecutor,
    Executor,
    compile_function,
)
from repro.store import Store
from repro.workloads import get_workload

#: geometric-mean floor for Tier-1 speedup on the gate set (SPARC-II
#: hot-loop kernels); individual kernels get a slightly looser floor so
#: one noisy CI core cannot flake the bench
GATE_GEOMEAN = 3.0
GATE_EACH = 2.0

_RESULTS: list[dict] = []


# --------------------------------------------------------------------------- #
# synthetic hot-loop kernels (SPEC-style inner loops)


def reduce_fn():
    b = FunctionBuilder(
        "hot_reduce",
        [("n", Type.INT), ("a", Type.FLOAT_ARRAY)],
        return_type=Type.FLOAT,
    )
    b.local("acc", Type.FLOAT)
    with b.for_("i", 0, b.var("n")) as i:
        b.assign("acc", b.var("acc") + ArrayRef("a", i))
    b.ret(b.var("acc"))
    return b.build(), lambda rng: {"n": 256, "a": rng.normal(size=256)}


def daxpy_fn():
    b = FunctionBuilder(
        "hot_daxpy",
        [
            ("n", Type.INT),
            ("c", Type.FLOAT),
            ("x", Type.FLOAT_ARRAY),
            ("y", Type.FLOAT_ARRAY),
        ],
    )
    with b.for_("i", 0, b.var("n")) as i:
        b.store("y", i, Var("c") * ArrayRef("x", i) + ArrayRef("y", i))
    b.ret()
    return b.build(), lambda rng: {
        "n": 256,
        "c": 1.000001,
        "x": rng.normal(size=256),
        "y": rng.normal(size=256),
    }


def stencil_fn():
    b = FunctionBuilder(
        "hot_stencil",
        [("n", Type.INT), ("a", Type.FLOAT_ARRAY), ("b", Type.FLOAT_ARRAY)],
    )
    with b.for_("i", 1, b.var("n") - 1) as i:
        b.store(
            "b",
            i,
            (ArrayRef("a", i - 1) + ArrayRef("a", i) + ArrayRef("a", i + 1))
            * (1.0 / 3.0),
        )
    b.ret()
    return b.build(), lambda rng: {
        "n": 512,
        "a": rng.normal(size=512),
        "b": np.zeros(512),
    }


KERNELS = {"reduce": reduce_fn, "daxpy": daxpy_fn, "stencil": stencil_fn}
GATE_KERNELS = ("reduce", "daxpy", "stencil")
SPEC_NAMES = ("swim", "mgrid", "equake", "art")


# --------------------------------------------------------------------------- #
# measurement


def _throughput(make_executor, exe, envs, sweeps=3) -> float:
    """Invocations/second, best of *sweeps* timed passes over *envs*."""
    ex = make_executor()
    for env in envs[: min(6, len(envs))]:
        ex.run(exe, {k: (np.array(v) if hasattr(v, "__len__") else v)
                     for k, v in env.items()})
    best = None
    for _ in range(sweeps):
        fresh = [
            {k: (np.array(v) if hasattr(v, "__len__") else v)
             for k, v in env.items()}
            for env in envs
        ]
        t0 = time.perf_counter()
        for env in fresh:
            ex.run(exe, env)
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return len(envs) / best


def _measure_kernel(name: str, machine) -> dict:
    fn, env_of = KERNELS[name]()
    exe = compile_function(fn, machine)
    rng = np.random.default_rng(5)
    envs = [env_of(rng) for _ in range(80)]
    t0 = _throughput(lambda: Executor(machine), exe, envs)
    t1 = _throughput(
        lambda: TieredExecutor(machine, code_cache=Store()), exe, envs
    )
    return {
        "workload": name,
        "machine": machine.name,
        "kind": "kernel",
        "tier0_inv_per_sec": t0,
        "tier1_inv_per_sec": t1,
        "speedup": t1 / t0,
    }


def _measure_spec(name: str, machine) -> dict:
    w = get_workload(name)
    exe = compile_function(w.ts, machine)
    ds = w.dataset("train")
    rng = np.random.default_rng(5)
    envs = [ds.env(rng, i) for i in range(60)]
    t0 = _throughput(lambda: Executor(machine), exe, envs)
    t1 = _throughput(
        lambda: TieredExecutor(machine, code_cache=Store()), exe, envs
    )
    return {
        "workload": name,
        "machine": machine.name,
        "kind": "spec",
        "tier0_inv_per_sec": t0,
        "tier1_inv_per_sec": t1,
        "speedup": t1 / t0,
    }


# --------------------------------------------------------------------------- #
# benches


def test_bench_hot_kernels_sparc2_gate(benchmark):
    """The ≥3× gate: windowed compiled code on the direct-mapped paper machine."""
    rows = benchmark.pedantic(
        lambda: [_measure_kernel(k, SPARC2) for k in GATE_KERNELS],
        rounds=1,
        iterations=1,
    )
    _RESULTS.extend(rows)
    for row in rows:
        print(
            f"{row['machine']:9s} {row['workload']:8s}"
            f" tier0={row['tier0_inv_per_sec']:9.0f}/s"
            f" tier1={row['tier1_inv_per_sec']:9.0f}/s"
            f" {row['speedup']:.2f}x"
        )
        assert row["speedup"] >= GATE_EACH, row
    geomean = float(np.exp(np.mean([np.log(r["speedup"]) for r in rows])))
    print(f"gate geomean: {geomean:.2f}x (floor {GATE_GEOMEAN}x)")
    assert geomean >= GATE_GEOMEAN


def test_bench_hot_kernels_pentium4(benchmark):
    """Informational: the set-associative machine (inline MRU + LRU helper)."""
    rows = benchmark.pedantic(
        lambda: [_measure_kernel(k, PENTIUM4) for k in GATE_KERNELS],
        rounds=1,
        iterations=1,
    )
    _RESULTS.extend(rows)
    for row in rows:
        print(f"{row['machine']:9s} {row['workload']:8s} {row['speedup']:.2f}x")
        assert row["speedup"] >= 1.0, row


@pytest.mark.parametrize("machine", (SPARC2, PENTIUM4), ids=lambda m: m.name)
def test_bench_spec_analogs(benchmark, machine):
    """Informational: the Fig. 7 SPEC analogs (mixed hot/cold/call blocks)."""
    rows = benchmark.pedantic(
        lambda: [_measure_spec(n, machine) for n in SPEC_NAMES],
        rounds=1,
        iterations=1,
    )
    _RESULTS.extend(rows)
    for row in rows:
        print(f"{row['machine']:9s} {row['workload']:8s} {row['speedup']:.2f}x")
    # the loop-dominated SPEC analogs must at least clearly beat Tier 0
    by_name = {r["workload"]: r for r in rows}
    assert by_name["swim"]["speedup"] >= 1.5
    assert by_name["mgrid"]["speedup"] >= 1.5


def _tune_wall(exec_tier: int):
    t0 = time.perf_counter()
    tuner = PeakTuner(
        SPARC2,
        seed=1,
        search=IterativeElimination(),
        exec_tier=exec_tier,
    )
    result = tuner.tune(
        get_workload("swim"),
        dataset="train",
        flags=(
            "strength-reduce",
            "schedule-insns",
            "schedule-insns2",
            "inline-functions",
            "loop-optimize",
        ),
    )
    return result, time.perf_counter() - t0


def test_bench_peak_tuning_wall_time(benchmark):
    """End to end: the parallel-scaling tune, Tier 1 vs Tier 0.

    The tiers must agree bit-for-bit on the tuning outcome, and Tier 1
    must improve wall time — the compounding win Tier 1 exists for.
    """
    (r0, w0), (r1, w1) = benchmark.pedantic(
        lambda: (_tune_wall(0), _tune_wall(1)), rounds=1, iterations=1
    )
    assert r1.best_config == r0.best_config
    assert r1.method_used == r0.method_used
    assert r1.ledger.total_cycles == r0.ledger.total_cycles
    speedup = w0 / w1
    print(f"peak tune wall: tier0={w0:.2f}s tier1={w1:.2f}s ({speedup:.2f}x)")
    _RESULTS.append(
        {
            "workload": "peak-tune-swim",
            "machine": SPARC2.name,
            "kind": "e2e",
            "tier0_wall_s": w0,
            "tier1_wall_s": w1,
            "speedup": speedup,
        }
    )
    assert w1 < w0, "Tier 1 must reduce end-to-end tuning wall time"


# --------------------------------------------------------------------------- #
# artifact


@pytest.fixture(scope="module", autouse=True)
def _emit_json(request):
    yield
    if os.environ.get("REPRO_BENCH_JSON") != "1" or not _RESULTS:
        return
    payload = {"experiment": "executor_throughput", "rows": _RESULTS}
    path = os.path.join(str(request.config.rootpath), "BENCH_executor.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
