"""Bench — incremental compilation: cold vs warm search-space sweep.

Compiles an Iterative-Elimination-shaped sweep (-O3 plus each one-flag-off
configuration, 39 configs) of three tuning sections, once cold and once
through a shared pass-prefix store, and times both.  The cache's
acceptance gate is a >= 2x wall-time reduction with *bit-identical*
Versions — both asserted here, so a regression in either the speedup or
the correctness contract fails the nightly run.

With ``REPRO_BENCH_JSON=1`` the measured times land in
``BENCH_compile.json`` (uploaded as a CI artifact next to the Fig. 7 data).
"""

from __future__ import annotations

import json
import os
import time

from conftest import smoke_mode

from repro.compiler import (
    ALL_FLAGS,
    PREFIX_CACHE_MAX,
    OptConfig,
    PrefixStats,
    compile_version,
)
from repro.machine import PENTIUM4
from repro.store import Store
from repro.workloads import get_workload

BENCHMARKS = ("swim", "mgrid", "art")
SWEEP = (OptConfig.o3(),) + tuple(
    OptConfig.o3().without(f.name) for f in ALL_FLAGS
)
#: the gate from the incremental-compilation issue: warm must halve compile
#: time (measured headroom is ~5x; 2x leaves slack for noisy CI runners)
MIN_SPEEDUP = 2.0


def _sweep(prefix_cache=None, prefix_stats=None):
    versions = []
    for name in BENCHMARKS:
        fn = get_workload(name).ts
        for config in SWEEP:
            versions.append(compile_version(
                fn, config, PENTIUM4,
                prefix_cache=prefix_cache, prefix_stats=prefix_stats,
            ))
    return versions


def _best_of(fn, rounds):
    best, result = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_compile_incremental(benchmark):
    rounds = 2 if smoke_mode() else 3
    cold_s, cold = _best_of(_sweep, rounds)

    stats = PrefixStats()

    def warm_sweep():
        # a fresh cache per round: the sweep itself provides the sharing
        return _sweep(prefix_cache=Store(PREFIX_CACHE_MAX), prefix_stats=stats)

    warm_s, warm = _best_of(warm_sweep, rounds)

    for v_cold, v_warm in zip(cold, warm):
        assert str(v_cold.ir) == str(v_warm.ir), v_cold.label
        assert v_cold.factors == v_warm.factors, v_cold.label
        assert v_cold.code_size == v_warm.code_size, v_cold.label
        assert v_cold.block_spill == v_warm.block_spill, v_cold.label
        assert [
            (b.label, b.compute_cycles, b.spill_cycles, b.is_branch)
            for b in v_cold.exe.blocks.values()
        ] == [
            (b.label, b.compute_cycles, b.spill_cycles, b.is_branch)
            for b in v_warm.exe.blocks.values()
        ], v_cold.label

    per_round = stats.compiles // rounds
    assert per_round == len(BENCHMARKS) * len(SWEEP)
    assert stats.full_hits > 0, "a sweep must fully memoize some compiles"

    speedup = cold_s / warm_s
    assert speedup >= MIN_SPEEDUP, (
        f"warm sweep must be >= {MIN_SPEEDUP}x faster than cold "
        f"(cold {cold_s * 1e3:.1f} ms, warm {warm_s * 1e3:.1f} ms, "
        f"{speedup:.2f}x)"
    )

    benchmark.extra_info["cold_ms"] = cold_s * 1e3
    benchmark.extra_info["warm_ms"] = warm_s * 1e3
    benchmark.extra_info["speedup"] = speedup
    benchmark.pedantic(warm_sweep, rounds=1, iterations=1)

    if os.environ.get("REPRO_BENCH_JSON") == "1":
        payload = {
            "experiment": "incremental_compile",
            "smoke": smoke_mode(),
            "benchmarks": list(BENCHMARKS),
            "configs": len(SWEEP),
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "speedup": speedup,
            "steps_saved_per_round": stats.steps_saved // (rounds + 1),
            "steps_total_per_round": stats.steps_total // (rounds + 1),
        }
        with open("BENCH_compile.json", "w") as fh:
            json.dump(payload, fh, indent=2)
