"""Substrate micro-benchmarks: the simulated machine and compiler.

Not tied to a paper artifact; these track the performance of the pieces the
experiments are built from (useful when modifying the compiler or the Tier-0
executor, the closure interpreter that :class:`Executor` runs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler import OptConfig, compile_version
from repro.machine import CacheSim, Executor, SPARC2
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def swim_version():
    w = get_workload("swim")
    return w, compile_version(w.ts, OptConfig.o3(), SPARC2)


def test_bench_executor_invocation(benchmark, swim_version):
    w, version = swim_version
    ex = Executor(SPARC2)
    rng = np.random.default_rng(0)
    env = w.dataset("train").env(rng, 0)

    def run():
        ex.run(version.exe, env, factors=version.factors)

    benchmark(run)


def test_bench_compile_version(benchmark):
    w = get_workload("swim")

    def compile_():
        return compile_version(w.ts, OptConfig.o3(), SPARC2)

    v = benchmark(compile_)
    assert v.exe is not None


def test_bench_cache_sim(benchmark):
    cache = CacheSim(16 * 1024, 32, 1, 1.0, 28.0)
    addrs = list(range(0, 64 * 1024, 8))

    def sweep():
        access = cache.access
        return sum(access(a) for a in addrs)

    total = benchmark(sweep)
    assert total > 0


def test_bench_full_tuning_small(benchmark):
    """End-to-end PEAK tuning over a 3-flag space (the macro path)."""
    from repro.core import PeakTuner

    w = get_workload("swim")

    def tune():
        tuner = PeakTuner(SPARC2, seed=1, profile_limit=40)
        return tuner.tune(w, flags=("gcse", "schedule-insns", "peephole2"))

    res = benchmark.pedantic(tune, rounds=1, iterations=1)
    assert res.best_config is not None
