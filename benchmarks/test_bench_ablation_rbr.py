"""Bench E9 — ablation: basic vs improved RBR (paper Section 2.4.2).

The basic method (Fig. 3) times the first version cold — the save/restore
traffic and the previous invocation disturb the cache — while the second
version runs warm, biasing the comparison.  The improved method (Fig. 4)
preconditions the cache and swaps execution order each invocation.

We rate a version against ITSELF (true ratio exactly 1.0) on a
cache-sensitive workload and compare the bias |mean(R) - 1| of both
methods: the improved method must be markedly less biased.
"""

from __future__ import annotations

import numpy as np

from repro.compiler import OptConfig, compile_version
from repro.core.rating import InvocationFeed, RatingSettings, ReExecutionRating
from repro.machine import NoiseModel, SPARC2
from repro.runtime import SaveRestorePlan, TimedExecutor, TuningLedger
from repro.workloads import get_workload


def rbr_bias(improved: bool, n: int = 160) -> float:
    """|mean(R) - 1| when rating an -O3 version against itself."""
    w = get_workload("equake")  # irregular memory: cache state matters
    version = compile_version(w.ts, OptConfig.o3(), SPARC2)
    plan = SaveRestorePlan(w.ts, SPARC2)
    ledger = TuningLedger()
    ds = w.dataset("train")
    feed = InvocationFeed(ds.generator, ds.n_invocations, ds.non_ts_cycles,
                          ledger, seed=11)
    # measurement noise off: isolate the *systematic* cache/order bias
    timed = TimedExecutor(SPARC2, seed=11, noise=NoiseModel.disabled(),
                          ledger=ledger)
    rbr = ReExecutionRating(plan, RatingSettings(), timed, improved=improved)
    ratios = [
        rbr._one_invocation(version, version, feed.next_env())
        for _ in range(n)
    ]
    return abs(float(np.mean(ratios)) - 1.0)


def run_ablation():
    return rbr_bias(improved=False), rbr_bias(improved=True)


def test_bench_rbr_improved_vs_basic(benchmark):
    basic, improved = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print()
    print(f"RBR self-rating bias |mean(R)-1| (ideal 0): "
          f"basic={basic:.4f}, improved={improved:.4f}")
    # the improved method's preconditioning + swapping removes most of the
    # systematic bias the basic method suffers
    assert improved < basic
    assert improved < 0.01  # within 1% of the ideal rating
