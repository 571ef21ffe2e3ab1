"""Experiment E2 — Table 1: consistency of the rating approaches.

For each benchmark's most important tuning section, the experimental system
uniformly samples ratings throughout execution with the training input and
a single experimental version compiled under ``-O3``.  Each rating ``V_i``
averages ``w`` invocations; the rating error is

    X_i = V_i / mean(V) - 1      (CBR, MBR — the ideal rating is unknown)
    X_i = V_i - 1                (RBR — the ideal is exactly 1, because the
                                  experimental version IS the base version)

and the table reports mean(X) and std(X), scaled by 100, for
w ∈ {10, 20, 40, 80, 160}.  Like the paper, multi-context CBR sections get
one row per context.

Implementation note: the per-invocation measurements are collected once and
then re-chunked per window size (equivalent to the paper's uniform sampling,
and far cheaper than re-running per w).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.context import context_key
from ..compiler.options import OptConfig
from ..compiler.pipeline import compile_version
from ..core.rating.base import RatingSettings
from ..core.rating.consultant import consult
from ..core.rating.feed import InvocationFeed
from ..core.rating.mbr import solve_component_times
from ..core.rating.outliers import filter_outliers
from ..machine.config import MachineConfig
from ..machine.profiler import profile_tuning_section
from ..runtime.counters import COUNTER_ARRAY, fresh_counter_buffer, read_counters
from ..runtime.instrument import TimedExecutor
from ..runtime.ledger import TuningLedger
from ..runtime.save_restore import SaveRestorePlan
from ..core.rating.rbr import ReExecutionRating
from ..workloads.base import Workload

__all__ = ["ConsistencyRow", "consistency_experiment", "DEFAULT_WINDOWS"]

DEFAULT_WINDOWS = (10, 20, 40, 80, 160)


@dataclass
class ConsistencyRow:
    """One Table 1 row: a tuning section (or one context of it)."""

    benchmark: str
    tuning_section: str
    method: str
    paper_invocations: str
    context_label: str  # "" or "Context k"
    #: window size -> (mean*100, std*100) of the rating errors
    stats: dict[int, tuple[float, float]] = field(default_factory=dict)

    def max_abs_mean(self) -> float:
        return max(abs(m) for m, _ in self.stats.values())

    def stds(self) -> list[float]:
        return [s for _, (_, s) in sorted(self.stats.items())]


def _window_stats(
    samples: np.ndarray, windows: tuple[int, ...], *, rbr: bool, outlier_k: float
) -> dict[int, tuple[float, float]]:
    """Chunk per-invocation samples into windows and compute (μ, σ)·100."""
    out: dict[int, tuple[float, float]] = {}
    for w in windows:
        n_chunks = samples.size // w
        if n_chunks < 2:
            continue
        ratings = []
        for c in range(n_chunks):
            chunk = filter_outliers(samples[c * w : (c + 1) * w], outlier_k)
            if chunk.size:
                ratings.append(float(np.mean(chunk)))
        V = np.asarray(ratings)
        if rbr:
            X = V - 1.0
        else:
            X = V / float(np.mean(V)) - 1.0
        mu = float(np.mean(X)) * 100.0
        sigma = float(np.std(X, ddof=1)) * 100.0 if X.size > 1 else 0.0
        out[w] = (mu, sigma)
    return out


def consistency_experiment(
    workload: Workload,
    machine: MachineConfig,
    *,
    windows: tuple[int, ...] = DEFAULT_WINDOWS,
    samples_per_window: int = 12,
    seed: int = 0,
    settings: RatingSettings = RatingSettings(),
) -> list[ConsistencyRow]:
    """Measure rating consistency for one workload (its Table 1 rows)."""
    # derive a per-workload seed so benchmark rows are independent draws
    import zlib

    seed = seed + zlib.crc32(workload.name.encode()) % 997
    profile = profile_tuning_section(
        workload.ts,
        workload.profile_invocations("train", limit=80),
        machine,
    )
    plan = consult(workload.ts, profile, machine,
                   pointer_seeds=workload.pointer_seeds)
    method = workload.paper.rating_approach  # the paper's chosen approach
    if method not in plan.applicable:
        method = plan.chosen

    max_w = max(windows)
    needed = samples_per_window * max_w

    ledger = TuningLedger()
    ds = workload.dataset("train")
    feed = InvocationFeed(ds.generator, ds.n_invocations, ds.non_ts_cycles,
                          ledger, seed=seed)
    timed = TimedExecutor(machine, seed=seed, ledger=ledger)

    def make_row(context_label: str, samples: np.ndarray, *, rbr: bool) -> ConsistencyRow:
        return ConsistencyRow(
            benchmark=workload.paper.benchmark,
            tuning_section=workload.paper.tuning_section,
            method=method,
            paper_invocations=workload.paper.invocations,
            context_label=context_label,
            stats=_window_stats(samples, windows, rbr=rbr,
                                outlier_k=settings.outlier_k),
        )

    if method == "CBR":
        version = compile_version(workload.ts, OptConfig.o3(), machine)
        per_context: dict[tuple, list[float]] = {}
        budget = needed * max(1, plan.n_contexts) + max_w
        for _ in range(budget):
            inputs = feed.next_env()
            key = context_key(plan.context, inputs.env)
            t = timed.invoke(version, inputs).measured_cycles
            per_context.setdefault(key, []).append(t)
            if per_context and min(len(v) for v in per_context.values()) >= needed:
                break
        rows = []
        multi = len(per_context) > 1
        # order contexts by their total time (most important first)
        ordered = sorted(per_context, key=lambda k: -sum(per_context[k]))
        for idx, key in enumerate(ordered, start=1):
            label = f"Context {idx}" if multi else ""
            rows.append(
                make_row(label, np.asarray(per_context[key]), rbr=False)
            )
        return rows

    if method == "MBR":
        assert plan.instrumented_fn is not None and plan.component_model is not None
        version = compile_version(plan.instrumented_fn, OptConfig.o3(), machine)
        n_counters = len(plan.component_model.counter_blocks())
        ys: list[float] = []
        cols: list[np.ndarray] = []
        for _ in range(needed):
            env = dict(feed.next_env().env)
            env[COUNTER_ARRAY] = fresh_counter_buffer(n_counters)
            ys.append(timed.invoke(version, env).measured_cycles)
            cols.append(read_counters(env))
        Y = np.asarray(ys)
        C_all = np.vstack(cols).T  # (n_counters, N)
        # per-window MBR rating: regression over each chunk
        out: dict[int, tuple[float, float]] = {}
        reps = plan.component_model.counter_blocks()
        for w in windows:
            if w <= n_counters + 1:
                continue
            n_chunks = Y.size // w
            if n_chunks < 2:
                continue
            ratings = []
            for c in range(n_chunks):
                sl = slice(c * w, (c + 1) * w)
                counts = {rep: C_all[i, sl] for i, rep in enumerate(reps)}
                C = plan.component_model.design_matrix(counts)
                T = solve_component_times(Y[sl], C)
                if plan.mbr_dominant is not None:
                    ratings.append(float(T[plan.mbr_dominant]))
                else:
                    ratings.append(float(T @ plan.avg_counts))
            V = np.asarray(ratings)
            X = V / float(np.mean(V)) - 1.0
            out[w] = (float(np.mean(X)) * 100.0,
                      float(np.std(X, ddof=1)) * 100.0)
        row = make_row("", np.empty(0), rbr=False)
        row.stats = out
        return [row]

    # RBR: the experimental version equals the base version; ideal rating 1
    version = compile_version(workload.ts, OptConfig.o3(), machine)
    save_plan = SaveRestorePlan(workload.ts, machine)
    rbr = ReExecutionRating(save_plan, settings, timed)
    ratios = [
        rbr._one_invocation(version, version, feed.next_env())
        for _ in range(needed)
    ]
    return [make_row("", np.asarray(ratios), rbr=True)]
