"""Collectors: fold the run's scattered accounting into the registry.

Each collector reads one existing accounting surface — the tuning ledger
(which carries every rating task's version-cache and pass-prefix
traffic) and the counters of each cache store — and writes it into the
metrics registry under a stable name, so ``--metrics-out`` emits one
document covering everything a run counted.  :func:`render_report` is the
human view of the same data plus the span tree.
"""

from __future__ import annotations

from typing import Any

from .context import Obs
from .trace import Span

__all__ = ["collect_ledger", "collect_cache", "collect_run", "render_report"]


def collect_ledger(obs: Obs, ledger: Any) -> None:
    """Fold a :class:`~repro.runtime.ledger.TuningLedger` into the registry."""
    m = obs.metrics
    if not m.enabled:
        return
    for category, cycles in ledger.by_category.items():
        m.counter("ledger.cycles", category=category).inc(cycles)
    m.counter("ledger.invocations").inc(ledger.invocations)
    m.counter("ledger.program_runs").inc(ledger.program_runs)
    m.counter("cache.version.hits").inc(ledger.cache_hits)
    m.counter("cache.version.misses").inc(ledger.cache_misses)
    m.counter("cache.prefix.compiles").inc(ledger.prefix_compiles)
    m.counter("cache.prefix.full_hits").inc(ledger.prefix_full_hits)
    m.counter("cache.prefix.steps_saved").inc(ledger.prefix_steps_saved)
    m.counter("cache.prefix.steps_run").inc(ledger.prefix_steps_run)
    for worker, seconds in ledger.wall_by_worker.items():
        m.counter("wall.seconds", worker=worker).inc(seconds)
    m.gauge("ledger.total_cycles").set(ledger.total_cycles)


def collect_cache(
    obs: Obs,
    layer: str,
    *,
    hits: int,
    misses: int,
    evictions: int = 0,
    size: int = 0,
) -> None:
    """Record one cache layer's hit/miss/eviction traffic and live size."""
    m = obs.metrics
    if not m.enabled:
        return
    m.counter(f"cache.{layer}.hits").inc(hits)
    m.counter(f"cache.{layer}.misses").inc(misses)
    m.counter(f"cache.{layer}.evictions").inc(evictions)
    m.gauge(f"cache.{layer}.size").set(size)


def collect_run(
    obs: Obs,
    *,
    ledger: Any = None,
    version_cache: Any = None,
    prefix_cache: Any = None,
    run_memo: Any = None,
) -> None:
    """End-of-run sweep: ledger + in-process cache stores + span coverage.

    ``version_cache``, ``prefix_cache`` and ``run_memo`` are the parent
    context's version, pass-prefix and WHL program-run stores, reported as
    ``cache.version.local.*``, ``cache.prefix.local.*`` and
    ``cache.run.local.*`` (worker processes report their version and
    prefix traffic through the ledger instead).
    """
    if ledger is not None:
        collect_ledger(obs, ledger)
        if obs.tracer.enabled:
            obs.gauge("trace.coverage").set(
                obs.tracer.coverage(ledger.total_cycles)
            )
            obs.gauge("trace.spans").set(obs.tracer.span_count())
    for layer, store in (
        ("version.local", version_cache),
        ("prefix.local", prefix_cache),
        ("run.local", run_memo),
    ):
        if store is not None:
            collect_cache(obs, layer, hits=store.hits, misses=store.misses,
                          evictions=store.evictions, size=len(store))


# --------------------------------------------------------------------------- #
# the human report


class _Agg:
    __slots__ = ("count", "wall", "cycles", "children")

    def __init__(self) -> None:
        self.count = 0
        self.wall = 0.0
        self.cycles = 0.0
        self.children: dict[tuple[str, str], _Agg] = {}


def _aggregate(spans: list[Span], into: dict[tuple[str, str], "_Agg"]) -> None:
    for span in spans:
        agg = into.get((span.name, span.category))
        if agg is None:
            agg = into[(span.name, span.category)] = _Agg()
        agg.count += 1
        agg.wall += span.wall
        agg.cycles += span.cycles
        _aggregate(span.children, agg.children)


def _render_aggs(
    aggs: dict[tuple[str, str], "_Agg"],
    lines: list[str],
    depth: int,
    max_depth: int,
) -> None:
    if depth > max_depth:
        return
    order = sorted(
        aggs.items(), key=lambda kv: (kv[1].cycles, kv[1].wall), reverse=True
    )
    for (name, cat), agg in order:
        label = f"{name}" + (f" [{cat}]" if cat else "")
        lines.append(
            f"{'  ' * depth}{label:<{max(30 - 2 * depth, 8)}} "
            f"x{agg.count:<6} wall {agg.wall:8.3f}s  "
            f"cycles {agg.cycles:.4g}"
        )
        _render_aggs(agg.children, lines, depth + 1, max_depth)


def render_report(obs: Obs, ledger: Any = None, *, max_depth: int = 3) -> str:
    """Human-readable observability section for the CLI."""
    lines: list[str] = []
    tracer = obs.tracer
    if tracer.enabled:
        lines.append(
            f"spans    : {tracer.span_count()} recorded, "
            f"{tracer.attributed_cycles():.4g} cycles attributed"
        )
        if ledger is not None and ledger.total_cycles > 0:
            cov = tracer.coverage(ledger.total_cycles)
            lines.append(
                f"coverage : {cov:.1%} of {ledger.total_cycles:.4g} "
                "ledger-charged cycles inside the span tree"
            )
        if tracer.unattributed:
            parts = ", ".join(
                f"{k}={v:.3g}" for k, v in sorted(tracer.unattributed.items())
            )
            lines.append(f"orphaned : {parts}")
        aggs: dict[tuple[str, str], _Agg] = {}
        _aggregate(tracer.roots, aggs)
        _render_aggs(aggs, lines, 0, max_depth)
    if obs.metrics.enabled:
        doc = obs.metrics.to_dict()
        interesting = [
            e for e in doc["counters"] if e["value"]
        ]
        if interesting:
            lines.append("metrics  :")
            for e in interesting:
                label = e["name"]
                if "labels" in e:
                    inner = ",".join(f"{k}={v}" for k, v in e["labels"].items())
                    label += "{" + inner + "}"
                lines.append(f"  {label:<44} {e['value']:.6g}")
        for e in doc["histograms"]:
            if not e["count"]:
                continue
            label = e["name"]
            if "labels" in e:
                inner = ",".join(f"{k}={v}" for k, v in e["labels"].items())
                label += "{" + inner + "}"
            lines.append(
                f"  {label:<44} n={e['count']} mean={e['mean']:.4g} "
                f"p50={e['p50']:.4g} p99={e['p99']:.4g}"
            )
    return "\n".join(lines)
