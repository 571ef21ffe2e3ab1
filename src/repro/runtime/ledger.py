"""The tuning-time ledger.

Fig. 7(c)/(d) of the paper report *normalized tuning time*: how long the
whole tuning process takes under each rating method, relative to the WHL
(whole-program execution) approach.  Every simulated cycle spent during
tuning is charged here, itemised by purpose, so those numbers are measured
rather than estimated:

* ``ts``            — executing tuning-section invocations being rated
* ``precondition``  — RBR cache-warming runs
* ``save_restore``  — RBR input snapshot/restore traffic
* ``instrumentation`` — MBR counters and timer overhead
* ``non_ts``        — the rest of the application around the TS, charged
  once per program run (workloads declare their non-TS cost)

Beyond simulated cycles, the ledger also carries the tuning engines'
bookkeeping: compiled-version and pass-prefix cache traffic, and (on the
batch engine) wall-clock seconds itemised per worker — so a tuning run
reports both how much simulated work it charged (machine-independent) and
how long it really took on how many cores (machine-dependent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TuningLedger"]


@dataclass
class TuningLedger:
    """Accumulates the cost of a tuning process.

    A tracer attached with :meth:`attach_tracer` receives every ``charge``
    (as ``tracer.add_cycles(category, cycles)``), which is how the
    observability layer attributes 100% of ledger-charged cycles to the
    span tree without a second accounting path.  The tracer is process-local
    bookkeeping and is dropped on pickling (task outcomes carry their spans
    separately).
    """

    #: attached span tracer (class default None; never pickled)
    _tracer = None

    by_category: dict[str, float] = field(default_factory=dict)
    invocations: int = 0
    program_runs: int = 0
    #: compiled-version cache traffic
    cache_hits: int = 0
    cache_misses: int = 0
    #: pass-prefix cache traffic: compiles routed through the cache, compiles
    #: whose whole step chain was memoized, and pipeline steps saved vs run
    prefix_compiles: int = 0
    prefix_full_hits: int = 0
    prefix_steps_saved: int = 0
    prefix_steps_run: int = 0
    #: wall-clock seconds of rating work, per worker label (batch engine)
    wall_by_worker: dict[str, float] = field(default_factory=dict)

    def attach_tracer(self, tracer) -> None:
        """Mirror every subsequent charge into *tracer*'s current span."""
        self._tracer = tracer

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_tracer", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)

    def charge(self, category: str, cycles: float) -> None:
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        self.by_category[category] = self.by_category.get(category, 0.0) + cycles
        if self._tracer is not None:
            self._tracer.add_cycles(category, cycles)

    def charge_invocation(self, cycles: float) -> None:
        self.charge("ts", cycles)
        self.invocations += 1

    def start_program_run(self, non_ts_cycles: float) -> None:
        """A new run of the (instrumented) application begins."""
        self.program_runs += 1
        self.charge("non_ts", non_ts_cycles)

    def record_cache(self, hits: int, misses: int) -> None:
        """Account compiled-version cache traffic."""
        if hits < 0 or misses < 0:
            raise ValueError("cache counters cannot be negative")
        self.cache_hits += hits
        self.cache_misses += misses

    def record_prefix(
        self, compiles: int, full_hits: int, steps_saved: int, steps_run: int
    ) -> None:
        """Account pass-prefix cache traffic (incremental compilation)."""
        if min(compiles, full_hits, steps_saved, steps_run) < 0:
            raise ValueError("prefix counters cannot be negative")
        self.prefix_compiles += compiles
        self.prefix_full_hits += full_hits
        self.prefix_steps_saved += steps_saved
        self.prefix_steps_run += steps_run

    def record_wall(self, worker: str, seconds: float) -> None:
        """Account wall-clock rating time spent on *worker*."""
        if seconds < 0:
            raise ValueError("cannot record negative wall-clock time")
        self.wall_by_worker[worker] = self.wall_by_worker.get(worker, 0.0) + seconds

    @property
    def total_cycles(self) -> float:
        return sum(self.by_category.values())

    @property
    def wall_seconds(self) -> float:
        """Total wall-clock rating seconds across all workers."""
        return sum(self.wall_by_worker.values())

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def prefix_save_rate(self) -> float:
        """Fraction of pipeline steps served from the pass-prefix cache."""
        total = self.prefix_steps_saved + self.prefix_steps_run
        return self.prefix_steps_saved / total if total else 0.0

    def absorb(self, other: "TuningLedger") -> None:
        """Merge *other* into this ledger in place (parallel task results)."""
        for k, v in other.by_category.items():
            self.by_category[k] = self.by_category.get(k, 0.0) + v
        self.invocations += other.invocations
        self.program_runs += other.program_runs
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.prefix_compiles += other.prefix_compiles
        self.prefix_full_hits += other.prefix_full_hits
        self.prefix_steps_saved += other.prefix_steps_saved
        self.prefix_steps_run += other.prefix_steps_run
        for w, s in other.wall_by_worker.items():
            self.wall_by_worker[w] = self.wall_by_worker.get(w, 0.0) + s

    def summary(self) -> str:
        parts = ", ".join(
            f"{k}={v:.3g}" for k, v in sorted(self.by_category.items())
        )
        text = (
            f"TuningLedger(total={self.total_cycles:.4g} cycles, "
            f"{self.program_runs} runs, {self.invocations} invocations; {parts})"
        )
        if self.cache_hits or self.cache_misses:
            text += (
                f" [cache {self.cache_hits}h/{self.cache_misses}m "
                f"{self.cache_hit_rate:.0%}]"
            )
        if self.prefix_compiles:
            text += (
                f" [prefix {self.prefix_full_hits}/{self.prefix_compiles} full, "
                f"{self.prefix_steps_saved} steps saved "
                f"({self.prefix_save_rate:.0%})]"
            )
        if self.wall_by_worker:
            text += (
                f" [wall {self.wall_seconds:.2f}s over "
                f"{len(self.wall_by_worker)} worker(s)]"
            )
        return text
