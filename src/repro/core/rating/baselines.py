"""Baseline rating methods: WHL and AVG (paper Section 5.2).

* **WHL** averages the TS's execution time over entire application runs —
  "the best that can be achieved by static tuning", and the state of the
  art this paper's methods beat on tuning time: every trial costs a full
  program run.  A program run is a pure function of the executable, its
  cost factors, the feed position and the machine state at entry, so a
  rating context memoizes runs (its *run memo*): a repeat charges, draws
  noise and leaves the machine exactly as simulating it again would.
* **AVG** naively averages invocation times regardless of context — fast,
  but not generally consistent: a version whose rating window happened to
  catch light-workload invocations looks better than one rated under heavy
  ones, so comparisons across versions are biased whenever the context mix
  varies ("AVG does not generally produce consistent ratings as the other
  approaches do, because it ignores the context of each invocation").
"""

from __future__ import annotations

from array import array
from dataclasses import replace

import numpy as np

from ...compiler.version import Version
from ...machine.jit import executable_digest
from ...runtime.instrument import TIMER_COST_CYCLES, TimedExecutor
from ...store import Store
from .base import Direction, RatingResult, RatingSettings, rating_var
from .feed import InvocationFeed
from .outliers import filter_outliers

__all__ = ["RUN_MEMO_MAX", "WholeProgramRating", "AverageRating"]

#: program runs a rating context's run memo holds (a 38-flag WHL tune of
#: art on the Pentium 4 stores 76)
RUN_MEMO_MAX = 256


class WholeProgramRating:
    """Rates a version by whole-program execution time.

    *run_memo* maps ``(executable digest, cost factors, feed position in
    the run, entry MachineState)`` to the run's true cycles per invocation
    and its exit state (whose counters are the run's increments).  It is
    bypassed when the feed's replay is live, since then a run's inputs
    depend on the runs before it.
    """

    name = "WHL"

    def __init__(
        self,
        settings: RatingSettings,
        timed: TimedExecutor,
        *,
        runs_per_rating: int = 1,
        run_memo: Store | None = None,
    ) -> None:
        self.settings = settings
        self.timed = timed
        self.runs_per_rating = runs_per_rating
        self.run_memo = run_memo

    def rate(self, version: Version, feed: InvocationFeed) -> RatingResult:
        """Execute ``runs_per_rating`` full program runs of *version*.

        The measured per-run time is the sum of the (individually
        jitter-perturbed) invocation times plus the non-TS time — so, as on
        real hardware, whole-program measurements average out per-invocation
        noise and a single run per trial rates reliably.  What WHL cannot
        escape is its cost: the *whole* application executes per trial.
        """
        # the executable part of the run memo's key (None: no memo)
        exe_key = None
        if self.run_memo is not None and not feed.replay.live:
            exe_key = (
                executable_digest(version.exe, self.timed.machine), version.factors
            )
        totals = [
            self._program_run(version, feed, exe_key)
            + feed.non_ts_cycles + TIMER_COST_CYCLES
            for _ in range(self.runs_per_rating)
        ]
        arr = np.asarray(totals)
        return RatingResult(
            method=self.name,
            eval=float(np.mean(arr)),
            var=rating_var(arr) if arr.size > 1 else 0.0,
            direction=Direction.LOWER_IS_BETTER,
            n_samples=arr.size,
            n_invocations=self.runs_per_rating * feed.n_per_run,
            converged=True,
            samples=arr,
            notes=f"{self.runs_per_rating} full program run(s)",
        )

    def _program_run(
        self, version: Version, feed: InvocationFeed, exe_key: tuple | None
    ) -> float:
        """The measured TS time of one program run: simulated, or replayed
        from the run memo with the same charges and noise draws in the same
        order."""
        timed = self.timed
        ledger, noise, rng, executor = timed.ledger, timed.noise, timed.rng, timed.executor
        n = feed.n_per_run
        if exe_key is not None:
            entry = executor.machine_state()
            key = (*exe_key, feed.invocations_consumed % n, entry)
            hit = self.run_memo.get(key)
            if hit is not None:
                cycles, exit_state = hit
                executor.restore_machine_state(replace(
                    exit_state,
                    hits=entry.hits + exit_state.hits,
                    misses=entry.misses + exit_state.misses,
                ))
                total = 0.0
                # the invocations before the next run starts, then the rest
                split = -feed.invocations_consumed % n
                for part in (cycles[:split], cycles[split:]):
                    feed.skip(len(part))
                    for c in part:
                        ledger.charge_invocation(c)
                        total += noise.sample(c, rng)
                return total
        cycles = array("d")
        total = 0.0
        for _ in range(n):
            c = timed.run_untimed(version, feed.next_env()).cycles
            ledger.charge_invocation(c)
            total += noise.sample(c, rng)
            cycles.append(c)
        if exe_key is not None:
            exit_state = executor.machine_state()
            self.run_memo.put(key, (cycles, replace(
                exit_state,
                hits=exit_state.hits - entry.hits,
                misses=exit_state.misses - entry.misses,
            )))
        return total


class AverageRating:
    """Rates a version by the context-oblivious mean invocation time.

    One fixed window of invocations, no context grouping, no adaptation —
    the "naive attempt to avoid WHL's disadvantage" from Section 5.2.
    """

    name = "AVG"

    def __init__(self, settings: RatingSettings, timed: TimedExecutor) -> None:
        self.settings = settings
        self.timed = timed

    def rate(self, version: Version, feed: InvocationFeed) -> RatingResult:
        s = self.settings
        samples = [
            self.timed.invoke(version, feed.next_env()).measured_cycles
            for _ in range(s.window)
        ]
        clean = filter_outliers(np.asarray(samples), s.outlier_k)
        return RatingResult(
            method=self.name,
            eval=float(np.mean(clean)),
            var=rating_var(clean),
            direction=Direction.LOWER_IS_BETTER,
            n_samples=int(clean.size),
            n_invocations=s.window,
            converged=True,  # AVG never adapts; it reports what it saw
            samples=clean,
            notes="context-oblivious average",
        )
