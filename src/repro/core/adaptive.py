"""Online adaptive tuning — the paper's Section 6 outlook, implemented.

"While we have demonstrated an offline tuning process in this paper, the
presented rating methods are also applicable to an online, adaptive
optimization scenario" (the ADAPT heritage of Fig. 6, and Dynamic Feedback
[4]'s sampling/production phases).

The :class:`AdaptiveTuner` runs the application *in production* and
periodically enters a **sampling phase**: the experimental version is
swapped in for alternating invocations and rated against the current best
under comparable contexts — CBR grouping when the Fig. 1 analysis allows
it, plain paired averaging otherwise.  A winning experimental version is
promoted (the Fig. 6 best/experimental version table), and the next
candidate configuration is drawn from a round-robin single-flag-off
exploration of the ``-O3`` space (an online shadow of Iterative
Elimination).

Unlike offline PEAK, nothing is re-executed and no inputs are saved: the
price of online tuning is that sampling-phase invocations run whichever
version is being evaluated — exactly the trade-off the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.context import ContextAnalysis, analyze_context, context_key
from ..compiler.flags import ALL_FLAGS
from ..compiler.options import OptConfig
from ..compiler.pipeline import compile_version
from ..compiler.version import Version
from ..machine.config import MachineConfig
from ..runtime.dispatch import VersionTable
from ..runtime.instrument import TimedExecutor
from ..runtime.ledger import TuningLedger
from ..store import Store
from ..workloads.base import Workload
from .rating.feed import InvocationFeed
from .rating.outliers import filter_outliers

__all__ = ["AdaptiveEvent", "AdaptiveResult", "AdaptiveTuner"]


@dataclass(frozen=True)
class AdaptiveEvent:
    """One decision the adaptive tuner took."""

    invocation: int
    kind: str      # "promote" | "keep" | "candidate"
    detail: str


@dataclass
class AdaptiveResult:
    """Outcome of an adaptive run."""

    final_config: OptConfig
    total_cycles: float
    production_cycles: float
    sampling_cycles: float
    events: list[AdaptiveEvent] = field(default_factory=list)
    promotions: int = 0
    invocations: int = 0


class AdaptiveTuner:
    """Online adaptive tuning over one workload's tuning section."""

    def __init__(
        self,
        machine: MachineConfig,
        workload: Workload,
        *,
        seed: int = 0,
        production_phase: int = 60,
        sampling_window: int = 16,
        margin: float = 0.03,
        flags: tuple[str, ...] | None = None,
    ) -> None:
        """*production_phase* invocations run the best version between
        sampling phases; each sampling phase alternates best/experimental
        for ``2 * sampling_window`` invocations; an experimental version is
        promoted when faster by more than *margin*."""
        self.machine = machine
        self.workload = workload
        self.seed = seed
        self.production_phase = production_phase
        self.sampling_window = sampling_window
        self.margin = margin
        self.flags = flags if flags is not None else tuple(f.name for f in ALL_FLAGS)
        self._analysis: ContextAnalysis = analyze_context(
            workload.ts, pointer_seeds=workload.pointer_seeds
        )
        self._versions: Store[Version] = Store()

    # ------------------------------------------------------------------ #

    def _version(self, config: OptConfig) -> Version:
        return compile_version(
            self.workload.ts, config, self.machine, cache=self._versions
        )

    def _candidates(self, base: OptConfig):
        """Round-robin single-flag-off exploration from the current best."""
        while True:
            produced = False
            for f in self.flags:
                if f in base:
                    produced = True
                    yield base.without(f), f
            if not produced:
                return

    def run(self, n_invocations: int, dataset: str = "train") -> AdaptiveResult:
        """Run the application adaptively for *n_invocations*."""
        ledger = TuningLedger()
        ds = self.workload.dataset(dataset)
        feed = InvocationFeed(
            ds.generator, ds.n_invocations, ds.non_ts_cycles, ledger,
            seed=self.seed,
        )
        timed = TimedExecutor(self.machine, seed=self.seed, ledger=ledger)

        table = VersionTable(self.workload.ts_name, best=self._version(OptConfig.o3()))
        result = AdaptiveResult(
            final_config=OptConfig.o3(), total_cycles=0.0,
            production_cycles=0.0, sampling_cycles=0.0,
        )
        gen = self._candidates(table.best.config)
        i = 0
        while i < n_invocations:
            # ---- production phase -------------------------------------- #
            for _ in range(min(self.production_phase, n_invocations - i)):
                res = timed.run_untimed(table.best, feed.next_env())
                ledger.charge_invocation(res.cycles)
                result.production_cycles += res.cycles
                i += 1
            if i >= n_invocations:
                break

            # ---- sampling phase ---------------------------------------- #
            try:
                cand_config, toggled = next(gen)
            except StopIteration:
                continue
            table.install_experimental(self._version(cand_config))
            result.events.append(
                AdaptiveEvent(i, "candidate", f"-fno-{toggled}")
            )
            best_t: dict | list = {} if self._analysis.applicable else []
            exp_t: dict | list = {} if self._analysis.applicable else []
            for k in range(2 * self.sampling_window):
                if i >= n_invocations:
                    break
                inputs = feed.next_env()
                version = table.best if k % 2 == 0 else table.experimental
                sample = timed.invoke(version, inputs)
                result.sampling_cycles += sample.true_cycles
                sink = best_t if k % 2 == 0 else exp_t
                if self._analysis.applicable:
                    key = context_key(self._analysis, inputs.env)
                    sink.setdefault(key, []).append(  # type: ignore[union-attr]
                        sample.measured_cycles
                    )
                else:
                    sink.append(sample.measured_cycles)  # type: ignore[union-attr]
                i += 1

            speed = self._compare(best_t, exp_t)
            if speed is not None and speed > 1.0 + self.margin:
                table.promote()
                gen = self._candidates(table.best.config)
                result.promotions += 1
                result.events.append(
                    AdaptiveEvent(i, "promote",
                                  f"{table.best.config.describe()} ({speed:.3f}x)")
                )
            else:
                table.discard_experimental()
                result.events.append(
                    AdaptiveEvent(i, "keep", f"candidate rejected ({speed})")
                )

        result.final_config = table.best.config
        result.total_cycles = ledger.total_cycles
        result.invocations = i
        return result

    # ------------------------------------------------------------------ #

    def _compare(self, best_t, exp_t) -> float | None:
        """Speed of experimental vs best over the sampling phase (>1 =
        experimental faster), context-matched when CBR applies."""
        if self._analysis.applicable:
            ratios = []
            weights = []
            for key in set(best_t) & set(exp_t):
                b = filter_outliers(np.asarray(best_t[key]))
                e = filter_outliers(np.asarray(exp_t[key]))
                if b.size and e.size:
                    ratios.append(float(np.mean(b)) / float(np.mean(e)))
                    weights.append(float(np.sum(b)))
            if not ratios:
                return None
            return float(np.average(ratios, weights=weights))
        b = filter_outliers(np.asarray(best_t))
        e = filter_outliers(np.asarray(exp_t))
        if not b.size or not e.size:
            return None
        return float(np.mean(b)) / float(np.mean(e))
