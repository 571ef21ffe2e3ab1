"""Context-based rating — CBR (paper Section 2.2).

CBR identifies invocations of the TS that run under the same *context* (the
values of the context variables found by the Fig. 1 analysis) and rates a
version by the average execution time of same-context invocations.  Each
context represents one workload, so same-context timings are directly
comparable across versions.

A position of the input file has one context: CBR computes it once per
position (reading the position's values without copying them), unless
the replay is live.

The rating of a version is the EVAL of its *most important* context (the
one holding the largest share of execution time), matching the experiments
in the paper's Section 5; all per-context ratings are also reported for
adaptive scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...analysis.context import ContextAnalysis, context_key
from ...compiler.version import Version
from ...machine.executor import Inputs
from ...runtime.instrument import TimedExecutor
from .base import Direction, RatingResult, RatingSettings, rating_var
from .feed import InvocationFeed
from .window import SampleWindow, WindowGrowth

__all__ = ["ContextBasedRating"]


@dataclass
class _Bucket:
    window: SampleWindow = field(default_factory=SampleWindow)
    total_time: float = 0.0


class ContextBasedRating:
    """Rates versions by same-context invocation times."""

    name = "CBR"

    def __init__(
        self,
        analysis: ContextAnalysis,
        settings: RatingSettings,
        timed: TimedExecutor,
    ) -> None:
        if not analysis.applicable:
            raise ValueError(f"CBR inapplicable: {analysis.reason}")
        self.analysis = analysis
        self.settings = settings
        self.timed = timed

    def rate(self, version: Version, feed: InvocationFeed) -> RatingResult:
        """Rate *version*, consuming invocations from *feed* until the
        dominant context's window converges (or the budget is exhausted)."""
        s = self.settings
        buckets: dict[tuple, _Bucket] = {}
        consumed = 0

        with self.timed.obs.span("cbr.rate", "rating"):
            growth = WindowGrowth(s, self.timed.obs, "cbr.window")
            while consumed < s.max_invocations:
                inputs = feed.next_env()
                key = self._context(inputs)
                sample = self.timed.invoke(version, inputs)
                consumed += 1
                b = buckets.get(key)
                if b is None:
                    b = buckets[key] = _Bucket(SampleWindow(s.outlier_k))
                b.window.append(sample.measured_cycles)
                b.total_time += sample.measured_cycles

                if consumed % max(4, s.window // 2) == 0 or consumed >= s.max_invocations:
                    dom = self._dominant(buckets)
                    window = buckets[dom].window
                    clean = growth.check(window, window.clean().size, consumed)
                    if clean is not None:
                        return self._result(buckets, dom, clean, consumed, True)

            if not buckets:
                growth.end(None, None, consumed, False)
                return RatingResult(
                    self.name, float("nan"), float("inf"),
                    Direction.LOWER_IS_BETTER,
                    0, consumed, False, notes="no invocations observed",
                )
            dom = self._dominant(buckets)
            clean = buckets[dom].window.clean()
            growth.end(clean, rating_var(clean), consumed, False)
            return self._result(buckets, dom, clean, consumed, False)

    # ------------------------------------------------------------------ #

    def _context(self, inputs: Inputs | dict) -> tuple:
        """The context key of *inputs*, computed once per input position
        (the memo of the position's
        :class:`~repro.machine.executor.InputFacts`, which a live
        replay or a plain env does not share across hand-outs)."""
        analysis = self.analysis
        if not isinstance(inputs, Inputs):
            return context_key(analysis, inputs)
        facts = inputs.facts
        memo = facts.memo
        if memo is None:
            memo = facts.memo = {}
        hit = memo.get(id(analysis))
        # the entry holds the analysis, so its id is not reused while the
        # entry lives
        if hit is None or hit[0] is not analysis:
            hit = memo[id(analysis)] = (analysis, context_key(analysis, inputs.peek()))
        return hit[1]

    @staticmethod
    def _dominant(buckets: dict[tuple, _Bucket]) -> tuple:
        return max(buckets, key=lambda k: buckets[k].total_time)

    @staticmethod
    def _stats(arr: np.ndarray) -> tuple[float, float]:
        """(mean, rating_var) of *arr*, explicitly (nan, inf) when empty.

        Calling ``np.mean``/``rating_var`` on an empty array would emit
        RuntimeWarnings (and produce nan anyway); an empty context bucket is
        a legitimate state, not a numerics accident, so guard it.
        """
        if arr.size == 0:
            return float("nan"), float("inf")
        return float(np.mean(arr)), rating_var(arr)

    def _result(
        self,
        buckets: dict[tuple, _Bucket],
        dom: tuple,
        clean: np.ndarray,
        consumed: int,
        converged: bool,
    ) -> RatingResult:
        per_context = {}
        for key, b in buckets.items():
            arr = b.window.clean()
            mean, var = self._stats(arr)
            per_context[key] = (mean, var, int(arr.size))
        eval_, var_ = self._stats(clean)
        return RatingResult(
            method=self.name,
            eval=eval_,
            var=var_,
            direction=Direction.LOWER_IS_BETTER,
            n_samples=int(clean.size),
            n_invocations=consumed,
            converged=converged,
            samples=clean,
            per_context=per_context,
            notes=f"{len(buckets)} context(s); dominant={dom!r}",
        )
