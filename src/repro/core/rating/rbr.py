"""Re-execution-based rating — RBR (paper Section 2.4, Figs. 3 and 4).

RBR forces a roll-back and re-execution of the TS under the same context:
the input is saved, two versions are timed back-to-back, and the input is
restored in between.  Each invocation yields one *relative improvement*
sample ``R_{exp/base} = T_base / T_exp`` (Eq. 5, >1 means the experimental
version is faster); EVAL and VAR are the mean and (relative) variance of
the R samples across a window.

``improved=True`` (Fig. 4, the default) adds the two bias corrections of
Section 2.4.2: a *precondition* execution brings the data into the cache so
the first timed run is not cold, and the two versions swap execution order
every invocation so ordering effects cancel; only ``Modified_Input(TS)`` is
saved/restored, with inspector-recorded writes for irregular arrays.

``improved=False`` is the basic method of Fig. 3 (save the whole
``Input(TS)``, no precondition, fixed order) — kept for the ablation that
shows why the improved method exists.
"""

from __future__ import annotations

import numpy as np

from ...compiler.version import Version
from ...runtime.instrument import TimedExecutor
from ...runtime.save_restore import SaveRestorePlan
from .base import Direction, RatingResult, RatingSettings, rating_var
from .feed import InvocationFeed
from .window import SampleWindow, WindowGrowth

__all__ = ["ReExecutionRating"]


class ReExecutionRating:
    """Rates an experimental version against a base version in-place."""

    name = "RBR"

    def __init__(
        self,
        plan: SaveRestorePlan,
        settings: RatingSettings,
        timed: TimedExecutor,
        *,
        improved: bool = True,
    ) -> None:
        self.plan = plan
        self.settings = settings
        self.timed = timed
        self.improved = improved
        self._swap = False
        self._degenerate = 0

    # ------------------------------------------------------------------ #

    def rate_pair(
        self,
        experimental: Version,
        base: Version,
        feed: InvocationFeed,
    ) -> RatingResult:
        """Produce the rating of *experimental* relative to *base*."""
        s = self.settings
        window = SampleWindow(s.outlier_k)
        consumed = 0
        self._degenerate = 0

        with self.timed.obs.span("rbr.rate", "rating", improved=self.improved):
            growth = WindowGrowth(s, self.timed.obs, "rbr.window")
            while consumed < s.max_invocations:
                env = feed.next_env()
                consumed += 1
                ratio = self._one_invocation(experimental, base, env)
                if ratio is None:
                    # degenerate measurement (non-positive time): one such
                    # sample used to poison the whole window with inf/NaN
                    continue
                window.append(ratio)
                clean = growth.check(window, len(window), consumed)
                if clean is not None:
                    return self._result(clean, consumed, True)

            clean = window.clean()
            growth.end(clean, rating_var(clean), consumed, False)
            return self._result(clean, consumed, False)

    # ------------------------------------------------------------------ #

    def _one_invocation(
        self, experimental: Version, base: Version, env: dict
    ) -> float | None:
        """One A/B re-execution; returns the ratio or None if degenerate.

        A non-positive measured time (noise can drive a tiny measurement
        to or below zero) yields no meaningful ratio — returning ``inf``
        here used to contaminate the window mean.  The caller drops the
        sample and accounts it as ``degenerate_samples``.
        """
        ledger = self.timed.ledger
        if self.improved:
            # Fig. 4: 1. swap  2. save  3. precondition  4. restore
            #         5. time A  6. restore  7. time B
            self._swap = not self._swap
            first, second = (
                (experimental, base) if self._swap else (base, experimental)
            )
            snap = self.plan.save(env, ledger)
            before = {
                name: np.array(env[name], copy=True)
                for name in self.plan.inspector_arrays
            }
            pre = self.timed.run_untimed(base, env)
            ledger.charge("precondition", pre.cycles)
            self.plan.observe_writes(before, env, snap, ledger)
            self.plan.restore(env, snap, ledger)
            t_first = self.timed.invoke(first, env).measured_cycles
            self.plan.restore(env, snap, ledger)
            t_second = self.timed.invoke(second, env).measured_cycles
            if self._swap:
                t_exp, t_base = t_first, t_second
            else:
                t_base, t_exp = t_first, t_second
        else:
            # Fig. 3: save, time base, restore, time experimental
            snap = self.plan.save(env, ledger)
            t_base = self.timed.invoke(base, env).measured_cycles
            self.plan.restore(env, snap, ledger)
            t_exp = self.timed.invoke(experimental, env).measured_cycles
        if t_exp <= 0 or t_base <= 0:
            self._degenerate += 1
            self.timed.obs.counter(
                "rating.degenerate_samples", method=self.name
            ).inc()
            return None
        return t_base / t_exp

    def _result(
        self, clean: np.ndarray, consumed: int, converged: bool
    ) -> RatingResult:
        notes = "improved" if self.improved else "basic"
        if self._degenerate:
            notes += f"; degenerate_samples={self._degenerate}"
        return RatingResult(
            method=self.name,
            eval=float(np.mean(clean)) if clean.size else float("nan"),
            var=rating_var(clean),
            direction=Direction.HIGHER_IS_BETTER,
            n_samples=int(clean.size),
            n_invocations=consumed,
            converged=converged,
            samples=clean,
            notes=notes,
        )
