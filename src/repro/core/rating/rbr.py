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
from ...machine.executor import Inputs, env_of
from ...runtime.instrument import TimedExecutor
from ...runtime.save_restore import SaveRestorePlan, copy_array
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
                inputs = feed.next_env()
                consumed += 1
                ratio = self._one_invocation(experimental, base, inputs)
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
        self, experimental: Version, base: Version, inputs: Inputs | dict
    ) -> float | None:
        """One A/B re-execution; returns the ratio or None if degenerate.

        When both versions may be replayed (:meth:`TimedExecutor.replays`:
        a replay store and data-oblivious versions), *inputs* is a position
        of a replay that is not live (:meth:`Inputs.fresh`) and the plan has
        no inspector arrays, the improved method copies nothing: a fresh
        hand-out of the position equals the restored env, so each of the
        three runs gets its own handle, whose env is built only if that run
        is simulated, and save and restore charge the cycles of the copies
        they stand for (:meth:`SaveRestorePlan.copy_cycles`), in the same
        order.  Otherwise save, restore and the inspector work on the env
        of *inputs*, and the three runs get *inputs* itself.  (Three fresh
        envs cost more than one env and its restores when the runs are
        simulated.)

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
            again = (
                inputs.fresh()
                if type(inputs) is Inputs
                and not self.plan.inspector_arrays
                and self.timed.replays(base)
                and self.timed.replays(experimental)
                else None
            )
            if again is not None:
                copy_cycles = self.plan.copy_cycles(inputs.facts)
                ledger.charge("save_restore", copy_cycles)
                pre = self.timed.run_untimed(base, inputs)
                ledger.charge("precondition", pre.cycles)
                ledger.charge("save_restore", 0.0)  # no inspector writes
                ledger.charge("save_restore", copy_cycles)
                t_first = self.timed.invoke(first, again).measured_cycles
                ledger.charge("save_restore", copy_cycles)
                t_second = self.timed.invoke(second, inputs.fresh()).measured_cycles
            else:
                env = env_of(inputs)
                snap = self.plan.save(env, ledger)
                before = {
                    name: copy_array(env[name])
                    for name in self.plan.inspector_arrays
                }
                # the inspector diffs what the precondition run wrote
                pre = self.timed.run_untimed(
                    base, inputs, reads_writes=bool(self.plan.inspector_arrays)
                )
                ledger.charge("precondition", pre.cycles)
                self.plan.observe_writes(before, env, snap, ledger)
                self.plan.restore(env, snap, ledger)
                t_first = self.timed.invoke(first, inputs).measured_cycles
                self.plan.restore(env, snap, ledger)
                t_second = self.timed.invoke(second, inputs).measured_cycles
            if self._swap:
                t_exp, t_base = t_first, t_second
            else:
                t_base, t_exp = t_first, t_second
        else:
            # Fig. 3: save, time base, restore, time experimental
            env = env_of(inputs)
            snap = self.plan.save(env, ledger)
            t_base = self.timed.invoke(base, inputs).measured_cycles
            self.plan.restore(env, snap, ledger)
            t_exp = self.timed.invoke(experimental, inputs).measured_cycles
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
