"""Model-based rating — MBR (paper Section 2.3, Eqs. 1-4 and Fig. 2).

MBR models the TS execution time as ``T_TS = Σ T_i · C_i`` over components
(affine-merged basic blocks, plus the constant component with ``C_n = 1``).
During tuning the system gathers the TS-invocation-time vector ``Y`` and
component-count matrix ``C`` and solves the linear regression ``Y = T·C``
for the component-time vector ``T`` of the rated version.

Rating (paper's two options):
(a) if one component consumes a dominant share (≥90 %) of the time, its
``T_i`` is the EVAL; (b) otherwise ``T_avg = Σ T_i · C_avg_i`` with the
average counts from the profile run.

``VAR`` is "the ratio of the sum of squares of the residual errors of the
regression to the total sum of squares of the TS execution times".
"""

from __future__ import annotations

import numpy as np

from ...analysis.components import ComponentModel
from ...compiler.version import Version
from ...machine.executor import env_of
from ...runtime.counters import COUNTER_ARRAY, fresh_counter_buffer, read_counters
from ...runtime.instrument import TimedExecutor
from .base import Direction, RatingResult, RatingSettings
from .feed import InvocationFeed
from .outliers import filter_outliers

__all__ = ["ModelBasedRating", "solve_component_times", "regression_var"]


def _nnls(A: np.ndarray, b: np.ndarray, max_iter: int | None = None) -> np.ndarray:
    """Non-negative least squares: ``argmin ||A x - b||`` s.t. ``x >= 0``.

    Lawson–Hanson active-set algorithm in plain numpy (no scipy).  *A* is
    (m, n), *b* is (m,); returns x of shape (n,).
    """
    m, n = A.shape
    if max_iter is None:
        max_iter = 3 * n
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    resid = b - A @ x
    w = A.T @ resid
    tol = 10.0 * np.finfo(float).eps * np.linalg.norm(A, 1) * (max(m, n) + 1)
    for _ in range(max_iter):
        if passive.all() or np.max(w[~passive], initial=-np.inf) <= tol:
            break
        # move the most negative-gradient variable into the passive set
        j = int(np.argmax(np.where(passive, -np.inf, w)))
        passive[j] = True
        while True:
            s = np.zeros(n)
            s[passive], *_ = np.linalg.lstsq(A[:, passive], b, rcond=None)
            if np.min(s[passive], initial=np.inf) > 0:
                x = s
                break
            # step back to the boundary, drop variables pinned at zero
            mask = passive & (s <= 0)
            alpha = np.min(x[mask] / (x[mask] - s[mask]))
            x = x + alpha * (s - x)
            passive &= x > tol
        resid = b - A @ x
        w = A.T @ resid
    return x


def solve_component_times(Y: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve ``Y = T · C`` for ``T`` by least squares (paper Eq. 3).

    *Y* is (n_invocations,), *C* is (n_components, n_invocations); returns
    ``T`` of shape (n_components,).

    Component times are physical quantities, so the solution is constrained
    to ``T >= 0``: with collinear component columns the unconstrained
    solution can return large negative times whose combination ``T_avg``
    looks plausible while the individual ``T_i`` (and any dominant-component
    rating) are nonsense.  The unconstrained solution is kept whenever it is
    already non-negative — in the well-conditioned case the two coincide.
    """
    T, *_ = np.linalg.lstsq(C.T, Y, rcond=None)
    if np.all(T >= 0):
        return T
    return _nnls(C.T, Y)


def regression_var(Y: np.ndarray, C: np.ndarray, T: np.ndarray) -> float:
    """Paper-defined MBR VAR: SS_residual / SS_total of the TS times."""
    resid = Y - T @ C
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum(Y**2))
    if ss_tot == 0.0:
        return float("inf")
    return ss_res / ss_tot


class ModelBasedRating:
    """Rates versions through the component-time regression."""

    name = "MBR"

    #: MBR convergence threshold (on SS_res/SS_tot, the paper's VAR)
    DEFAULT_VAR_THRESHOLD = 0.05

    def __init__(
        self,
        model: ComponentModel,
        avg_counts: np.ndarray,
        settings: RatingSettings,
        timed: TimedExecutor,
        *,
        var_threshold: float | None = None,
        dominant: int | None = None,
    ) -> None:
        """*dominant* fixes the rating mode for every version of this TS:
        the index of the dominant component (rate by its ``T_i``), or None
        to rate by ``T_avg``.  The choice is made once per TS from the
        profile run — comparing one version's ``T_i`` against another's
        ``T_avg`` would be meaningless."""
        self.model = model
        self.avg_counts = np.asarray(avg_counts, dtype=float)
        self.settings = settings
        self.timed = timed
        self.var_threshold = (
            var_threshold if var_threshold is not None else self.DEFAULT_VAR_THRESHOLD
        )
        self.dominant = dominant
        self.n_counters = len(model.counter_blocks())

    def rate(self, version: Version, feed: InvocationFeed) -> RatingResult:
        """Rate an (instrumented) *version*.  The version must have been
        compiled from the counter-instrumented TS."""
        if COUNTER_ARRAY not in version.exe.param_names:
            raise ValueError(
                "MBR needs a version compiled from the counter-instrumented TS"
            )
        s = self.settings
        obs = self.timed.obs
        ys: list[float] = []
        cols: list[np.ndarray] = []
        consumed = 0

        with obs.span("mbr.rate", "rating", dominant=self.dominant):
            win = obs.start("mbr.window", "rating")
            while consumed < s.max_invocations:
                env = dict(env_of(feed.next_env()))
                env[COUNTER_ARRAY] = fresh_counter_buffer(self.n_counters)
                # the counters are read back from the env
                sample = self.timed.invoke(version, env, reads_writes=True)
                consumed += 1
                ys.append(sample.measured_cycles)
                cols.append(read_counters(env))

                if consumed >= s.window and consumed % max(4, s.window // 2) == 0:
                    result = self._fit(ys, cols, consumed)
                    if result is not None and result.var <= self.var_threshold:
                        result.converged = True
                        self._end_window(win, result, consumed)
                        return result
                    if result is not None:
                        self._end_window(win, result, consumed)
                        win = obs.start("mbr.window", "rating")
            result = self._fit(ys, cols, consumed)
            if result is None:
                win.end(size=0, invocations=consumed, converged=False)
                return RatingResult(
                    self.name, float("nan"), float("inf"),
                    Direction.LOWER_IS_BETTER,
                    0, consumed, False, notes="regression singular",
                )
            result.converged = result.var <= self.var_threshold
            self._end_window(win, result, consumed)
            return result

    @staticmethod
    def _end_window(win, result: RatingResult, consumed: int) -> None:
        win.end(
            size=result.n_samples,
            eval=result.eval,
            var=result.var,
            invocations=consumed,
            converged=result.converged,
        )

    # ------------------------------------------------------------------ #

    def _fit(
        self, ys: list[float], cols: list[np.ndarray], consumed: int
    ) -> RatingResult | None:
        Y = np.asarray(ys)
        # outlier elimination on the invocation times: drop the rows whose
        # time is an outlier (interrupt hit during that invocation)
        clean_vals = filter_outliers(Y, self.settings.outlier_k)
        if clean_vals.size < max(4, self.n_counters + 2):
            return None
        if clean_vals.size != Y.size:
            thresh = float(np.max(clean_vals))
            keep = Y <= thresh
        else:
            keep = np.ones(Y.size, dtype=bool)
        Yk = Y[keep]
        counts = {
            rep: np.asarray([c[i] for c, k in zip(cols, keep) if k])
            for i, rep in enumerate(self.model.counter_blocks())
        }
        C = self.model.design_matrix(counts)
        if C.shape[1] != Yk.size or Yk.size <= C.shape[0]:
            return None
        T = solve_component_times(Yk, C)
        var = regression_var(Yk, C, T)

        # dominant-component rule (paper's options (a) vs (b)), with the
        # mode fixed per TS so every version is rated by the same quantity
        if self.dominant is not None:
            eval_ = float(T[self.dominant])
            notes = f"rating by dominant component {self.dominant}"
        else:
            eval_ = float(T @ self.avg_counts)  # T_avg (Eq. 4)
            notes = "rating by T_avg"
        return RatingResult(
            method=self.name,
            eval=eval_,
            var=var,
            direction=Direction.LOWER_IS_BETTER,
            n_samples=int(Yk.size),
            n_invocations=consumed,
            converged=False,
            samples=Yk,
            notes=notes + f"; T={np.array2string(T, precision=3)}",
        )
