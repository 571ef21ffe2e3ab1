"""Rating framework: EVAL/VAR, windows, convergence (paper Section 3).

For each optimized version of a TS, a rating method produces the rating
``EVAL`` and the rating variance ``VAR`` across a *window* of TS
invocations.  The tuning system compares EVALs of different versions;
because VAR decreases with window size, the system keeps executing and
rating until VAR falls below a threshold, producing consistent ratings.

Conventions used throughout this package:

* CBR/MBR/AVG/WHL ratings are **times** (lower is better); RBR ratings are
  **relative speeds** ``R = T_base / T_exp`` (higher is better).  The
  uniform quantity the search consumes is ``speed_vs(base)``.
* ``VAR`` is reported scale-free (normalised by the squared mean) so one
  convergence threshold works across methods; this matches RBR's ratio
  samples, whose paper-defined variance is already relative.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

__all__ = [
    "Direction",
    "RatingResult",
    "RatingSettings",
    "InvocationSource",
    "relative_var",
]


class Direction(enum.Enum):
    """What a larger EVAL means for the rated version."""

    LOWER_IS_BETTER = "time"      # EVAL is a time
    HIGHER_IS_BETTER = "speedup"  # EVAL is a relative speed


_sum = np.add.reduce


def relative_var(samples: np.ndarray) -> float:
    """Scale-free variance: ``Var(x) / mean(x)^2`` (squared CV).

    Computed with ``np.add.reduce``, the reduction ``np.mean`` and
    ``np.var(ddof=1)`` call, in their order of operations, so the result is
    bit-identical to ``np.var(x, ddof=1) / np.mean(x)**2`` without their
    per-call overhead.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        return float("inf")
    mean = float(_sum(x, axis=None)) / n
    if mean == 0.0:
        return float("inf")
    d = x - mean
    return float(_sum(d * d, axis=None)) / (n - 1) / (mean * mean)


def rating_var(samples: np.ndarray) -> float:
    """The VAR of a window-averaged rating: the (scale-free) variance of the
    *mean* of the window samples, ``Var(x) / (mean(x)^2 · n)``.

    This is the quantity that "decreases with increasing size of the
    window" (Section 3) and that the convergence threshold applies to.
    """
    rv = relative_var(samples)
    if not math.isfinite(rv):
        return rv
    return rv / np.size(samples)


@dataclass
class RatingResult:
    """The rating of one version by one method."""

    method: str
    eval: float
    var: float
    direction: Direction
    n_samples: int
    n_invocations: int
    converged: bool
    #: raw window samples after outlier elimination (times or ratios)
    samples: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: per-context EVALs for CBR (context key -> (eval, var, n))
    per_context: dict = field(default_factory=dict)
    notes: str = ""

    def speed_vs(self, base: "RatingResult | None") -> float:
        """Uniform comparison quantity: how fast is this version relative to
        the base (>1 means faster than base)."""
        if self.direction is Direction.HIGHER_IS_BETTER:
            return self.eval  # RBR measures relative speed directly
        if base is None:
            raise ValueError("time-valued ratings need a base rating")
        if base.direction is not Direction.LOWER_IS_BETTER:
            raise ValueError("base rating must be time-valued")
        if self.eval <= 0:
            return float("inf")
        return base.eval / self.eval


@dataclass(frozen=True)
class RatingSettings:
    """Knobs of the rating process (Section 3 defaults)."""

    #: initial window size (invocations averaged before a decision)
    window: int = 20
    #: VAR threshold below which the rating is accepted
    var_threshold: float = 1e-4
    #: growth factor when VAR has not converged yet
    window_growth: float = 2.0
    #: give up (and let the consultant switch methods) after this many
    #: invocations of the rated version
    max_invocations: int = 640
    #: outlier elimination: drop samples > outlier_k MADs from the median
    outlier_k: float = 8.0
    #: MBR: a component is "dominant" if it holds at least this share of time
    dominant_share: float = 0.90


class InvocationSource(Protocol):
    """Supplies fresh invocation environments (the running application).

    Implementations charge program-run boundaries to the tuning ledger; see
    :class:`repro.core.rating.feed.InvocationFeed`.
    """

    def next_env(self) -> dict: ...
