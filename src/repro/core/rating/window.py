"""The rating window (paper Section 3): samples, outlier rule, VAR, growth.

A rating method keeps executing and rating "until VAR falls below a
threshold", and RBR and CBR check after every sample (or every few).  A
:class:`SampleWindow` makes such a check independent of the window size:

* it keeps the samples in arrival order (a growing numpy buffer) plus a
  sorted copy updated with :func:`bisect.insort`;
* the outlier rule reads the median, the MAD and the kept range off the
  sorted copy in O(log n) (:func:`~.outliers.keep_bounds`);
* a filtered array is built only when the rule actually drops a sample;
  otherwise the clean samples are a view of the buffer.

The clean samples equal ``filter_outliers(samples, k)`` element for
element, so VAR (:func:`~.base.rating_var`) is bit-identical to a full
recompute.  :class:`WindowGrowth` is the grow-until-converged schedule and
the ``*.window`` spans the two methods share.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from ...obs import Obs
from .base import RatingSettings, rating_var
from .outliers import apply_bounds, keep_bounds

__all__ = ["SampleWindow", "WindowGrowth"]


class SampleWindow:
    """One rating window's samples under the median/MAD outlier rule."""

    def __init__(self, k: float = 8.0) -> None:
        self.k = k
        self._buf = np.empty(64)
        self._n = 0
        self._sorted: list[float] = []
        self._nan = 0

    def __len__(self) -> int:
        return self._n

    def append(self, value: float) -> None:
        value = float(value)
        if self._n == self._buf.size:
            self._buf = np.concatenate([self._buf, np.empty(self._buf.size)])
        self._buf[self._n] = value
        self._n += 1
        if value != value:
            self._nan += 1  # a NaN median keeps the whole window
        else:
            insort(self._sorted, value)

    @property
    def samples(self) -> np.ndarray:
        """All samples, in arrival order."""
        return self._buf[: self._n]

    def clean(self) -> np.ndarray:
        """The samples the outlier rule keeps, in arrival order."""
        if self._nan:
            return self.samples
        return apply_bounds(self.samples, keep_bounds(self._sorted, self.k))


class WindowGrowth:
    """Grow the window until VAR converges, one ``<name>`` span per size.

    The window starts at ``settings.window`` samples.  A check at ``size >=
    target`` either accepts the rating (VAR at or below the threshold) or,
    once ``size`` reaches ``target * window_growth``, grows the target.
    """

    def __init__(self, settings: RatingSettings, obs: Obs, name: str) -> None:
        self.settings = settings
        self.target = settings.window
        self._obs = obs
        self._name = name
        self._span = obs.start(name, "rating", target=self.target)

    def check(self, window: SampleWindow, size: int, consumed: int) -> np.ndarray | None:
        """Check *window* at *size* samples: its clean samples once VAR
        converged (the span is then ended), else None."""
        s = self.settings
        if size < self.target:
            return None
        clean = window.clean()
        var = rating_var(clean)
        if var <= s.var_threshold:
            self.end(clean, var, consumed, True)
            return clean
        if size >= self.target * s.window_growth:
            self.target = int(self.target * s.window_growth)
            self.end(clean, var, consumed, False)
            self._span = self._obs.start(self._name, "rating", target=self.target)
        return None

    def end(self, clean: np.ndarray | None, var: float | None, consumed: int,
            converged: bool) -> None:
        """End the current span (``clean=None``: no sample was taken)."""
        if clean is None:
            self._span.end(size=0, invocations=consumed, converged=converged)
            return
        self._span.end(
            size=int(clean.size),
            eval=float(np.mean(clean)) if clean.size else None,
            var=var,
            invocations=consumed,
            converged=converged,
        )
