"""Measurement perturbation: jitter and interrupt-style outliers.

The paper's Section 3 motivates outlier elimination with "system
perturbations, such as interrupts".  The noise model here produces exactly
the two phenomena the rating machinery must cope with:

* multiplicative jitter — every timing is scaled by ``1 + ε`` with
  ``ε ~ N(0, σ)`` truncated at ±3σ (OS scheduling, DVFS, TLB effects);
* rare outliers — with small probability a measurement is inflated by a
  large factor (an interrupt landed inside the timed region);
* timer granularity — a uniform error of up to ``granularity`` cycles per
  timer read, which makes *short* timed regions relatively noisier (the
  paper's "small tuning sections exhibit more measurement variation").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MachineConfig

__all__ = ["NoiseModel"]


@dataclass
class NoiseModel:
    """Samples measured cycles from true cycles."""

    sigma: float
    outlier_prob: float
    outlier_scale: tuple[float, float]
    granularity: float = 0.0

    @classmethod
    def for_machine(cls, machine: MachineConfig) -> "NoiseModel":
        return cls(
            machine.noise_sigma,
            machine.outlier_prob,
            machine.outlier_scale,
            machine.timer_granularity_cycles,
        )

    @classmethod
    def disabled(cls) -> "NoiseModel":
        """A noise model that measures perfectly (for deterministic tests)."""
        return cls(0.0, 0.0, (1.0, 1.0), 0.0)

    def sample(self, true_cycles: float, rng: np.random.Generator) -> float:
        """One measured timing for a region whose true cost is *true_cycles*.

        The draws are numpy's own formulas for ``rng.normal(0, σ)`` and
        ``rng.uniform(lo, hi)`` (``σ · z`` and ``lo + (hi - lo) · u``),
        written out to spare the per-call overhead of those methods: the
        same bits and the same RNG stream.
        """
        measured = true_cycles
        sigma = self.sigma
        if sigma > 0.0:
            eps = sigma * rng.standard_normal()
            bound = 3.0 * sigma
            if eps > bound:
                eps = bound
            elif eps < -bound:
                eps = -bound
            measured *= 1.0 + eps
        if self.outlier_prob > 0.0 and rng.random() < self.outlier_prob:
            lo, hi = self.outlier_scale
            measured *= lo + (hi - lo) * rng.random()
        if self.granularity > 0.0:
            measured += self.granularity * rng.random()
        return measured
