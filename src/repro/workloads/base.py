"""Workload abstractions: SPEC-analog benchmarks for the tuning system.

A :class:`Workload` packages one benchmark: its IR program (the tuning
section, which calls no other function), metadata mirroring the paper's
Table 1 row (benchmark/TS names, expected rating approach, paper
invocation count), and
two :class:`Dataset`\\ s — ``train`` (used during tuning, per the paper's
profile-based-optimization methodology) and ``ref`` (used to measure the
tuned program's performance).

A dataset describes one *program run*: how many times the TS is invoked,
the input environment of each invocation (deterministic given the run's
RNG), and how many cycles the application spends outside the TS per run
(``non_ts_cycles`` — this is how WHL's full-application-run cost is
accounted without modelling the rest of SPEC in IR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..ir.function import Function, Program
from ..machine.executor import unbox

__all__ = ["Dataset", "PaperRow", "Workload"]

#: builds the environment of invocation *i* of a program run
InputGenerator = Callable[[np.random.Generator, int], dict]


@dataclass
class Dataset:
    """One input set (``train`` or ``ref``) for a workload."""

    name: str
    n_invocations: int
    non_ts_cycles: float
    generator: InputGenerator

    def env(self, rng: np.random.Generator, i: int) -> dict:
        """Invocation *i*'s inputs, float arrays bound as the machine binds
        them (:func:`~repro.machine.executor.unbox`).  A float array the
        generator returns at several invocations is unboxed afresh each
        time, so writes to it do not carry over (no workload shares one)."""
        return unbox(self.generator(rng, i))


@dataclass(frozen=True)
class PaperRow:
    """The paper's Table 1 row this workload mirrors."""

    benchmark: str
    tuning_section: str
    rating_approach: str
    invocations: str  # as printed in the paper, e.g. "24.2M"
    is_integer: bool = False
    n_contexts: int = 1


@dataclass
class Workload:
    """A complete benchmark for the tuning system."""

    name: str
    program: Program
    ts_name: str
    datasets: dict[str, Dataset]
    paper: PaperRow
    pointer_seeds: dict[str, frozenset[str]] | None = None

    @property
    def ts(self) -> Function:
        return self.program.functions[self.ts_name]

    def dataset(self, name: str) -> Dataset:
        try:
            return self.datasets[name]
        except KeyError:
            raise KeyError(
                f"{self.name}: unknown dataset {name!r} "
                f"(have {sorted(self.datasets)})"
            ) from None

    def profile_invocations(self, dataset: str = "train", limit: int | None = None):
        """Environments for a profile run (one program run of *dataset*)."""
        ds = self.dataset(dataset)
        n = ds.n_invocations if limit is None else min(limit, ds.n_invocations)
        rng = np.random.default_rng(0)
        for i in range(n):
            yield ds.env(rng, i)
