"""Profile runs.

The offline tuning scenario decides rating-method applicability from a
profile run using the tuning input (Section 3): the number of distinct
contexts for CBR, the per-block entry counts for MBR's component merging
(Section 2.3), the ``C_avg`` values, and per-TS time shares for the TS
selector.  This module performs that run and packages the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..ir.function import Function
from .config import MachineConfig
from .executor import CostFactors, compile_function

__all__ = ["TSProfile", "profile_tuning_section"]


@dataclass
class TSProfile:
    """Everything the profile run of one tuning section recorded."""

    ts_name: str
    n_invocations: int
    #: per-invocation true execution times
    times: np.ndarray
    #: per-block entry counts, block label -> np.ndarray (one per invocation)
    block_counts: dict[str, np.ndarray]
    #: per-invocation *scalar* inputs (context-variable material); array
    #: inputs are not stored (too large) — the runtime-constant analysis and
    #: context-key extraction receive scalar views plus fixed array elements
    scalar_inputs: list[dict[str, object]]

    @property
    def total_time(self) -> float:
        return float(np.sum(self.times))

    def invocation_inputs(self) -> Sequence[Mapping[str, object]]:
        return self.scalar_inputs


def _scalar_view(env: Mapping[str, object]) -> dict[str, object]:
    """Keep scalars, and small tuples of array heads for pseudo context vars.

    Context variables may be ``a[c]`` with small constant ``c``; storing the
    first few elements of each array keeps key extraction possible without
    retaining whole arrays.
    """
    out: dict[str, object] = {}
    for name, value in env.items():
        if hasattr(value, "__len__"):
            head = np.asarray(value[:8]).copy()
            out[name] = head
        else:
            out[name] = value
    return out


def profile_tuning_section(
    fn: Function,
    invocations: Iterable[Mapping[str, object]],
    machine: MachineConfig,
    *,
    exec_tier: int = 1,
) -> TSProfile:
    """Run *fn* once per invocation environment, recording counts and times.

    The profile run executes the baseline (un-tuned) version with block
    counting enabled; inputs are consumed from the *invocations* iterable
    (each a fresh environment — the caller's workload generator owns input
    regeneration semantics).  *exec_tier* selects the execution tier
    (tier 1 profiles faster, identically).
    """
    from .jit import create_executor

    exe = compile_function(fn, machine)
    execu = create_executor(machine, exec_tier)
    times: list[float] = []
    counts_acc: dict[str, list[int]] = {}
    scalars: list[dict[str, object]] = []

    for env in invocations:
        env = dict(env)
        scalars.append(_scalar_view(env))
        res = execu.run(exe, env, factors=CostFactors.IDENTITY, count_blocks=True)
        times.append(res.cycles)
        assert res.block_counts is not None
        for label, c in res.block_counts.items():
            counts_acc.setdefault(label, []).append(c)

    n = len(times)
    block_counts = {
        label: np.asarray(vals, dtype=float) for label, vals in counts_acc.items()
    }
    # Blocks that appeared only in some invocations (calls) get zero-padding.
    for label, arr in block_counts.items():
        if arr.shape[0] != n:
            padded = np.zeros(n)
            padded[: arr.shape[0]] = arr
            block_counts[label] = padded
    return TSProfile(
        ts_name=fn.name,
        n_invocations=n,
        times=np.asarray(times),
        block_counts=block_counts,
        scalar_inputs=scalars,
    )
