"""Machine configurations.

Two presets mirror the paper's experimental platforms.  The parameters are
not cycle-accurate models of the real chips; they encode the *relationships*
the paper's results depend on:

* ``SPARC2`` — many architectural registers (the paper: "the SPARC II
  machine has more general purpose registers than the Pentium IV machine,
  so [it] can tolerate higher register pressure"), a shallower pipeline
  (small branch-miss penalty), slower ALUs.
* ``PENTIUM4`` — 8 architectural integer registers, a deep pipeline (large
  branch-miss penalty), fast ALUs, expensive cache misses.  This is the
  machine on which enabling ``-fstrict-aliasing`` blows up ART's register
  pressure and spill traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cost import CostTable

__all__ = ["MachineConfig", "SPARC2", "PENTIUM4", "machine_by_name", "MACHINES"]


@dataclass(frozen=True)
class MachineConfig:
    """All machine-dependent parameters of the simulated platform."""

    name: str
    #: architectural integer / floating-point register counts; versions whose
    #: per-block register pressure exceeds these spill (cost added per entry)
    int_regs: int
    fp_regs: int
    cost: CostTable
    #: L1-D cache geometry
    cache_size: int
    cache_line: int
    cache_assoc: int
    cache_hit_cycles: float
    cache_miss_cycles: float
    branch_miss_cycles: float
    #: cycles to save/restore one scalar (RBR overhead accounting)
    spill_store_cycles: float
    spill_load_cycles: float
    #: measurement noise: multiplicative jitter std-dev, and the probability
    #: and magnitude range of interrupt-style outliers
    noise_sigma: float
    outlier_prob: float
    outlier_scale: tuple[float, float]
    #: timer read/quantisation error in cycles: short timed regions suffer
    #: relatively larger measurement error ("small tuning sections exhibit
    #: more measurement variation", Section 5.1)
    timer_granularity_cycles: float = 0.0


SPARC2 = MachineConfig(
    name="sparc2",
    int_regs=32,
    fp_regs=32,
    cost=CostTable(
        int_alu=1.0,
        int_mul=5.0,
        int_div=18.0,
        fp_add=3.0,
        fp_mul=5.0,
        fp_div=22.0,
        compare=1.0,
        intrinsic=30.0,
    ),
    cache_size=16 * 1024,
    cache_line=32,
    cache_assoc=1,
    cache_hit_cycles=1.0,
    cache_miss_cycles=28.0,
    branch_miss_cycles=7.0,
    spill_store_cycles=2.0,
    spill_load_cycles=2.0,
    noise_sigma=0.045,
    outlier_prob=0.004,
    outlier_scale=(2.0, 6.0),
    timer_granularity_cycles=16.0,
)

PENTIUM4 = MachineConfig(
    name="pentium4",
    int_regs=8,
    fp_regs=8,
    cost=CostTable(
        int_alu=0.5,
        int_mul=2.0,
        int_div=23.0,
        fp_add=1.5,
        fp_mul=3.0,
        fp_div=24.0,
        compare=0.5,
        intrinsic=40.0,
    ),
    cache_size=8 * 1024,
    cache_line=64,
    cache_assoc=4,
    cache_hit_cycles=1.0,
    cache_miss_cycles=60.0,
    branch_miss_cycles=20.0,
    spill_store_cycles=3.0,
    spill_load_cycles=3.0,
    noise_sigma=0.055,
    outlier_prob=0.006,
    outlier_scale=(2.0, 8.0),
    timer_granularity_cycles=24.0,
)

MACHINES: dict[str, MachineConfig] = {m.name: m for m in (SPARC2, PENTIUM4)}


def machine_by_name(name: str) -> MachineConfig:
    """Look up a machine preset by name (``sparc2`` or ``pentium4``)."""
    try:
        return MACHINES[name]
    except KeyError:
        raise KeyError(
            f"unknown machine {name!r}; available: {sorted(MACHINES)}"
        ) from None
