"""The flag effect model: machine-dependent costs of optimization options.

Real IR passes change what the code *does*; this module prices what a
backend would additionally do — scheduling, register allocation, alignment,
aliasing assumptions — as deterministic, machine-dependent adjustments:

* multiplicative factors on per-block compute cycles (optionally restricted
  to big blocks or loop blocks),
* a global memory-cost factor and branch-miss factor,
* register-pressure deltas feeding a spill model (pressure above the
  machine's register file costs one store+load per block entry per spilled
  value),
* a code-size factor feeding a small i-cache penalty.

Two deliberately strong, machine-asymmetric effects reproduce the paper's
headline anecdotes:

* ``strict-aliasing`` cuts memory traffic but extends live ranges across
  the conditional branches of the enclosing loop (the more control flow a
  loop body has, the more values stay live across it).  With 32 registers
  (SPARC II) this is free; with 8 (Pentium 4) branch-rich kernels like
  ART's ``match`` spill heavily — the paper's explanation for ART's 178 %
  improvement when the flag is turned *off* on Pentium 4 (Section 5.2).
* ``schedule-insns`` compresses big blocks a lot on the in-order SPARC II
  but only mildly on the out-of-order Pentium 4, while raising pressure on
  both.

Pricing comes in two parts.  :func:`cost_facts` gathers what depends only
on the transformed IR and the machine (static block costs, loop depths,
array counts, loop branchiness, base pressure, the context verdict, the
statement count); :func:`price` folds a config's flag effects over those
facts.  Most flags act only here, so most compiles of a tune land on an
IR already priced: the pass-prefix store keeps each IR's facts in the
row that owns it (:mod:`.pipeline`), and a compile that lands there pays
only the fold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analysis.liveness import live_in, live_out
from ..analysis.loops import loop_nest_depths
from ..ir.expr import walk
from ..ir.function import Function
from ..ir.types import Type, is_array
from ..machine.config import MachineConfig
from ..machine.cost import block_static_costs
from ..machine.executor import CostFactors
from .options import OptConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.manager import AnalysisManager

__all__ = [
    "CostFacts", "FlagEffect", "VersionCosting", "compute_costing", "cost_facts",
    "price", "EFFECTS",
]

#: branch-miss factor guess-branch-probability contributes on *irregular*
#: codes (control driven by data, where static guesses mislead the layout)
GBP_IRREGULAR_FACTOR = {"sparc2": 1.45, "pentium4": 1.30}


@dataclass(frozen=True)
class FlagEffect:
    """Cost-model contribution of one enabled flag."""

    compute: float = 1.0          # all blocks
    big_block_compute: float = 1.0  # blocks with >= BIG_BLOCK statements
    loop_compute: float = 1.0     # blocks inside loops
    mem: float = 1.0              # memory-access cost factor
    branch: float = 1.0           # branch-miss cost factor
    pressure_int: int = 0
    pressure_fp: int = 0
    pressure_per_array: float = 0.0  # int pressure per distinct array touched
    #: int pressure added per conditional branch in the enclosing loop —
    #: models live ranges stretched across control flow (strict-aliasing)
    pressure_per_branch: float = 0.0
    size: float = 1.0             # code-size factor
    requires: tuple[str, ...] = ()


BIG_BLOCK = 6

#: default effects (applied on every machine unless overridden)
EFFECTS: dict[str, FlagEffect] = {
    "defer-pop": FlagEffect(compute=0.997),
    "merge-constants": FlagEffect(size=0.98),
    "guess-branch-probability": FlagEffect(branch=0.88),
    "if-conversion2": FlagEffect(branch=0.95, requires=("if-conversion",)),
    "delayed-branch": FlagEffect(),  # SPARC override below
    "optimize-sibling-calls": FlagEffect(compute=0.998),
    "cse-skip-blocks": FlagEffect(compute=0.995, requires=("gcse",)),
    "gcse-lm": FlagEffect(mem=0.965, requires=("gcse",)),
    "gcse-sm": FlagEffect(mem=0.985, requires=("gcse",)),
    "caller-saves": FlagEffect(compute=0.995),
    "force-mem": FlagEffect(compute=0.99),
    "schedule-insns": FlagEffect(
        big_block_compute=0.93, pressure_int=2, pressure_fp=2
    ),
    "schedule-insns2": FlagEffect(compute=0.975, pressure_int=1),
    "sched-interblock": FlagEffect(compute=0.992, requires=("schedule-insns",)),
    "sched-spec": FlagEffect(compute=0.996, requires=("schedule-insns",)),
    "regmove": FlagEffect(compute=0.99),
    "strict-aliasing": FlagEffect(mem=0.90, pressure_per_branch=1.0),
    "align-functions": FlagEffect(compute=0.999, size=1.02),
    "align-jumps": FlagEffect(branch=0.99, size=1.01),
    "align-loops": FlagEffect(loop_compute=0.99, size=1.02),
    "align-labels": FlagEffect(compute=0.9995, size=1.01),
    "reorder-blocks": FlagEffect(branch=0.90, size=1.01),
    "reorder-functions": FlagEffect(size=0.99),
    "rename-registers": FlagEffect(compute=0.995),
    "omit-frame-pointer": FlagEffect(compute=0.998, pressure_int=-1),
    # no tuning section makes a call: inlining acts through code size alone
    "inline-functions": FlagEffect(size=1.10),
    # pass-backed flags may still carry light cost-model components
    "rerun-loop-opt": FlagEffect(size=1.15),
    "if-conversion": FlagEffect(size=1.02),
    "crossjumping": FlagEffect(size=0.97),
    "thread-jumps": FlagEffect(size=0.995),
}

#: per-machine overrides: (machine name, flag name) -> FlagEffect
MACHINE_OVERRIDES: dict[tuple[str, str], FlagEffect] = {
    # in-order SPARC: static scheduling is very valuable; delay slots exist
    ("sparc2", "schedule-insns"): FlagEffect(
        big_block_compute=0.86, pressure_int=2, pressure_fp=2
    ),
    ("sparc2", "schedule-insns2"): FlagEffect(compute=0.96, pressure_int=1),
    ("sparc2", "delayed-branch"): FlagEffect(branch=0.93),
    ("sparc2", "rename-registers"): FlagEffect(compute=0.998),
    # out-of-order, deep-pipeline P4: hardware reorders anyway, branch
    # shaping matters more, register pressure is precious
    ("pentium4", "schedule-insns"): FlagEffect(
        big_block_compute=0.975, pressure_int=2, pressure_fp=2
    ),
    ("pentium4", "schedule-insns2"): FlagEffect(compute=0.99, pressure_int=1),
    ("pentium4", "reorder-blocks"): FlagEffect(branch=0.85, size=1.01),
    ("pentium4", "guess-branch-probability"): FlagEffect(branch=0.84),
    ("pentium4", "strict-aliasing"): FlagEffect(mem=0.88, pressure_per_branch=1.0),
}

#: code-size units (statements) a machine holds without i-cache pressure
ICACHE_COMFORT_UNITS = 160.0
ICACHE_PENALTY = 0.05  # compute penalty per unit of relative overflow


@dataclass
class VersionCosting:
    """All cost-model outputs for one compiled version."""

    block_compute: dict[str, float]
    block_spill: dict[str, float]
    factors: CostFactors
    code_size: float

    def total_spill_blocks(self) -> int:
        return sum(1 for v in self.block_spill.values() if v > 0)


@dataclass(frozen=True)
class CostFacts:
    """What pricing reads of one IR on one machine, whatever the config.

    *blocks* holds one row per block, in block order: its label, its static
    compute cycles, its compute-factor class (bit 0: at least
    :data:`BIG_BLOCK` statements; bit 1: inside a loop), its base (int, fp)
    register pressure, the distinct arrays it touches and the conditional
    branches of its innermost loop.  *irregular* is the Fig. 1 context
    verdict and *n_stmts* the code size in statements.
    """

    blocks: tuple[tuple[str, float, int, float, float, int, int], ...]
    irregular: bool
    n_stmts: int


def _loop_branchiness(
    fn: Function, am: "AnalysisManager | None" = None
) -> dict[str, int]:
    """For each block inside a loop: conditional branches in the smallest
    enclosing loop (0 outside loops).  This measures how far live ranges
    stretch across control flow when aliasing rules keep values live."""
    from ..analysis.loops import natural_loops
    from ..ir.stmt import CondBranch

    found = am.get("loops") if am is not None else natural_loops(fn.cfg)
    loops = sorted(found, key=lambda l: len(l.body))
    out: dict[str, int] = {label: 0 for label in fn.cfg.blocks}
    seen: set[str] = set()
    for loop in loops:  # innermost first
        branches = sum(
            1
            for lbl in loop.body
            if isinstance(fn.cfg.blocks[lbl].terminator, CondBranch)
            and lbl != loop.header  # the loop's own back test doesn't count
        )
        for lbl in loop.body:
            if lbl not in seen:
                out[lbl] = branches
                seen.add(lbl)
    return out


def _block_arrays(fn: Function) -> dict[str, int]:
    """Distinct arrays (and pointers) referenced per block."""
    types = fn.all_vars()
    out: dict[str, int] = {}
    for label, blk in fn.cfg.blocks.items():
        names: set[str] = set()
        for s in blk.stmts:
            for n in s.uses() | s.defs():
                t = types.get(n)
                if t is not None and (is_array(t) or t is Type.PTR):
                    names.add(n)
        if blk.terminator is not None:
            for n in blk.terminator.uses():
                t = types.get(n)
                if t is not None and (is_array(t) or t is Type.PTR):
                    names.add(n)
        out[label] = len(names)
    return out


def _base_pressure(
    fn: Function, am: "AnalysisManager | None" = None
) -> dict[str, tuple[float, float]]:
    """Baseline (int, fp) register pressure per block.

    Pressure = live scalars at block boundaries (by type) plus a small
    allowance for expression-evaluation temporaries.
    """
    types = fn.all_vars()
    lin = am.get("live-in") if am is not None else live_in(fn)
    lout = am.get("live-out") if am is not None else live_out(fn)
    out: dict[str, tuple[float, float]] = {}
    for label, blk in fn.cfg.blocks.items():
        live = set(lin.get(label, ())) | set(lout.get(label, ()))
        n_int = 0
        n_fp = 0
        n_arr = 0.0
        for v in live:
            t = types.get(v)
            if t in (Type.INT, Type.BOOL, Type.PTR):
                n_int += 1
            elif t is Type.FLOAT:
                n_fp += 1
            elif t is not None and is_array(t):
                n_arr += 0.5  # base addresses are cheap to rematerialise
        # evaluation temporaries: widest expression in the block
        widest = 0
        for s in blk.stmts:
            from ..ir.stmt import Assign

            if isinstance(s, Assign):
                widest = max(widest, sum(1 for _ in walk(s.expr)))
        temps = min(2, widest // 8)
        out[label] = (float(n_int + n_arr + temps), float(n_fp + temps // 2))
    return out


def cost_facts(
    fn: Function,
    machine: MachineConfig,
    am: "AnalysisManager | None" = None,
) -> CostFacts:
    """The :class:`CostFacts` of the (already IR-transformed) *fn*.

    With *am* (the analysis manager that accompanied the pass pipeline),
    loop, liveness and context analyses are served from its cache when
    still valid.
    """
    static = block_static_costs(fn, machine.cost)
    depths = am.get("loop-depths") if am is not None else loop_nest_depths(fn.cfg)
    arrays = _block_arrays(fn)
    branchiness = _loop_branchiness(fn, am)
    pressure0 = _base_pressure(fn, am)

    # Static branch-probability guessing helps codes whose branches are
    # statically predictable, and actively hurts irregular codes — the same
    # regular/irregular divide the Fig. 1 context analysis draws, so we
    # reuse it here (the compiler knows at compile time which case it is).
    from ..analysis.context import analyze_context

    ctx = am.get("context") if am is not None else analyze_context(fn)
    blocks = fn.cfg.blocks
    return CostFacts(
        blocks=tuple(
            (
                label,
                cost.compute_cycles,
                (len(blocks[label].stmts) >= BIG_BLOCK)
                + 2 * (depths.get(label, 0) > 0),
                *pressure0[label],
                arrays[label],
                branchiness[label],
            )
            for label, cost in static.items()
        ),
        irregular=not ctx.applicable,
        n_stmts=sum(len(b.stmts) + 1 for b in blocks.values()),
    )


@functools.cache
def _fold_rows(machine_name: str) -> tuple[tuple[int, FlagEffect, int, float | None], ...]:
    """Every flag with an effect on machine *machine_name*, in the order a
    config lists its flags: its bit in a config's mask, its effect (the
    machine's override, else the default), the mask of the flags it
    requires and, for ``guess-branch-probability``, its branch factor on
    irregular code."""
    rows = []
    for name in sorted(EFFECTS.keys() | {n for m, n in MACHINE_OVERRIDES if m == machine_name}):
        eff = MACHINE_OVERRIDES.get((machine_name, name), EFFECTS.get(name))
        irregular = (
            GBP_IRREGULAR_FACTOR.get(machine_name, 1.25)
            if name == "guess-branch-probability" else None
        )
        rows.append((OptConfig.of(name).mask, eff, OptConfig(eff.requires).mask, irregular))
    return tuple(rows)


def price(facts: CostFacts, config: OptConfig, machine: MachineConfig) -> VersionCosting:
    """Fold *config*'s flag effects over the *facts* of one IR on *machine*."""
    # accumulate flag effects
    compute_f = 1.0
    big_f = 1.0
    loop_f = 1.0
    mem_f = 1.0
    branch_f = 1.0
    dp_int = 0.0
    dp_fp = 0.0
    per_array = 0.0
    per_branch = 0.0
    size_f = 1.0

    mask = config.mask
    for bit, eff, requires, irregular in _fold_rows(machine.name):
        if not mask & bit or mask & requires != requires:
            continue
        if irregular is not None and facts.irregular:
            branch_f *= irregular
            continue
        compute_f *= eff.compute
        big_f *= eff.big_block_compute
        loop_f *= eff.loop_compute
        mem_f *= eff.mem
        branch_f *= eff.branch
        dp_int += eff.pressure_int
        dp_fp += eff.pressure_fp
        per_array += eff.pressure_per_array
        per_branch += eff.pressure_per_branch
        size_f *= eff.size

    # code size and i-cache penalty
    code_size = facts.n_stmts * size_f
    icache_over = max(0.0, code_size / ICACHE_COMFORT_UNITS - 1.0)
    icache_factor = 1.0 + ICACHE_PENALTY * icache_over

    # the compute factor of each block class, multiplied in the order
    # compute, big block, loop
    f = compute_f * icache_factor
    class_f = (f, f * big_f, f * loop_f, f * big_f * loop_f)

    block_compute: dict[str, float] = {}
    block_spill: dict[str, float] = {}
    spill_unit = machine.spill_store_cycles + machine.spill_load_cycles
    int_regs, fp_regs = machine.int_regs, machine.fp_regs
    for label, cycles, cls, p_int0, p_fp0, n_arrays, n_branches in facts.blocks:
        block_compute[label] = cycles * class_f[cls]
        p_int = p_int0 + dp_int + per_array * n_arrays + per_branch * n_branches
        p_fp = p_fp0 + dp_fp
        spills = max(0.0, p_int - int_regs) + max(0.0, p_fp - fp_regs)
        block_spill[label] = spills * spill_unit

    return VersionCosting(
        block_compute=block_compute,
        block_spill=block_spill,
        factors=CostFactors(mem=mem_f, branch=branch_f),
        code_size=code_size,
    )


def compute_costing(
    fn: Function,
    config: OptConfig,
    machine: MachineConfig,
    *,
    am: "AnalysisManager | None" = None,
) -> VersionCosting:
    """Price the (already IR-transformed) function under *config*:
    :func:`price` of its :func:`cost_facts`."""
    return price(cost_facts(fn, machine, am), config, machine)
