"""The optimization flag set: 38 options implied by GCC 3.3 ``-O3``.

The paper (Section 5.2) explores "all n = 38 optimization options implied by
'-O3' of the GCC 3.3 version".  We model the same set by name.  Each flag
acts through one or both of:

* a **real IR pass** in :mod:`repro.compiler.passes` (the ``pass_id``
  field) — e.g. ``gcse`` really eliminates common subexpressions from the
  tuning section's IR;
* a **cost-model effect** (:mod:`repro.compiler.effects`) — machine-dependent
  multipliers and register-pressure deltas, e.g. ``schedule-insns`` shortens
  big blocks but raises register pressure, ``strict-aliasing`` saves memory
  traffic but lengthens live ranges (the mechanism behind the paper's ART /
  Pentium 4 anecdote).

The mapping from flag to behaviour is documented per flag and is an
approximation of GCC 3.3 (see DESIGN.md); the *set* matches the paper's
count of 38 so the search-space structure (O(2^38) exhaustive, O(n^2)
Iterative Elimination) is faithful.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Flag", "ALL_FLAGS", "FLAGS_BY_NAME", "N_FLAGS"]


@dataclass(frozen=True)
class Flag:
    """One optimization option."""

    name: str
    description: str
    #: identifier of the IR pass this flag enables (None = effect-model only)
    pass_id: str | None = None


ALL_FLAGS: tuple[Flag, ...] = (
    # --- flags backed by real IR transformation passes -------------------- #
    Flag("cprop-registers", "constant propagation and folding", "constprop"),
    Flag("thread-jumps", "thread chains of jumps through empty blocks", "jumpthread"),
    Flag("crossjumping", "merge structurally identical blocks", "crossjump"),
    Flag("gcse", "global common subexpression elimination", "gcse"),
    Flag("cse-follow-jumps", "extend CSE across jump boundaries", "cse-local"),
    Flag("rerun-cse-after-loop", "re-run CSE after loop optimization", "cse-rerun"),
    Flag("loop-optimize", "loop-invariant code motion", "licm"),
    Flag("rerun-loop-opt", "second loop pass incl. 2x unrolling", "unroll"),
    Flag("strength-reduce", "replace mult/div by shifts and adds", "strength"),
    Flag("if-conversion", "convert small branch diamonds to predicated code", "ifconv"),
    Flag("expensive-optimizations", "dead code elimination and deep cleanups", "dce"),
    Flag("peephole2", "local algebraic peephole simplifications", "peephole"),
    # --- effect-model flags ------------------------------------------------ #
    # no tuning section calls a function, so inlining acts through its code
    # size effect alone
    Flag("inline-functions", "inline small functions at call sites"),
    Flag("defer-pop", "defer popping function arguments"),
    Flag("merge-constants", "merge identical constants across code"),
    Flag("guess-branch-probability", "static branch-probability estimation"),
    Flag("if-conversion2", "late if-conversion on the RTL analogue"),
    Flag("delayed-branch", "fill delay slots (SPARC only)"),
    Flag("optimize-sibling-calls", "turn sibling calls into jumps"),
    Flag("cse-skip-blocks", "let CSE skip over blocks"),
    Flag("gcse-lm", "let GCSE move loads out of loops"),
    Flag("gcse-sm", "let GCSE move stores out of loops"),
    Flag("caller-saves", "allocate call-crossing values to registers"),
    Flag("force-mem", "copy memory operands into registers before use"),
    Flag("schedule-insns", "instruction scheduling before register allocation"),
    Flag("schedule-insns2", "instruction scheduling after register allocation"),
    Flag("sched-interblock", "schedule across basic blocks"),
    Flag("sched-spec", "speculative motion of non-load instructions"),
    Flag("regmove", "reassign register numbers to maximize tying"),
    Flag("strict-aliasing", "assume strictest aliasing rules apply"),
    Flag("align-functions", "align function entry points"),
    Flag("align-jumps", "align branch targets"),
    Flag("align-loops", "align loop headers"),
    Flag("align-labels", "align all branch targets"),
    Flag("reorder-blocks", "reorder blocks to improve branch fallthrough"),
    Flag("reorder-functions", "reorder functions by hot/cold"),
    Flag("rename-registers", "rename registers to avoid false dependences"),
    Flag("omit-frame-pointer", "free the frame-pointer register"),
)

FLAGS_BY_NAME: dict[str, Flag] = {f.name: f for f in ALL_FLAGS}

N_FLAGS = len(ALL_FLAGS)
assert N_FLAGS == 38, f"flag count must match the paper (38), got {N_FLAGS}"
