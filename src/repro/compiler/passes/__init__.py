"""Real IR optimization passes gated by the simulated compiler's flags."""

from .constprop import constant_propagation, fold_expr
from .cse import common_subexpression_elimination
from .dce import dead_code_elimination
from .ifconv import if_conversion
from .jumpthread import crossjump, thread_jumps
from .licm import loop_invariant_code_motion
from .peephole import peephole, strength_reduce
from .unroll import unroll_loops

__all__ = [
    "common_subexpression_elimination",
    "constant_propagation",
    "crossjump",
    "dead_code_elimination",
    "fold_expr",
    "if_conversion",
    "loop_invariant_code_motion",
    "peephole",
    "strength_reduce",
    "thread_jumps",
    "unroll_loops",
]
