"""Live-variable analysis.

RBR (Section 2.4) needs ``Input(TS) = LiveIn(b1)`` — the live-in set of the
tuning section's first block — and the improved method saves only
``Modified_Input(TS) = Input(TS) ∩ Def(TS)`` (Eq. 6).  Both are computed
here.  Array parameters are live when any element may be read; since array
stores are partial updates, a store does *not* kill the array's liveness.
"""

from __future__ import annotations

from ..ir.function import Function
from .dataflow import solve_backward
from .defs import def_set

__all__ = ["live_in", "live_out", "input_set", "modified_input_set"]


def _block_transfer(fn: Function):
    cfg = fn.cfg

    def transfer(label: str, out_set: frozenset[str]) -> frozenset[str]:
        live = set(out_set)
        blk = cfg.blocks[label]
        if blk.terminator is not None:
            live |= blk.terminator.uses()
        for s in reversed(blk.stmts):
            if s.is_scalar_def():
                live.discard(s.target.name)
            # array stores: may-def, no kill
            live |= s.uses()
        return frozenset(live)

    return transfer


def live_in(fn: Function) -> dict[str, frozenset[str]]:
    """Live-in set of every reachable block."""
    in_map, _ = solve_backward(fn.cfg, _block_transfer(fn))
    return in_map


def live_out(fn: Function) -> dict[str, frozenset[str]]:
    """Live-out set of every reachable block."""
    _, out_map = solve_backward(fn.cfg, _block_transfer(fn))
    return out_map


def input_set(fn: Function) -> frozenset[str]:
    """``Input(TS)``: variables whose incoming values the TS may read.

    Following the paper, ``Input(TS) = LiveIn(entry)``; we intersect with the
    parameter set because locals are undefined on entry (a read of an
    uninitialised local does not make it part of the TS's input state).
    """
    params = {p.name for p in fn.params}
    return frozenset(live_in(fn)[fn.cfg.entry] & params)


def modified_input_set(fn: Function) -> frozenset[str]:
    """``Modified_Input(TS) = Input(TS) ∩ Def(TS)`` (paper Eq. 6).

    This is the (usually much smaller) portion of the input state the
    improved RBR method must save and restore between re-executions.
    """
    return frozenset(input_set(fn) & def_set(fn))
