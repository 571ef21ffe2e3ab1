"""Dead code elimination (run under ``-fexpensive-optimizations``).

Statement-level backward liveness: scalar assignments whose target is dead
after the statement are removed (expressions in our IR are pure, so removal
is always safe).  Array stores and terminators are never removed.
Iterates to a fixed point (removing one dead statement can kill another).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...ir.function import Function
from ...analysis.liveness import live_out
from .base import declare_pass

if TYPE_CHECKING:  # pragma: no cover
    from ...analysis.manager import AnalysisManager

__all__ = ["dead_code_elimination"]


@declare_pass("stmts")  # removes statements and unused locals only
def dead_code_elimination(fn: Function, am: "AnalysisManager | None" = None) -> bool:
    changed_any = False
    for _ in range(20):
        out_map = am.get("live-out") if am is not None else live_out(fn)
        changed = False
        for label, blk in fn.cfg.blocks.items():
            if label not in out_map:
                continue
            live = set(out_map[label])
            if blk.terminator is not None:
                live |= blk.terminator.uses()
            new_rev = []
            for s in reversed(blk.stmts):
                if s.is_scalar_def():
                    if s.target.name not in live:
                        changed = True
                        continue  # dead
                    live.discard(s.target.name)
                live |= s.uses()
                new_rev.append(s)
            blk.stmts = list(reversed(new_rev))
        changed_any |= changed
        if not changed:
            break
        if am is not None:
            # the next round's liveness query must see this round's removals
            am.commit("stmts")
    # also prune declarations of locals that no longer occur anywhere
    used: set[str] = set()
    pruned = False
    for blk in fn.cfg.blocks.values():
        used |= blk.uses() | blk.defs()
    for name in list(fn.locals):
        if name not in used:
            del fn.locals[name]
            changed_any = True
            pruned = True
    if pruned and am is not None:
        # liveness only reads statements, and pruned locals occur in none,
        # so the final round's liveness maps stay bit-identical
        am.commit("stmts", frozenset({"live-in", "live-out"}))
    return changed_any
