"""Common subexpression elimination (``-fgcse`` analogue).

An available-expressions dataflow over *pure scalar* expressions: at each
program point we track which non-trivial expressions are held in which
variable.  A later statement computing an available expression is rewritten
to a register move.  The meet is map-intersection (the holding variable must
agree on all paths).

With ``global_scope=False`` (plain local CSE, when ``-fgcse`` is off but
``-fcse-follow-jumps`` style local value numbering still applies) the
analysis does not propagate across block boundaries.
"""

from __future__ import annotations

from ...ir.expr import BinOp, Call, Expr, UnOp, Var
from ...ir.function import Function
from ...ir.stmt import Assign
from ...ir.expr import COMMUTATIVE_OPS
from .base import declare_pass, is_pure_scalar_expr

__all__ = ["common_subexpression_elimination"]


def _canon(e: Expr) -> Expr:
    """Canonicalise commutative operand order for better matching."""
    if isinstance(e, BinOp):
        left = _canon(e.left)
        right = _canon(e.right)
        if e.op in COMMUTATIVE_OPS and repr(right) < repr(left):
            left, right = right, left
        return BinOp(e.op, left, right)
    if isinstance(e, UnOp):
        return UnOp(e.op, _canon(e.operand))
    if isinstance(e, Call):
        return Call(e.fn, tuple(_canon(a) for a in e.args))
    return e


def _candidate(e: Expr) -> bool:
    """Worth tracking: pure scalar, and not a trivial leaf."""
    return is_pure_scalar_expr(e) and isinstance(e, (BinOp, UnOp, Call))


def _kill(avail: dict, killed_var: str) -> None:
    dead = [
        k
        for k, holder in avail.items()
        if holder == killed_var or killed_var in k.reads()
    ]
    for k in dead:
        del avail[k]


def _transfer(blk, avail: dict, rewrite: bool) -> tuple[dict, bool]:
    """Walk a block; optionally rewrite.  Returns (out_map, changed)."""
    avail = dict(avail)
    changed = False
    new_stmts = []
    for s in blk.stmts:
        if s.is_scalar_def():
            target = s.target.name
            key = _canon(s.expr)
            if _candidate(s.expr) and key in avail and avail[key] != target:
                if rewrite:
                    s = Assign(s.target, Var(avail[key]))
                    changed = True
                _kill(avail, target)
                # the original holder still holds the value (kept by _kill
                # unless the expression reads the rewritten target)
            else:
                _kill(avail, target)
                if _candidate(s.expr) and target not in key.reads():
                    avail[key] = target
        new_stmts.append(s)
    if rewrite:
        blk.stmts = new_stmts
    return avail, changed


@declare_pass("stmts")  # rewrites RHSs to register moves; graph untouched
def common_subexpression_elimination(
    fn: Function, *, global_scope: bool = True
) -> bool:
    """Run CSE; returns whether the function changed."""
    cfg = fn.cfg
    order = cfg.rpo()
    preds = cfg.predecessors_map()

    if not global_scope:
        changed = False
        for label in order:
            _, c = _transfer(cfg.blocks[label], {}, rewrite=True)
            changed |= c
        return changed

    # --- global: fixed-point of map-valued available expressions --------- #
    in_map: dict[str, dict | None] = {label: None for label in order}  # None = unvisited
    out_map: dict[str, dict | None] = {label: None for label in order}
    in_map[cfg.entry] = {}

    stable = False
    iters = 0
    while not stable and iters < 50:
        stable = True
        iters += 1
        for label in order:
            if label == cfg.entry:
                merged: dict = {}
            else:
                merged = None  # type: ignore[assignment]
                for p in preds[label]:
                    if p not in out_map or out_map[p] is None:
                        continue
                    ps = out_map[p]
                    if merged is None:
                        merged = dict(ps)
                    else:
                        merged = {
                            k: v
                            for k, v in merged.items()
                            if ps.get(k) == v
                        }
                if merged is None:
                    merged = {}
            new_out, _ = _transfer(cfg.blocks[label], merged, rewrite=False)
            in_map[label] = merged
            if new_out != out_map[label]:
                out_map[label] = new_out
                stable = False

    changed = False
    for label in order:
        _, c = _transfer(cfg.blocks[label], in_map[label] or {}, rewrite=True)
        changed |= c
    return changed
