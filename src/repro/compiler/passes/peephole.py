"""Peephole simplifications (``-fpeephole2`` analogue) and strength
reduction (``-fstrength-reduce`` analogue).

Both are local, bottom-up expression rewrites:

* peephole: algebraic identities — ``x*1``, ``x+0``, ``x-0``, ``x*0``,
  ``x/1``, double negation, constant folding of sub-trees;
* strength reduction: multiplications by small powers of two become shifts
  (integers) or additions (``x*2 -> x+x``), divisions by powers of two
  become shifts for integer operands.

Note on floating-point: ``x*0 -> 0`` and friends are applied to integer
expressions only, so NaN/Inf semantics of float workloads are preserved.
"""

from __future__ import annotations

from ...ir.expr import BinOp, Const, Expr, UnOp
from ...ir.function import Function
from ...ir.stmt import Assign, CondBranch, Return
from ...ir.types import Type
from ...machine.cost import infer_type
from .base import declare_pass, rewrite_expr
from .constprop import fold_expr

__all__ = ["peephole", "strength_reduce"]


def _is_int_const(e: Expr, v: int) -> bool:
    return isinstance(e, Const) and not isinstance(e.value, bool) and e.value == v


def _simplify(e: Expr, types: dict) -> Expr:
    if isinstance(e, BinOp):
        l, r = e.left, e.right
        is_int = infer_type(e, types) is Type.INT
        if e.op == "+":
            if _is_int_const(r, 0):
                return l
            if _is_int_const(l, 0):
                return r
        elif e.op == "-":
            if _is_int_const(r, 0):
                return l
            if l == r and is_int:
                return Const(0)
        elif e.op == "*":
            if _is_int_const(r, 1):
                return l
            if _is_int_const(l, 1):
                return r
            if is_int and (_is_int_const(r, 0) or _is_int_const(l, 0)):
                return Const(0)
        elif e.op in {"/", "//"}:
            if _is_int_const(r, 1):
                return l
    elif isinstance(e, UnOp):
        if e.op == "-" and isinstance(e.operand, UnOp) and e.operand.op == "-":
            return e.operand.operand
        if e.op == "!" and isinstance(e.operand, UnOp) and e.operand.op == "!":
            return e.operand.operand
    return e


def _apply_rewrite(fn: Function, rewrite) -> bool:
    """Apply an expression rewrite everywhere in *fn*; report changes."""
    changed = False
    for blk in fn.cfg.blocks.values():
        new_stmts = []
        for s in blk.stmts:
            ns = Assign(
                s.target
                if not hasattr(s.target, "index")
                else type(s.target)(s.target.array, rewrite(s.target.index)),
                rewrite(s.expr),
            )
            if ns != s:
                changed = True
            new_stmts.append(ns)
        blk.stmts = new_stmts
        t = blk.terminator
        if isinstance(t, CondBranch):
            nc = rewrite(t.cond)
            if nc != t.cond:
                blk.terminator = CondBranch(nc, t.then, t.orelse)
                changed = True
        elif isinstance(t, Return) and t.value is not None:
            nv = rewrite(t.value)
            if nv != t.value:
                blk.terminator = Return(nv)
                changed = True
    return changed


@declare_pass("stmts")  # simplification can drop operand reads → liveness moves
def peephole(fn: Function) -> bool:
    """Algebraic simplification + local constant folding."""
    types = fn.all_vars()

    def rewrite(e: Expr) -> Expr:
        return rewrite_expr(fold_expr(e), lambda n: _simplify(n, types))

    return _apply_rewrite(fn, rewrite)


def _strength_step(e: Expr, types: dict) -> Expr:
    if not isinstance(e, BinOp):
        return e
    if infer_type(e, types) is not Type.INT:
        return e

    def pow2(c: Expr) -> int | None:
        if (
            isinstance(c, Const)
            and isinstance(c.value, int)
            and not isinstance(c.value, bool)
            and c.value > 1
            and (c.value & (c.value - 1)) == 0
        ):
            return c.value.bit_length() - 1
        return None

    if e.op == "*":
        for a, b in ((e.left, e.right), (e.right, e.left)):
            k = pow2(b)
            if k is not None:
                if k == 1:
                    return BinOp("+", a, a)  # x*2 -> x+x
                return BinOp("<<", a, Const(k))
    elif e.op == "//":
        k = pow2(e.right)
        if k is not None and infer_type(e.left, types) is Type.INT:
            # valid for the non-negative subscripts/counters our IR uses;
            # (Python's // already floors, >> also floors for negatives)
            return BinOp(">>", e.left, Const(k))
    return e


# x*2 → x+x, x*2^k → x<<k, x//2^k → x>>k: every rewrite reads and defines
# exactly the same variables, so the liveness maps are bit-identical
@declare_pass("stmts", "live-in", "live-out")
def strength_reduce(fn: Function) -> bool:
    """Replace expensive integer ops with cheaper equivalents."""
    types = fn.all_vars()

    def rewrite(e: Expr) -> Expr:
        return rewrite_expr(e, lambda n: _strength_step(n, types))

    return _apply_rewrite(fn, rewrite)
