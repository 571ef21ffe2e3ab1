"""Constant propagation and folding (``-fcprop-registers`` analogue).

A forward dataflow over constant lattices (⊥ unseen / const / ⊤ varying),
folding expressions whose operands are all constant and rewriting variable
reads of known constants.  Conditional branches on constant conditions are
folded to jumps, and unreachable blocks removed.
"""

from __future__ import annotations

import numpy as np

from ...ir.expr import ArrayRef, BinOp, Call, Const, Expr, UnOp, Var
from ...ir.function import Function
from ...ir.stmt import Assign, CondBranch, Jump, Return
from .base import declare_pass, rewrite_expr

__all__ = ["constant_propagation", "fold_expr"]

_TOP = object()  # "varying"


def _fold_binop(op: str, a, b):
    try:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        if op == "//":
            return a // b
        if op == "%":
            return a % b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "&&":
            return bool(a) and bool(b)
        if op == "||":
            return bool(a) or bool(b)
        if op == "min":
            return min(a, b)
        if op == "max":
            return max(a, b)
        if op == "<<":
            return a << b
        if op == ">>":
            return a >> b
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
    except (ZeroDivisionError, TypeError, ValueError):
        return None
    return None  # pragma: no cover


_INTRINSIC_FOLD = {
    "sqrt": lambda a: float(np.sqrt(a)) if a >= 0 else None,
    "exp": lambda a: float(np.exp(a)),
    "log": lambda a: float(np.log(a)) if a > 0 else None,
    "sin": lambda a: float(np.sin(a)),
    "cos": lambda a: float(np.cos(a)),
    "floor": lambda a: float(np.floor(a)),
    "int": lambda a: int(a),
    "float": lambda a: float(a),
}


def fold_expr(expr: Expr) -> Expr:
    """Bottom-up constant folding of one expression."""

    def step(e: Expr) -> Expr:
        if isinstance(e, BinOp) and isinstance(e.left, Const) and isinstance(e.right, Const):
            v = _fold_binop(e.op, e.left.value, e.right.value)
            if v is not None:
                return Const(v)
        if isinstance(e, UnOp) and isinstance(e.operand, Const):
            if e.op == "-":
                return Const(-e.operand.value)
            if e.op == "!":
                return Const(not e.operand.value)
            if e.op == "abs":
                return Const(abs(e.operand.value))
        if isinstance(e, Call) and len(e.args) == 1 and isinstance(e.args[0], Const):
            f = _INTRINSIC_FOLD.get(e.fn)
            if f is not None:
                try:
                    v = f(e.args[0].value)
                except (ValueError, OverflowError):
                    v = None
                if v is not None:
                    return Const(v)
        return e

    return rewrite_expr(expr, step)


def _meet(a, b):
    if a is _TOP or b is _TOP:
        return _TOP
    if a is None:
        return b
    if b is None:
        return a
    if type(a) is type(b) and a == b:
        return a
    return _TOP


@declare_pass("cfg")  # folds constant branches and drops unreachable blocks
def constant_propagation(fn: Function) -> bool:
    """Run constant propagation + folding to a fixed point.  Returns whether
    the function changed."""
    cfg = fn.cfg
    changed_any = False

    # iterate: (1) dataflow constants, (2) rewrite, (3) fold branches
    for _ in range(10):  # convergence guard; usually 1-2 rounds
        order = cfg.rpo()
        preds = cfg.predecessors_map()
        # in-state per block: dict var -> const value (absent = bottom)
        in_state: dict[str, dict] = {label: {} for label in order}
        out_state: dict[str, dict] = {label: {} for label in order}
        # params are varying on entry
        in_state[cfg.entry] = {p.name: _TOP for p in fn.params}

        def transfer(label: str, state: dict) -> dict:
            cur = dict(state)
            for s in cfg.blocks[label].stmts:
                if s.is_scalar_def():
                    e = _rewrite_with(s.expr, cur)
                    e = fold_expr(e)
                    cur[s.target.name] = e.value if isinstance(e, Const) else _TOP
            return cur

        # fixed-point (monotone: values only move toward TOP)
        stable = False
        iters = 0
        while not stable and iters < 50:
            stable = True
            iters += 1
            for label in order:
                if label == cfg.entry:
                    merged = in_state[cfg.entry]
                else:
                    merged = {}
                    first = True
                    for p in preds[label]:
                        if p not in out_state:
                            continue
                        ps = out_state[p]
                        if first:
                            merged = dict(ps)
                            first = False
                        else:
                            keys = set(merged) | set(ps)
                            merged = {
                                k: _meet(merged.get(k), ps.get(k)) for k in keys
                            }
                new_out = transfer(label, merged)
                in_state[label] = merged
                if new_out != out_state[label]:
                    out_state[label] = new_out
                    stable = False

        # rewrite statements with known constants
        changed = False
        for label in order:
            blk = cfg.blocks[label]
            cur = dict(in_state[label])
            new_stmts = []
            for s in blk.stmts:
                e = fold_expr(_rewrite_with(s.expr, cur))
                target = s.target
                if isinstance(target, ArrayRef):
                    target = ArrayRef(
                        target.array, fold_expr(_rewrite_with(target.index, cur))
                    )
                ns = Assign(target, e)
                if ns != s:
                    changed = True
                new_stmts.append(ns)
                if isinstance(target, Var):
                    cur[target.name] = e.value if isinstance(e, Const) else _TOP
            blk.stmts = new_stmts

            t = blk.terminator
            if isinstance(t, CondBranch):
                cond = fold_expr(_rewrite_with(t.cond, cur))
                if isinstance(cond, Const):
                    blk.terminator = Jump(t.then if cond.value else t.orelse)
                    changed = True
                elif cond != t.cond:
                    blk.terminator = CondBranch(cond, t.then, t.orelse)
                    changed = True
            elif isinstance(t, Return) and t.value is not None:
                v = fold_expr(_rewrite_with(t.value, cur))
                if v != t.value:
                    blk.terminator = Return(v)
                    changed = True

        # count removals as changes: the input may already hold unreachable
        # blocks, and a mutating round must never report "unchanged"
        if cfg.remove_unreachable():
            changed_any = True
        changed_any |= changed
        if not changed:
            break
    return changed_any


def _rewrite_with(expr: Expr, consts: dict) -> Expr:
    def step(e: Expr) -> Expr:
        if isinstance(e, Var):
            v = consts.get(e.name)
            if v is not None and v is not _TOP:
                return Const(v)
        return e

    return rewrite_expr(expr, step)
