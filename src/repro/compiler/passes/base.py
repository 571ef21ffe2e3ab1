"""Shared helpers for optimization passes.

Passes are functions ``fn -> bool`` that mutate a :class:`Function` in place
and return whether anything changed.  Expressions are immutable, so passes
rebuild statements; the helpers here do expression substitution/rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ...ir.expr import ArrayRef, BinOp, Call, Const, Expr, UnOp, Var
from ...ir.function import Function
from ...ir.types import Type

__all__ = [
    "PassTraits",
    "declare_pass",
    "subst_expr",
    "rewrite_expr",
    "fresh_name",
    "is_pure_scalar_expr",
    "expr_size",
]


@dataclass(frozen=True)
class PassTraits:
    """What a pass does to the IR, for analysis-cache invalidation.

    ``mutates`` is the invalidation level when the pass reports a change:
    ``"stmts"`` (statements rewritten, graph shape untouched) or ``"cfg"``
    (blocks/edges/terminator targets may have changed).  ``preserves`` names
    analyses (keys of :data:`repro.analysis.manager.ANALYSES`) whose cached
    results the pass leaves **bit-identical** even when it changes the IR —
    an exact-equality contract, enforced differentially by
    ``tests/compiler/test_incremental_differential.py``.
    """

    mutates: str = "cfg"
    preserves: frozenset[str] = frozenset()


def declare_pass(mutates: str, *preserves: str):
    """Decorator attaching :class:`PassTraits` to a pass function."""
    if mutates not in ("cfg", "stmts"):  # pragma: no cover - author error
        raise ValueError(f"unknown mutation level {mutates!r}")
    traits = PassTraits(mutates, frozenset(preserves))

    def deco(fn):
        fn.traits = traits
        return fn

    return deco


def subst_expr(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace reads of variables per *mapping* (array bases are kept)."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, ArrayRef):
        new_index = subst_expr(expr.index, mapping)
        if new_index is expr.index:
            return expr
        return ArrayRef(expr.array, new_index)
    if isinstance(expr, UnOp):
        sub = subst_expr(expr.operand, mapping)
        return expr if sub is expr.operand else UnOp(expr.op, sub)
    if isinstance(expr, BinOp):
        left = subst_expr(expr.left, mapping)
        right = subst_expr(expr.right, mapping)
        if left is expr.left and right is expr.right:
            return expr
        return BinOp(expr.op, left, right)
    if isinstance(expr, Call):
        args = tuple(subst_expr(a, mapping) for a in expr.args)
        if all(a is b for a, b in zip(args, expr.args)):
            return expr
        return Call(expr.fn, args)
    raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover


def rewrite_expr(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Bottom-up rewrite: apply *fn* to every node after its children."""
    if isinstance(expr, (Const, Var)):
        return fn(expr)
    if isinstance(expr, ArrayRef):
        return fn(ArrayRef(expr.array, rewrite_expr(expr.index, fn)))
    if isinstance(expr, UnOp):
        return fn(UnOp(expr.op, rewrite_expr(expr.operand, fn)))
    if isinstance(expr, BinOp):
        return fn(
            BinOp(expr.op, rewrite_expr(expr.left, fn), rewrite_expr(expr.right, fn))
        )
    if isinstance(expr, Call):
        return fn(Call(expr.fn, tuple(rewrite_expr(a, fn) for a in expr.args)))
    raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover


def fresh_name(fn: Function, base: str, ty: Type) -> str:
    """Declare and return a fresh local name derived from *base*."""
    taken = set(fn.locals) | {p.name for p in fn.params}
    name = base
    i = 0
    while name in taken:
        i += 1
        name = f"{base}.{i}"
    fn.locals[name] = ty
    return name


def is_pure_scalar_expr(expr: Expr) -> bool:
    """True when *expr* reads only scalars and cannot trap.

    Used by CSE/LICM/if-conversion candidates: no array reads (a store could
    change them; an untaken branch could index out of bounds) and no
    division (hoisting/speculating could introduce a divide-by-zero).
    """
    if isinstance(expr, Const):
        return True
    if isinstance(expr, Var):
        return True
    if isinstance(expr, ArrayRef):
        return False
    if isinstance(expr, UnOp):
        return is_pure_scalar_expr(expr.operand)
    if isinstance(expr, BinOp):
        if expr.op in {"/", "//", "%"}:
            return False
        return is_pure_scalar_expr(expr.left) and is_pure_scalar_expr(expr.right)
    if isinstance(expr, Call):
        if expr.fn in {"log"}:  # traps on non-positive inputs
            return False
        return all(is_pure_scalar_expr(a) for a in expr.args)
    return False


def expr_size(expr: Expr) -> int:
    """Number of nodes in the expression tree (used by size heuristics)."""
    n = 1
    for child in expr.children():
        n += expr_size(child)
    return n
