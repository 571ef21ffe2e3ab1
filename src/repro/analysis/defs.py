"""Def-set analysis and write-region classification.

``Def(TS)`` is the set of variables the tuning section may write (paper
Eq. 6).  For arrays we additionally classify each store as *regular* (affine
in loop induction variables / loop-invariant scalars, so a symbolic range
analysis could bound it) or *irregular* (indirect subscripts), which decides
whether the improved RBR method can save a slice or must fall back to the
inspector that records written addresses (Section 2.4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.expr import ArrayRef, BinOp, Const, Expr, UnOp, Var, walk
from ..ir.function import Function

__all__ = ["def_set", "scalar_def_set", "array_def_set", "StoreInfo", "classify_stores"]


def def_set(fn: Function) -> frozenset[str]:
    """All variables the function may write."""
    out: set[str] = set()
    for blk in fn.cfg.blocks.values():
        out |= blk.defs()
    return frozenset(out)


def scalar_def_set(fn: Function) -> frozenset[str]:
    """Scalar variables the function may write."""
    out: set[str] = set()
    for blk in fn.cfg.blocks.values():
        for s in blk.stmts:
            if s.is_scalar_def():
                out.add(s.target.name)
    return frozenset(out)


def array_def_set(fn: Function) -> frozenset[str]:
    """Array variables the function may write."""
    types = fn.all_vars()
    from ..ir.types import is_array

    return frozenset(n for n in def_set(fn) if n in types and is_array(types[n]))


@dataclass(frozen=True)
class StoreInfo:
    """One array store site and whether its subscript is affine."""

    array: str
    label: str
    index: int
    affine: bool


def _is_affine(expr: Expr, affine_vars: frozenset[str]) -> bool:
    """True when *expr* is an affine combination of scalars in *affine_vars*.

    We accept sums/differences/products-by-structure of constants and plain
    scalar variables; any array read in the subscript (indirection) makes the
    store irregular.
    """
    for node in walk(expr):
        if isinstance(node, ArrayRef):
            return False
        if isinstance(node, Var) and node.name not in affine_vars:
            return False
        if isinstance(node, BinOp) and node.op not in {"+", "-", "*", "//", "%", "min", "max"}:
            return False
        if isinstance(node, UnOp) and node.op != "-":
            return False
        if not isinstance(node, (ArrayRef, Var, BinOp, UnOp, Const)):
            return False
    return True


def classify_stores(fn: Function) -> list[StoreInfo]:
    """Classify every array store in *fn* as affine (regular) or irregular.

    A subscript counts as affine when it mentions only scalar variables and
    {+,-,*,//,%,min,max} — a deliberate over-approximation of the symbolic
    range analysis the paper cites [1]; anything with array indirection in
    the subscript is irregular.
    """
    scalars = frozenset(
        n for n, t in fn.all_vars().items() if t.value in ("int", "float", "bool")
    )
    out: list[StoreInfo] = []
    for label, blk in fn.cfg.blocks.items():
        for i, s in enumerate(blk.stmts):
            if isinstance(s.target, ArrayRef):
                out.append(
                    StoreInfo(
                        array=s.target.array,
                        label=label,
                        index=i,
                        affine=_is_affine(s.target.index, scalars),
                    )
                )
    return out


def has_irregular_stores(fn: Function, array: str | None = None) -> bool:
    """True when *fn* (or a specific *array* in it) has an irregular store."""
    for info in classify_stores(fn):
        if array is not None and info.array != array:
            continue
        if not info.affine:
            return True
    return False
