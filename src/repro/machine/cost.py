"""Operation cost tables and static cost computation.

Each statement's *compute cost* (everything except memory hierarchy and
branch misprediction effects) is derived at compile time from a per-machine
cost table, so the executor only has to add dynamic terms at run time.
Costs are in abstract cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.expr import ArrayRef, BinOp, Call, Const, Expr, UnOp, Var
from ..ir.function import Function
from ..ir.stmt import Assign, CondBranch, Return, Stmt, Terminator
from ..ir.types import Type

__all__ = ["CostTable", "TypeEnv", "infer_type", "expr_cost", "stmt_cost", "StaticCost"]


@dataclass(frozen=True)
class CostTable:
    """Per-operation compute costs in cycles."""

    int_alu: float = 1.0
    int_mul: float = 3.0
    int_div: float = 12.0
    int_shift: float = 1.0
    fp_add: float = 2.0
    fp_mul: float = 4.0
    fp_div: float = 18.0
    compare: float = 1.0
    logical: float = 1.0
    intrinsic: float = 24.0
    move: float = 0.5
    addr_calc: float = 0.5
    return_cost: float = 1.0
    branch_base: float = 1.0


#: variable name -> Type
TypeEnv = dict


def infer_type(expr: Expr, types: TypeEnv) -> Type:
    """Infer the value type of *expr* (INT/FLOAT/BOOL) for cost purposes."""
    if isinstance(expr, Const):
        if isinstance(expr.value, bool):
            return Type.BOOL
        if isinstance(expr.value, int):
            return Type.INT
        return Type.FLOAT
    if isinstance(expr, Var):
        t = types.get(expr.name, Type.INT)
        return t
    if isinstance(expr, ArrayRef):
        base = types.get(expr.array)
        if base is Type.FLOAT_ARRAY:
            return Type.FLOAT
        if base is Type.PTR:
            return Type.FLOAT  # unknown pointee: assume float data
        return Type.INT
    if isinstance(expr, UnOp):
        if expr.op == "!":
            return Type.BOOL
        return infer_type(expr.operand, types)
    if isinstance(expr, BinOp):
        if expr.op in {"<", "<=", ">", ">=", "==", "!=", "&&", "||"}:
            return Type.BOOL
        left = infer_type(expr.left, types)
        right = infer_type(expr.right, types)
        if Type.FLOAT in (left, right):
            return Type.FLOAT
        return Type.INT
    if isinstance(expr, Call):
        if expr.fn == "int":
            return Type.INT
        return Type.FLOAT
    raise TypeError(f"cannot infer type of {expr!r}")


def expr_cost(expr: Expr, types: TypeEnv, table: CostTable) -> tuple[float, int]:
    """Return ``(compute_cycles, memory_ops)`` for evaluating *expr* once."""
    cycles = 0.0
    mem_ops = 0

    def visit(e: Expr) -> None:
        nonlocal cycles, mem_ops
        if isinstance(e, Const):
            return
        if isinstance(e, Var):
            # register read; types that live in memory (arrays passed whole)
            # do not occur as scalar reads in cost-relevant positions
            return
        if isinstance(e, ArrayRef):
            visit(e.index)
            cycles += table.addr_calc
            mem_ops += 1
            return
        if isinstance(e, UnOp):
            visit(e.operand)
            if e.op == "!":
                cycles += table.logical
            elif e.op == "abs":
                cycles += table.int_alu
            else:
                cycles += table.int_alu
            return
        if isinstance(e, BinOp):
            visit(e.left)
            visit(e.right)
            is_fp = (
                infer_type(e.left, types) is Type.FLOAT
                or infer_type(e.right, types) is Type.FLOAT
            )
            op = e.op
            if op in {"<", "<=", ">", ">=", "==", "!="}:
                cycles += table.compare
            elif op in {"&&", "||"}:
                cycles += table.logical
            elif op in {"<<", ">>"}:
                cycles += table.int_shift
            elif op in {"&", "|", "^"}:
                cycles += table.int_alu
            elif op in {"+", "-", "min", "max"}:
                cycles += table.fp_add if is_fp else table.int_alu
            elif op == "*":
                cycles += table.fp_mul if is_fp else table.int_mul
            elif op in {"/", "//", "%"}:
                cycles += table.fp_div if is_fp else table.int_div
            else:  # pragma: no cover - exhaustive over BINARY_OPS
                cycles += table.int_alu
            return
        if isinstance(e, Call):
            for a in e.args:
                visit(a)
            if e.fn in {"int", "float", "floor"}:
                cycles += table.int_alu
            else:
                cycles += table.intrinsic
            return
        raise TypeError(f"unknown expression node {e!r}")  # pragma: no cover

    visit(expr)
    return cycles, mem_ops


def stmt_cost(stmt: Stmt, types: TypeEnv, table: CostTable) -> tuple[float, int]:
    """Return ``(compute_cycles, memory_ops)`` for one statement execution."""
    if isinstance(stmt, Assign):
        cycles, mem = expr_cost(stmt.expr, types, table)
        cycles += table.move
        if isinstance(stmt.target, ArrayRef):
            icycles, imem = expr_cost(stmt.target.index, types, table)
            cycles += icycles + table.addr_calc
            mem += imem + 1  # the store itself
        return cycles, mem
    raise TypeError(f"unknown statement {stmt!r}")  # pragma: no cover


def terminator_cost(term: Terminator, types: TypeEnv, table: CostTable) -> tuple[float, int]:
    """Compute cost of evaluating a terminator (branch condition etc.)."""
    if isinstance(term, CondBranch):
        cycles, mem = expr_cost(term.cond, types, table)
        return cycles + table.branch_base, mem
    if isinstance(term, Return):
        if term.value is not None:
            cycles, mem = expr_cost(term.value, types, table)
            return cycles + table.return_cost, mem
        return table.return_cost, 0
    # Jump
    return table.branch_base * 0.5, 0


@dataclass
class StaticCost:
    """Per-block static cost summary used by the compiler's effect model."""

    compute_cycles: float
    mem_ops: int


def block_static_costs(
    fn: Function, table: CostTable, labels: list[str] | None = None
) -> dict[str, StaticCost]:
    """Compute the static (compute, mem-op) cost of every block of *fn*, or
    of the blocks named in *labels*."""
    types = fn.all_vars()
    out: dict[str, StaticCost] = {}
    for label in fn.cfg.blocks if labels is None else labels:
        blk = fn.cfg.blocks[label]
        cycles = 0.0
        mem = 0
        for s in blk.stmts:
            c, m = stmt_cost(s, types, table)
            cycles += c
            mem += m
        if blk.terminator is not None:
            c, m = terminator_cost(blk.terminator, types, table)
            cycles += c
            mem += m
        out[label] = StaticCost(cycles, mem)
    return out
