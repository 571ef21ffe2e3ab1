"""Data-obliviousness: which executables do the same work on any array data.

An invocation's cycles, block counts, return value, faults and the machine
state it leaves depend on its inputs through three channels: the branches
it takes, the addresses it touches and the values that can raise.  When no
value read from an array can reach any of them, the invocation is a pure
function of the executable, the scalar inputs, the array shapes and the
machine state at entry, and :meth:`Executor.run
<repro.machine.executor.Executor.run>` may replay a recorded one instead of
simulating it (DESIGN.md §7, "Invocation replay").

:func:`oblivious_reason` decides this conservatively on the executable's
IR.  Every array-element read is *tainted* (constant subscripts included),
and so, flow-insensitively, is every scalar that a tainted expression is
assigned to.  The executable is data-oblivious when

1. no branch condition is tainted;
2. no subscript is tainted, in a read or in a store;
3. every store goes to a ``FLOAT_ARRAY`` (the writes a replay skips can
   then only land in float lists, which every input source hands out fresh
   per invocation);
4. a tainted operand appears only under ``+ - * min max`` with both
   operands FLOAT, under unary ``-`` or ``abs`` on a FLOAT, or as the
   FLOAT dividend of a ``/`` whose divisor is untainted: none of those
   raises on any float value (no intrinsic, comparison, logical or bitwise
   op, ``//``, ``%`` or int conversion takes one, since those can raise, or
   warn on numpy ints, depending on the value);
5. the return value is untainted.

A whole-array handle (a ``Var`` naming an array) counts as tainted too.
"""

from __future__ import annotations

from ..ir.expr import ArrayRef, BinOp, Expr, UnOp, Var
from ..ir.stmt import CondBranch, Return
from ..ir.types import Type, is_array
from .cost import infer_type

__all__ = ["oblivious_reason"]

_FLOAT_BINOPS = frozenset({"+", "-", "*", "min", "max"})
_FLOAT_UNOPS = frozenset({"-", "abs"})


def oblivious_reason(exe, verdicts: dict | None = None) -> str | None:
    """Why the executable *exe* is not data-oblivious, or None when it is.

    Computed once per :class:`~repro.machine.executor.ExecutableFunction`.
    *verdicts* shares the analysis across executables: it maps what
    :func:`_reason` reads, the digest of the rendered IR, to the verdict.
    Versions whose passes left the IR unchanged are then analysed once.  The caller scopes it (an
    executor holds one), so no verdict outlives the caller.
    """
    memo = exe._oblivious
    if memo is None:
        if verdicts is None:
            memo = (_reason(exe),)
        else:
            key = exe.ir_digest()
            memo = verdicts.get(key)
            if memo is None:
                memo = verdicts[key] = (_reason(exe),)
        exe._oblivious = memo
    return memo[0]


def _reason(exe) -> str | None:
    fn = exe.source
    types = fn.all_vars()
    blocks = list(fn.cfg.blocks.values())
    stmts = [s for blk in blocks for s in blk.stmts]

    tainted: set[str] = {name for name, t in types.items() if is_array(t) or t is Type.PTR}

    def mentions_data(e: Expr) -> bool:
        if isinstance(e, ArrayRef):
            return True
        if isinstance(e, Var):
            return e.name in tainted
        return any(mentions_data(c) for c in e.children())

    # flow-insensitive closure over scalar assignments
    changed = True
    while changed:
        changed = False
        for s in stmts:
            if (
                isinstance(s.target, Var)
                and s.target.name not in tainted
                and mentions_data(s.expr)
            ):
                tainted.add(s.target.name)
                changed = True

    def visit(e: Expr) -> bool:
        """Whether *e* is tainted; raises _Rejected at a broken rule."""
        if isinstance(e, Var):
            return e.name in tainted
        if isinstance(e, ArrayRef):
            if types.get(e.array) not in (Type.FLOAT_ARRAY, Type.INT_ARRAY):
                raise _Rejected(f"reads {e.array} through a pointer")
            if visit(e.index):
                raise _Rejected(f"subscript of {e.array} depends on array data")
            return True
        operands = [visit(c) for c in e.children()]
        if not any(operands):
            return False
        why = _tainted_operand(e, operands, types)
        if why is not None:
            raise _Rejected(why)
        return True

    # one pass, in program order; the first rule broken is the reason
    try:
        for blk in blocks:
            for s in blk.stmts:
                visit(s.expr)
                if isinstance(s.target, ArrayRef):
                    if types.get(s.target.array) is not Type.FLOAT_ARRAY:
                        return f"stores to {s.target.array}, not a float array"
                    visit(s.target)
            term = blk.terminator
            if isinstance(term, CondBranch) and mentions_data(term.cond):
                return f"branch in {blk.label} depends on array data"
            if isinstance(term, Return) and term.value is not None and visit(term.value):
                return "returns a value derived from array data"
    except _Rejected as e:
        return str(e)
    return None


class _Rejected(Exception):
    pass


def _tainted_operand(e: Expr, tainted: list[bool], types: dict) -> str | None:
    """Why *e*, whose operands are *tainted* as flagged, may not take them."""
    float_ = Type.FLOAT
    if isinstance(e, BinOp):
        ltype, rtype = infer_type(e.left, types), infer_type(e.right, types)
        if e.op in _FLOAT_BINOPS and ltype is float_ and rtype is float_:
            return None
        if e.op == "/":
            if tainted[1]:
                return "divides by a value derived from array data"
            if ltype is float_:
                return None
        return f"applies {e.op!r} to array data"
    if isinstance(e, UnOp):
        if e.op in _FLOAT_UNOPS and infer_type(e.operand, types) is float_:
            return None
        return f"applies {e.op!r} to array data"
    return f"applies {e.fn}() to array data"
