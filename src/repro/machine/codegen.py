"""Block code generation: IR basic blocks -> native Python functions.

The executor's default path dispatches one closure per expression node; for
the hot loops of the tuning experiments that dominates wall-clock time.
This module instead emits one Python function per basic block (flattened
three-address style) and ``exec``-compiles it, cutting dispatch overhead by
roughly an order of magnitude while preserving the exact semantics of the
closure interpreter:

* array element accesses append ``(name, index)`` to the memory trace in
  evaluation order (the cache simulator consumes it);
* ``&&`` / ``||`` short-circuit (guarding patterns like
  ``i < n && a[i] > 0`` must not touch ``a[i]`` when the guard fails);
* float-typed subscripts are truncated with ``int()``;
* a store of a value that is not statically FLOAT into a float array is
  wrapped in ``float()`` (see the executor's value representation);
* the generated function returns ``(next_label, taken)`` exactly like the
  interpreted terminator.

Blocks containing calls get no generated function: the dispatch loop runs
their closures step by step so each call goes through ``Executor._do_call``
(Tier 1 never compiles a function with calls, see ``jit``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..ir.block import BasicBlock
from ..ir.expr import ArrayRef, BinOp, Call, Const, Expr, UnOp, Var
from ..ir.stmt import Assign, CondBranch, Jump, Return
from ..ir.types import Type
from ..store import Store
from .cost import infer_type
from .executor import needs_float_conversion

__all__ = ["compile_block_fn", "ExprEmitter", "exec_namespace", "RETURN_LABEL"]

RETURN_LABEL = "<return>"

_SIMPLE_BINOPS = {
    "+": "+", "-": "-", "*": "*", "/": "/", "//": "//", "%": "%",
    "<": "<", "<=": "<=", ">": ">", ">=": ">=", "==": "==", "!=": "!=",
    "<<": "<<", ">>": ">>", "&": "&", "|": "|", "^": "^",
}

_INTRINSIC_IMPLS: dict[str, Callable] = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "floor": np.floor,
}


class ExprEmitter:
    """Emits flattened Python source for IR expressions and assignments.

    Subclasses (the Tier-1 compiler) override :meth:`expr`'s ``Var``
    handling, :meth:`subscript`, :meth:`access`, :meth:`array` and
    :meth:`assign` to bind promoted locals and inline address arithmetic;
    the recursive cases dispatch through ``self.expr`` so overrides
    compose.
    """

    def __init__(self, types: dict[str, Type]) -> None:
        self.types = types
        self.lines: list[str] = []
        self.indent = 1
        self.n_tmp = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self) -> str:
        self.n_tmp += 1
        return f"_t{self.n_tmp}"

    # ------------------------------------------------------------------ #

    def expr(self, e: Expr) -> str:
        """Return a Python expression string; may emit preparatory lines."""
        if isinstance(e, Const):
            return repr(e.value)
        if isinstance(e, Var):
            return f"env[{e.name!r}]"
        if isinstance(e, ArrayRef):
            tmp = self.subscript(e.index)
            self.access(e.array, tmp)
            return f"{self.array(e.array)}[{tmp}]"
        if isinstance(e, UnOp):
            sub = self.expr(e.operand)
            if e.op == "-":
                return f"(-({sub}))"
            if e.op == "!":
                return f"(not ({sub}))"
            if e.op == "abs":
                return f"abs({sub})"
            if e.op == "~":
                return f"(~({sub}))"
            raise ValueError(f"unknown unary op {e.op}")  # pragma: no cover
        if isinstance(e, BinOp):
            if e.op in ("&&", "||"):
                # short-circuit: evaluate rhs only when needed
                left = self.expr(e.left)
                tmp = self.fresh()
                self.emit(f"{tmp} = bool({left})")
                self.emit(f"if {tmp}:" if e.op == "&&" else f"if not {tmp}:")
                self.indent += 1
                right = self.expr(e.right)
                self.emit(f"{tmp} = bool({right})")
                self.indent -= 1
                return tmp
            if e.op in ("min", "max"):
                left = self.expr(e.left)
                right = self.expr(e.right)
                lt, rt = self.fresh(), self.fresh()
                self.emit(f"{lt} = {left}")
                self.emit(f"{rt} = {right}")
                cmp_op = "<" if e.op == "min" else ">"
                return f"({lt} if {lt} {cmp_op} {rt} else {rt})"
            op = _SIMPLE_BINOPS[e.op]
            left = self.expr(e.left)
            right = self.expr(e.right)
            return f"(({left}) {op} ({right}))"
        if isinstance(e, Call):
            args = ", ".join(self.expr(a) for a in e.args)
            if e.fn == "int":
                return f"int({args})"
            if e.fn == "float":
                return f"float({args})"
            return f"float(_intr_{e.fn}({args}))"
        raise ValueError(f"cannot generate code for {e!r}")  # pragma: no cover

    # ------------------------------------------------------------------ #

    def subscript(self, index: Expr) -> str:
        """The name holding the evaluated subscript *index*."""
        idx = self.expr(index)
        tmp = self.fresh()
        if infer_type(index, self.types) is Type.FLOAT:
            self.emit(f"{tmp} = int({idx})")
        else:
            self.emit(f"{tmp} = {idx}")
        return tmp

    def access(self, name: str, idx: str) -> None:
        """Record the access of element *idx* of array *name*."""
        self.emit(f"_ma(({name!r}, {idx}))")

    def array(self, name: str) -> str:
        """The expression holding array *name*."""
        return f"env[{name!r}]"

    def assign(self, name: str, value: str) -> None:
        """Assign *value* to scalar *name*."""
        self.emit(f"env[{name!r}] = {value}")

    def stmt(self, s: Assign) -> None:
        if isinstance(s.target, ArrayRef):
            tmp = self.subscript(s.target.index)
            self.access(s.target.array, tmp)
            value = self.expr(s.expr)
            if needs_float_conversion(s, self.types):
                value = f"float({value})"
            self.emit(f"{self.array(s.target.array)}[{tmp}] = {value}")
        else:
            self.assign(s.target.name, self.expr(s.expr))

    def terminator(self, term) -> None:
        if isinstance(term, Jump):
            self.emit(f"return ({term.target!r}, None)")
        elif isinstance(term, CondBranch):
            cond = self.expr(term.cond)
            tmp = self.fresh()
            self.emit(f"{tmp} = bool({cond})")
            self.emit(
                f"return (({term.then!r} if {tmp} else {term.orelse!r}), {tmp})"
            )
        elif isinstance(term, Return):
            if term.value is not None:
                value = self.expr(term.value)
                self.emit(f"env['<ret>'] = {value}")
            self.emit(f"return ({RETURN_LABEL!r}, None)")
        else:  # pragma: no cover
            raise ValueError(f"cannot generate terminator {term!r}")


def exec_namespace(**extra: object) -> dict:
    """The globals dict generated machine code executes under.

    Restricted builtins plus the intrinsic implementations; *extra* entries
    (e.g. Tier 1's ``ExecutionError``) are merged in.
    """
    namespace: dict = {
        "__builtins__": {
            "bool": bool,
            "int": int,
            "float": float,
            "abs": abs,
        },
    }
    for name, impl in _INTRINSIC_IMPLS.items():
        namespace[f"_intr_{name}"] = impl
    namespace.update(extra)
    return namespace


#: memo of compiled code objects keyed by generated source — identical
#: blocks recur constantly across the tuning search (the same IR compiled
#: under many configurations), and ``builtins.compile`` dominates codegen
#: time.  Code objects are immutable; each call still ``exec``\ s into a
#: fresh namespace, so sharing them is safe.
_CODE_MEMO: Store[object] = Store(max_entries=4096)


def compile_block_fn(
    blk: BasicBlock, types: dict[str, Type]
) -> Callable[[dict, list], tuple[str, bool | None]]:
    """Compile one (call-free) basic block to ``f(env, mem) -> (next, taken)``."""
    em = ExprEmitter(types)
    for s in blk.stmts:
        if not isinstance(s, Assign):  # pragma: no cover - caller filters
            raise ValueError("codegen only handles call-free blocks")
        em.stmt(s)
    em.terminator(blk.terminator)

    fn_name = "_block"
    src = f"def {fn_name}(env, mem, _ma=None):\n"
    src += "    _ma = mem.append\n"
    src += "\n".join(em.lines) + "\n"

    namespace = exec_namespace()
    code, _ = _CODE_MEMO.get_or_build(
        (blk.label, src), lambda: compile(src, f"<block {blk.label}>", "exec")
    )
    exec(code, namespace)
    fn = namespace[fn_name]
    fn.__source__ = src  # for debugging
    return fn
