"""Structured CFG construction.

Workloads and tests build IR through :class:`FunctionBuilder`, which provides
structured control flow (``for_``, ``while_``, ``if_``/``orelse``, ``break_``,
``continue_``) and emits a conventional basic-block CFG underneath.  The
builder also annotates loop headers it creates (label prefix ``loop``) so the
trip-count analysis has an easy regular-structure fast path, mirroring the
paper's "compile-time analysis ... if the code structure is regular".
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Union

from .block import BasicBlock
from .cfg import CFG
from .expr import ArrayRef, BinOp, Call, Expr, UnOp, Var, _wrap
from .function import Function, Param
from .stmt import Assign, CondBranch, Jump, Return
from .types import Type

__all__ = [
    "FunctionBuilder",
    "eq",
    "ne",
    "and_",
    "or_",
    "not_",
    "min_",
    "max_",
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
    "floor",
    "to_int",
    "to_float",
]


# --------------------------------------------------------------------------- #
# expression DSL helpers (the overloadable operators live on Expr itself)


def eq(a: object, b: object) -> Expr:
    """Equality comparison (``==`` is reserved for structural equality)."""
    return BinOp("==", _wrap(a), _wrap(b))


def ne(a: object, b: object) -> Expr:
    """Inequality comparison (see :func:`eq`)."""
    return BinOp("!=", _wrap(a), _wrap(b))


def and_(a: object, b: object) -> Expr:
    """Short-circuiting logical AND (``&&``)."""
    return BinOp("&&", _wrap(a), _wrap(b))


def or_(a: object, b: object) -> Expr:
    """Short-circuiting logical OR (``||``)."""
    return BinOp("||", _wrap(a), _wrap(b))


def not_(a: object) -> Expr:
    """Logical negation."""
    return UnOp("!", _wrap(a))


def min_(a: object, b: object) -> Expr:
    """Two-operand minimum."""
    return BinOp("min", _wrap(a), _wrap(b))


def max_(a: object, b: object) -> Expr:
    """Two-operand maximum."""
    return BinOp("max", _wrap(a), _wrap(b))


def sqrt(a: object) -> Expr:
    """Square-root intrinsic."""
    return Call("sqrt", (_wrap(a),))


def exp(a: object) -> Expr:
    """Exponential intrinsic."""
    return Call("exp", (_wrap(a),))


def log(a: object) -> Expr:
    """Natural-log intrinsic (traps on non-positive input)."""
    return Call("log", (_wrap(a),))


def sin(a: object) -> Expr:
    """Sine intrinsic."""
    return Call("sin", (_wrap(a),))


def cos(a: object) -> Expr:
    """Cosine intrinsic."""
    return Call("cos", (_wrap(a),))


def floor(a: object) -> Expr:
    """Floor intrinsic (returns a float)."""
    return Call("floor", (_wrap(a),))


def to_int(a: object) -> Expr:
    """Truncating conversion to int."""
    return Call("int", (_wrap(a),))


def to_float(a: object) -> Expr:
    """Conversion to float."""
    return Call("float", (_wrap(a),))


# --------------------------------------------------------------------------- #


@dataclass
class _LoopFrame:
    header: str
    exit: str
    continue_target: str


class FunctionBuilder:
    """Incrementally builds a :class:`~repro.ir.function.Function`.

    Example::

        b = FunctionBuilder("saxpy", [("n", Type.INT), ("x", Type.FLOAT_ARRAY),
                                      ("y", Type.FLOAT_ARRAY), ("a", Type.FLOAT)])
        with b.for_("i", 0, b.var("n")) as i:
            b.assign(ArrayRef("y", i), b.var("a") * ArrayRef("x", i) + ArrayRef("y", i))
        b.ret()
        fn = b.build()
    """

    def __init__(
        self,
        name: str,
        params: list[tuple[str, Type]],
        return_type: Type | None = None,
    ) -> None:
        self.name = name
        self.params = [Param(n, t) for n, t in params]
        self.return_type = return_type
        self.locals: dict[str, Type] = {}
        self._counter = 0
        entry = BasicBlock("entry")
        self.cfg = CFG("entry", {"entry": entry})
        self._current: BasicBlock | None = entry
        self._loop_stack: list[_LoopFrame] = []
        # pending (else_label, join_label) of the most recently closed if_
        self._pending_else: tuple[str, str] | None = None

    # ----------------------------------------------------------------- #
    # variables and expressions

    def var(self, name: str) -> Var:
        return Var(name)

    def local(self, name: str, ty: Type) -> Var:
        """Declare a local variable and return a read of it."""
        existing = self.locals.get(name)
        if existing is not None and existing is not ty:
            raise ValueError(f"local {name!r} redeclared with different type")
        if any(p.name == name for p in self.params):
            raise ValueError(f"local {name!r} shadows a parameter")
        self.locals[name] = ty
        return Var(name)

    # ----------------------------------------------------------------- #
    # block plumbing

    def _fresh(self, base: str) -> str:
        self._counter += 1
        return f"{base}{self._counter}"

    def _open(self, label: str) -> BasicBlock:
        blk = BasicBlock(label)
        self.cfg.add_block(blk)
        self._current = blk
        return blk

    def _emit(self, stmt) -> None:
        if self._current is None:
            # Unreachable code after break/continue/return: park it in a
            # fresh dead block so building never fails; validation may warn.
            self._open(self._fresh("dead"))
        self._current.stmts.append(stmt)

    def _seal(self, terminator) -> None:
        if self._current is None:
            self._open(self._fresh("dead"))
        assert self._current.terminator is None
        self._current.terminator = terminator
        self._current = None

    # ----------------------------------------------------------------- #
    # statements

    def assign(self, target: Union[str, Var, ArrayRef], expr: object) -> None:
        """Emit ``target = expr``; *target* may be a variable name."""
        if isinstance(target, str):
            target = Var(target)
        self._pending_else = None
        self._emit(Assign(target, _wrap(expr)))

    def store(self, array: str, index: object, expr: object) -> None:
        """Emit ``array[index] = expr``."""
        self.assign(ArrayRef(array, _wrap(index)), expr)

    def ret(self, value: object | None = None) -> None:
        self._pending_else = None
        self._seal(Return(_wrap(value) if value is not None else None))

    # ----------------------------------------------------------------- #
    # structured control flow

    @contextmanager
    def if_(self, cond: object) -> Iterator[None]:
        """``with b.if_(cond): ...`` — optionally followed by ``b.orelse()``."""
        self._pending_else = None
        then_label = self._fresh("then")
        else_label = self._fresh("else")
        join_label = self._fresh("join")
        self._seal(CondBranch(_wrap(cond), then_label, else_label))
        self._open(then_label)
        yield
        if self._current is not None:
            self._seal(Jump(join_label))
        # Eagerly create the else block as a fall-through; orelse() reopens it.
        else_blk = BasicBlock(else_label, terminator=Jump(join_label))
        self.cfg.add_block(else_blk)
        self._open(join_label)
        self._pending_else = (else_label, join_label)

    @contextmanager
    def orelse(self) -> Iterator[None]:
        """Open the else-branch of the if that *immediately* precedes."""
        if self._pending_else is None:
            raise RuntimeError("orelse() must immediately follow an if_() block")
        else_label, join_label = self._pending_else
        self._pending_else = None
        join_blk = self._current
        else_blk = self.cfg.blocks[else_label]
        assert not else_blk.stmts, "orelse() used twice for the same if_"
        else_blk.terminator = None
        self._current = else_blk
        yield
        if self._current is not None:
            self._seal(Jump(join_label))
        self._current = join_blk

    @contextmanager
    def for_(
        self,
        var: str,
        start: object,
        stop: object,
        step: int = 1,
    ) -> Iterator[Var]:
        """Counted loop ``for var in range(start, stop, step)``.

        The induction variable is declared as an INT local automatically.
        The generated header label starts with ``loop`` and carries the
        regular structure that the trip-count analysis recognises.
        """
        if step == 0:
            raise ValueError("loop step must be non-zero")
        self._pending_else = None
        if all(p.name != var for p in self.params) and var not in self.locals:
            self.locals[var] = Type.INT
        header = self._fresh("loop_header")
        body = self._fresh("loop_body")
        latch = self._fresh("loop_latch")
        exit_ = self._fresh("loop_exit")

        self.assign(var, start)
        self._seal(Jump(header))

        cond = Var(var) < _wrap(stop) if step > 0 else Var(var) > _wrap(stop)
        hdr = BasicBlock(header, terminator=CondBranch(cond, body, exit_))
        self.cfg.add_block(hdr)

        self._open(body)
        self._loop_stack.append(_LoopFrame(header, exit_, latch))
        yield Var(var)
        self._loop_stack.pop()
        if self._current is not None:
            self._seal(Jump(latch))
        latch_blk = BasicBlock(
            latch,
            stmts=[Assign(Var(var), Var(var) + step)],
            terminator=Jump(header),
        )
        self.cfg.add_block(latch_blk)
        self._open(exit_)

    @contextmanager
    def while_(self, cond: object) -> Iterator[None]:
        """``while cond:`` loop with an arbitrary condition expression."""
        self._pending_else = None
        header = self._fresh("while_header")
        body = self._fresh("while_body")
        exit_ = self._fresh("while_exit")
        self._seal(Jump(header))
        hdr = BasicBlock(header, terminator=CondBranch(_wrap(cond), body, exit_))
        self.cfg.add_block(hdr)
        self._open(body)
        self._loop_stack.append(_LoopFrame(header, exit_, header))
        yield
        self._loop_stack.pop()
        if self._current is not None:
            self._seal(Jump(header))
        self._open(exit_)

    def break_(self) -> None:
        if not self._loop_stack:
            raise RuntimeError("break_ outside a loop")
        self._pending_else = None
        self._seal(Jump(self._loop_stack[-1].exit))

    def continue_(self) -> None:
        if not self._loop_stack:
            raise RuntimeError("continue_ outside a loop")
        self._pending_else = None
        self._seal(Jump(self._loop_stack[-1].continue_target))

    # ----------------------------------------------------------------- #

    def build(self) -> Function:
        """Finish the function.  An open block gets an implicit ``return``."""
        if self._loop_stack:
            raise RuntimeError("build() called with an unclosed loop")
        if self._current is not None:
            self._seal(Return(None))
        # Seal stray dead blocks so validation passes.
        for blk in self.cfg.blocks.values():
            if blk.terminator is None:
                blk.terminator = Return(None)
        self.cfg.remove_unreachable()
        return Function(
            name=self.name,
            params=self.params,
            cfg=self.cfg,
            locals=dict(self.locals),
            return_type=self.return_type,
        )
