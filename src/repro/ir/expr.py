"""Expression trees for the reproduction IR.

Expressions are immutable (frozen dataclasses) so they can be shared freely by
optimization passes, hashed for value numbering (GCSE), and compared
structurally.  Every node knows the variables it reads, split into scalar
reads and array reads, which is what the dataflow analyses consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple

__all__ = [
    "Expr",
    "Const",
    "Var",
    "BinOp",
    "UnOp",
    "ArrayRef",
    "Call",
    "BINARY_OPS",
    "UNARY_OPS",
    "INTRINSICS",
    "COMMUTATIVE_OPS",
    "walk",
]

#: Binary operators understood by the executor and the cost model.
BINARY_OPS = frozenset(
    {
        "+", "-", "*", "/", "//", "%",
        "<", "<=", ">", ">=", "==", "!=",
        "&&", "||",
        "min", "max",
        "<<", ">>", "&", "|", "^",
    }
)

#: Unary operators.
UNARY_OPS = frozenset({"-", "!", "abs", "~"})

#: Intrinsic calls (pure math functions the executor implements natively).
INTRINSICS = frozenset({"sqrt", "exp", "log", "sin", "cos", "floor", "int", "float"})

#: Operators for which ``a op b == b op a`` (used by CSE canonicalisation).
COMMUTATIVE_OPS = frozenset({"+", "*", "==", "!=", "&&", "||", "min", "max", "&", "|", "^"})


def _wrap(value: object) -> "Expr":
    """Coerce plain Python numbers/bools into ``Const`` nodes."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, bool)):
        return Const(value)
    raise TypeError(f"cannot use {value!r} as an IR expression")


@dataclass(frozen=True)
class Expr:
    """Base class of all expression nodes.

    Arithmetic and comparison operators are overloaded to make workload
    construction readable (``Var("i") + 1`` instead of nested ``BinOp``
    calls).  ``==``/``!=`` keep their structural-equality meaning — use
    :func:`repro.ir.builder.eq` / ``ne`` to build equality comparisons.
    """

    # -- operator sugar -------------------------------------------------- #
    def __add__(self, other: object) -> "Expr":
        return BinOp("+", self, _wrap(other))

    def __radd__(self, other: object) -> "Expr":
        return BinOp("+", _wrap(other), self)

    def __sub__(self, other: object) -> "Expr":
        return BinOp("-", self, _wrap(other))

    def __rsub__(self, other: object) -> "Expr":
        return BinOp("-", _wrap(other), self)

    def __mul__(self, other: object) -> "Expr":
        return BinOp("*", self, _wrap(other))

    def __rmul__(self, other: object) -> "Expr":
        return BinOp("*", _wrap(other), self)

    def __truediv__(self, other: object) -> "Expr":
        return BinOp("/", self, _wrap(other))

    def __rtruediv__(self, other: object) -> "Expr":
        return BinOp("/", _wrap(other), self)

    def __floordiv__(self, other: object) -> "Expr":
        return BinOp("//", self, _wrap(other))

    def __rfloordiv__(self, other: object) -> "Expr":
        return BinOp("//", _wrap(other), self)

    def __mod__(self, other: object) -> "Expr":
        return BinOp("%", self, _wrap(other))

    def __rmod__(self, other: object) -> "Expr":
        return BinOp("%", _wrap(other), self)

    def __lshift__(self, other: object) -> "Expr":
        return BinOp("<<", self, _wrap(other))

    def __rshift__(self, other: object) -> "Expr":
        return BinOp(">>", self, _wrap(other))

    def __and__(self, other: object) -> "Expr":
        return BinOp("&", self, _wrap(other))

    def __or__(self, other: object) -> "Expr":
        return BinOp("|", self, _wrap(other))

    def __xor__(self, other: object) -> "Expr":
        return BinOp("^", self, _wrap(other))

    def __lt__(self, other: object) -> "Expr":
        return BinOp("<", self, _wrap(other))

    def __le__(self, other: object) -> "Expr":
        return BinOp("<=", self, _wrap(other))

    def __gt__(self, other: object) -> "Expr":
        return BinOp(">", self, _wrap(other))

    def __ge__(self, other: object) -> "Expr":
        return BinOp(">=", self, _wrap(other))

    def __neg__(self) -> "Expr":
        return UnOp("-", self)

    # -- analysis helpers ------------------------------------------------ #
    def scalar_reads(self) -> frozenset[str]:
        """Names of scalar variables read by this expression."""
        return frozenset(n for n, kind in self._reads() if kind == "scalar")

    def array_reads(self) -> frozenset[str]:
        """Names of array variables read (indexed) by this expression."""
        return frozenset(n for n, kind in self._reads() if kind == "array")

    def reads(self) -> frozenset[str]:
        """All variable names read by this expression (scalar and array)."""
        return frozenset(n for n, _ in self._reads())

    def _reads(self) -> Iterator[Tuple[str, str]]:
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        """Immediate sub-expressions."""
        return ()


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant (int, float, or bool)."""

    value: object

    def _reads(self) -> Iterator[Tuple[str, str]]:
        return iter(())

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    """A read of a scalar variable (or of a whole-array handle)."""

    name: str

    def _reads(self) -> Iterator[Tuple[str, str]]:
        yield (self.name, "scalar")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation ``left op right``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    def _reads(self) -> Iterator[Tuple[str, str]]:
        yield from self.left._reads()
        yield from self.right._reads()

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation ``op operand``."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {self.op!r}")

    def _reads(self) -> Iterator[Tuple[str, str]]:
        yield from self.operand._reads()

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class ArrayRef(Expr):
    """An indexed array read ``array[index]`` (1-D; 2-D is flattened)."""

    array: str
    index: Expr

    def _reads(self) -> Iterator[Tuple[str, str]]:
        yield (self.array, "array")
        yield from self.index._reads()

    def children(self) -> tuple[Expr, ...]:
        return (self.index,)

    def __str__(self) -> str:
        return f"{self.array}[{self.index}]"


@dataclass(frozen=True)
class Call(Expr):
    """A call to a pure intrinsic (``sqrt``, ``exp``, ...)."""

    fn: str
    args: tuple[Expr, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.fn not in INTRINSICS:
            raise ValueError(f"unknown intrinsic {self.fn!r}")
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    def _reads(self) -> Iterator[Tuple[str, str]]:
        for a in self.args:
            yield from a._reads()

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.fn}({', '.join(map(str, self.args))})"


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield *expr* and every sub-expression, pre-order."""
    yield expr
    for child in expr.children():
        yield from walk(child)
