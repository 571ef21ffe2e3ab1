"""Statements and block terminators for the reproduction IR.

A basic block holds a list of straight-line statements followed by exactly one
terminator.  Statements are *mutable only by replacement*: passes build new
statement objects rather than mutating in place, which keeps analyses that
cache statement identity sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .expr import ArrayRef, Expr, Var

__all__ = [
    "Stmt",
    "Assign",
    "Terminator",
    "Jump",
    "CondBranch",
    "Return",
]


@dataclass(frozen=True)
class Stmt:
    """Base class of straight-line statements."""

    def uses(self) -> frozenset[str]:
        """All variable names read by the statement."""
        raise NotImplementedError

    def scalar_uses(self) -> frozenset[str]:
        """Scalar variable names read by the statement."""
        raise NotImplementedError

    def defs(self) -> frozenset[str]:
        """Variable names (possibly) written by the statement.

        An assignment through ``ArrayRef`` *defines* the array name in the
        may-def sense used by ``Def(TS)`` in the paper (Eq. 6).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Assign(Stmt):
    """``target = expr`` where target is a scalar ``Var`` or an ``ArrayRef``."""

    target: Union[Var, ArrayRef]
    expr: Expr

    def uses(self) -> frozenset[str]:
        used = self.expr.reads()
        if isinstance(self.target, ArrayRef):
            # The index of a store is read; the stored-to array is also a
            # *use* in the may-alias sense (partial update keeps old values).
            used = used | self.target.index.reads() | frozenset({self.target.array})
        return used

    def scalar_uses(self) -> frozenset[str]:
        used = self.expr.scalar_reads()
        if isinstance(self.target, ArrayRef):
            used = used | self.target.index.scalar_reads()
        return used

    def defs(self) -> frozenset[str]:
        if isinstance(self.target, ArrayRef):
            return frozenset({self.target.array})
        return frozenset({self.target.name})

    def is_scalar_def(self) -> bool:
        """True when the target is a plain scalar variable (a *kill*)."""
        return isinstance(self.target, Var)

    def __str__(self) -> str:
        return f"{self.target} = {self.expr}"


@dataclass(frozen=True)
class Terminator:
    """Base class of block terminators."""

    def uses(self) -> frozenset[str]:
        return frozenset()

    def scalar_uses(self) -> frozenset[str]:
        return frozenset()

    def targets(self) -> tuple[str, ...]:
        """Labels of possible successor blocks."""
        return ()


@dataclass(frozen=True)
class Jump(Terminator):
    """Unconditional jump to *target*."""

    target: str

    def targets(self) -> tuple[str, ...]:
        return (self.target,)

    def __str__(self) -> str:
        return f"jump {self.target}"


@dataclass(frozen=True)
class CondBranch(Terminator):
    """Two-way branch on *cond* — the IR's only control statement form."""

    cond: Expr
    then: str
    orelse: str

    def uses(self) -> frozenset[str]:
        return self.cond.reads()

    def scalar_uses(self) -> frozenset[str]:
        return self.cond.scalar_reads()

    def targets(self) -> tuple[str, ...]:
        return (self.then, self.orelse)

    def __str__(self) -> str:
        return f"if {self.cond} then {self.then} else {self.orelse}"


@dataclass(frozen=True)
class Return(Terminator):
    """Return from the function, optionally with a value."""

    value: Expr | None = None

    def uses(self) -> frozenset[str]:
        return self.value.reads() if self.value is not None else frozenset()

    def scalar_uses(self) -> frozenset[str]:
        return self.value.scalar_reads() if self.value is not None else frozenset()

    def __str__(self) -> str:
        return f"return {self.value}" if self.value is not None else "return"
