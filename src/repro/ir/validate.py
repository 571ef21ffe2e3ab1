"""IR validation.

``validate_function`` checks the structural invariants every pass must
preserve; the compiler pipeline runs it after each pass in checked builds,
and the property-based tests drive random programs through it.
"""

from __future__ import annotations

from .expr import ArrayRef, Var, walk
from .function import Function, Program
from .stmt import Assign, CondBranch, Jump, Return
from .types import is_array, is_scalar

__all__ = ["IRValidationError", "validate_function", "validate_program"]


class IRValidationError(Exception):
    """Raised when an IR structure violates an invariant."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise IRValidationError(msg)


def validate_function(fn: Function) -> None:
    """Validate structural invariants of *fn*.

    Checks: entry exists; every block has a terminator; every branch target
    exists; at least one reachable return; every variable mentioned is a
    parameter or a declared local; scalar/array usage matches declarations;
    no parameter/local name clashes.
    """
    cfg = fn.cfg
    _check(cfg.entry in cfg.blocks, f"{fn.name}: entry block {cfg.entry!r} missing")

    names = [p.name for p in fn.params]
    _check(len(names) == len(set(names)), f"{fn.name}: duplicate parameter names")
    clash = set(names) & set(fn.locals)
    _check(not clash, f"{fn.name}: locals shadow parameters: {sorted(clash)}")

    types = fn.all_vars()

    def check_expr(e, where: str) -> None:
        for node in walk(e):
            if isinstance(node, Var):
                _check(
                    node.name in types,
                    f"{fn.name}/{where}: undeclared variable {node.name!r}",
                )
            elif isinstance(node, ArrayRef):
                _check(
                    node.array in types,
                    f"{fn.name}/{where}: undeclared array {node.array!r}",
                )
                _check(
                    is_array(types[node.array]),
                    f"{fn.name}/{where}: {node.array!r} indexed but not an array",
                )

    reachable = cfg.reachable()
    saw_return = False
    for label, blk in cfg.blocks.items():
        _check(blk.label == label, f"{fn.name}: block key {label!r} != label {blk.label!r}")
        _check(
            blk.terminator is not None, f"{fn.name}: block {label!r} lacks a terminator"
        )
        for s in blk.stmts:
            if isinstance(s, Assign):
                check_expr(s.expr, label)
                if isinstance(s.target, ArrayRef):
                    check_expr(s.target.index, label)
                    _check(
                        s.target.array in types and is_array(types[s.target.array]),
                        f"{fn.name}/{label}: store to non-array {s.target.array!r}",
                    )
                else:
                    _check(
                        s.target.name in types,
                        f"{fn.name}/{label}: store to undeclared {s.target.name!r}",
                    )
                    _check(
                        is_scalar(types[s.target.name]),
                        f"{fn.name}/{label}: scalar store to non-scalar "
                        f"{s.target.name!r}",
                    )
            else:  # pragma: no cover - no other statement kinds exist
                raise IRValidationError(f"{fn.name}/{label}: unknown statement {s!r}")

        t = blk.terminator
        if isinstance(t, (Jump,)):
            for tgt in t.targets():
                _check(
                    tgt in cfg.blocks,
                    f"{fn.name}/{label}: jump to missing block {tgt!r}",
                )
        elif isinstance(t, CondBranch):
            check_expr(t.cond, label)
            for tgt in t.targets():
                _check(
                    tgt in cfg.blocks,
                    f"{fn.name}/{label}: branch to missing block {tgt!r}",
                )
        elif isinstance(t, Return):
            if t.value is not None:
                check_expr(t.value, label)
            if label in reachable:
                saw_return = True
        else:  # pragma: no cover
            raise IRValidationError(f"{fn.name}/{label}: unknown terminator {t!r}")

    _check(saw_return, f"{fn.name}: no reachable return")


def validate_program(prog: Program) -> None:
    """Validate every function in *prog*."""
    for fn in prog.functions.values():
        validate_function(fn)
