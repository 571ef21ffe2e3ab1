"""The reproduction IR: a small CFG-based intermediate representation.

This package is the substrate under everything else: workloads are written in
this IR, the simulated compiler transforms it, the analyses in
:mod:`repro.analysis` reason about it, and the simulated machine in
:mod:`repro.machine` executes it while accounting cycles.
"""

from .block import BasicBlock
from .builder import (
    FunctionBuilder,
    and_,
    eq,
    max_,
    min_,
    ne,
    not_,
    or_,
    sqrt,
    to_float,
    to_int,
)
from .cfg import CFG
from .expr import ArrayRef, BinOp, Call, Const, Expr, UnOp, Var, walk
from .function import Function, Param, Program
from .stmt import Assign, CondBranch, Jump, Return, Stmt, Terminator
from .types import Type, element_type, is_array, is_scalar
from .validate import IRValidationError, validate_function, validate_program

__all__ = [
    "ArrayRef",
    "Assign",
    "BasicBlock",
    "BinOp",
    "CFG",
    "Call",
    "CondBranch",
    "Const",
    "Expr",
    "Function",
    "FunctionBuilder",
    "IRValidationError",
    "Jump",
    "Param",
    "Program",
    "Return",
    "Stmt",
    "Terminator",
    "Type",
    "UnOp",
    "Var",
    "and_",
    "element_type",
    "eq",
    "is_array",
    "is_scalar",
    "max_",
    "min_",
    "ne",
    "not_",
    "or_",
    "sqrt",
    "to_float",
    "to_int",
    "validate_function",
    "validate_program",
    "walk",
]
