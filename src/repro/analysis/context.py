"""Context-variable analysis — the paper's Fig. 1 algorithm.

Determines whether CBR applies to a tuning section and, if so, which input
variables form its *context* (the values that determine the TS's workload).

The algorithm walks every control statement (``CondBranch`` terminators in
our IR — loop headers and if-conditions alike), and for each variable used
there follows its use-def chains backwards.  Whenever a chain reaches the
function entry, the corresponding input must be *scalar* for CBR to apply;
three things count as scalar (Section 2.2):

1. plain scalar variables;
2. array references with constant subscripts (of arrays the TS never
   writes) — modelled as pseudo context variables ``a[3]``;
3. references through pointers that are not changed within the TS (checked
   against the simple points-to analysis).

If any control-influencing value flows from a non-scalar source (an array
read with a non-constant subscript, a whole-array value), the analysis
reports CBR inapplicable with a human-readable reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..ir.expr import ArrayRef, Const, Var, walk
from ..ir.function import Function
from ..ir.stmt import CondBranch
from ..ir.types import Type, is_array, is_scalar
from .defs import def_set
from .pointsto import PointsToResult, points_to
from .usedef import ReachingDefs

__all__ = ["ContextVarSpec", "ContextAnalysis", "analyze_context", "context_key"]


@dataclass(frozen=True, order=True)
class ContextVarSpec:
    """One context variable: a scalar input, or a fixed array/pointer element."""

    var: str
    #: element index for pseudo-scalars like ``a[3]``; None for plain scalars
    index: int | None = None

    @property
    def display(self) -> str:
        return self.var if self.index is None else f"{self.var}[{self.index}]"

    def extract(self, inputs: Mapping[str, object]) -> object:
        """Read this context variable's value from an invocation's inputs."""
        value = inputs[self.var]
        if self.index is None:
            return value
        return value[self.index]  # type: ignore[index]


@dataclass
class ContextAnalysis:
    """Result of the Fig. 1 analysis for one tuning section."""

    applicable: bool
    context_vars: tuple[ContextVarSpec, ...] = ()
    reason: str = ""

    def without(self, constants: frozenset[str]) -> "ContextAnalysis":
        """Drop run-time-constant variables (Fig. 1's final step)."""
        if not self.applicable:
            return self
        kept = tuple(v for v in self.context_vars if v.display not in constants)
        return ContextAnalysis(True, kept, self.reason)


def context_key(
    analysis: ContextAnalysis, inputs: Mapping[str, object]
) -> tuple[object, ...]:
    """The context of one invocation: the tuple of context-variable values."""
    if not analysis.applicable:
        raise ValueError("context_key on a TS where CBR is inapplicable")
    return tuple(spec.extract(inputs) for spec in analysis.context_vars)


class _Tracer:
    """Implements GetContextSet / GetStmtContextSet from Fig. 1."""

    def __init__(self, fn: Function, pts: PointsToResult) -> None:
        self.fn = fn
        self.pts = pts
        self.rd = ReachingDefs(fn)
        self.types = fn.all_vars()
        self.params = {p.name for p in fn.params}
        self.modified = def_set(fn)
        self.context: set[ContextVarSpec] = set()
        self.done: set[tuple[str, str, int]] = set()  # (var, label, index)
        self.failure: str | None = None

    # -- the "scalar" test of Section 2.2 -------------------------------- #

    def _element_is_scalar(self, ref: ArrayRef) -> ContextVarSpec | None:
        """Return a pseudo context var for ``ref`` when it counts as scalar."""
        if not isinstance(ref.index, Const):
            return None
        base_type = self.types.get(ref.array)
        if base_type is Type.PTR:
            # reference through a pointer: ok when the pointer is stable
            if not self.pts.is_stable(ref.array):
                return None
        elif base_type is None or not is_array(base_type):
            return None
        # The referenced storage must not be written by the TS, otherwise its
        # value is not a property of the invocation's input context.
        if ref.array in self.modified:
            return None
        if ref.array not in self.params:
            return None
        return ContextVarSpec(ref.array, int(ref.index.value))

    # -- expression-level tracing ---------------------------------------- #

    def trace_expr(self, expr, label: str, index: int) -> bool:
        """Trace every value read by *expr* at (*label*, *index*).

        Returns False (and records a reason) when a non-scalar source is hit.
        """
        for node in walk(expr):
            if isinstance(node, ArrayRef):
                spec = self._element_is_scalar(node)
                if spec is not None:
                    self.context.add(spec)
                    # still trace the (constant) index: nothing to do
                    continue
                self.failure = (
                    f"value flows from array reference {node.array}"
                    f"[{node.index}] with non-constant subscript or "
                    "modified/unstable base"
                )
                return False
            if isinstance(node, Var):
                t = self.types.get(node.name)
                if t is not None and is_array(t):
                    self.failure = f"whole-array value {node.name!r} influences control"
                    return False
                if not self.trace_var(node.name, label, index):
                    return False
        return True

    # -- GetStmtContextSet ------------------------------------------------ #

    def trace_var(self, var: str, label: str, index: int) -> bool:
        key = (var, label, index)
        if key in self.done:  # "avoid loop" marking from Fig. 1
            return True
        self.done.add(key)

        chain = self.rd.ud_chain(var, label, index)
        if not chain:
            # an uninitialised local: its value is a constant (0) — not a
            # context variable and not a failure
            return True
        for site in sorted(chain):
            if site.is_entry:
                t = self.types[var]
                if is_scalar(t) or t is Type.PTR:
                    # PTR compared/used directly behaves like a scalar handle
                    self.context.add(ContextVarSpec(var))
                    continue
                self.failure = f"non-scalar input {var!r} influences control"
                return False
            stmt = self.rd.statement_at(site)
            if isinstance(stmt.target, ArrayRef):
                # a may-def of an array reached a scalar trace; this can only
                # happen for pointer/array names, which are handled at use
                # sites — skip.
                continue
            if not self.trace_expr(stmt.expr, site.label, site.index):
                return False
        return True

    # -- GetContextSet ------------------------------------------------------ #

    def run(self) -> ContextAnalysis:
        cfg = self.fn.cfg
        for label in cfg.rpo():
            term = cfg.blocks[label].terminator
            if not isinstance(term, CondBranch):
                continue
            if not self.trace_expr(term.cond, label, len(cfg.blocks[label].stmts)):
                return ContextAnalysis(False, (), self.failure or "non-scalar context")
        ordered = tuple(sorted(self.context))
        return ContextAnalysis(True, ordered, "")


def analyze_context(
    fn: Function,
    *,
    pointer_seeds: dict[str, frozenset[str]] | None = None,
) -> ContextAnalysis:
    """Run the Fig. 1 context-variable analysis on tuning section *fn*."""
    pts = points_to(fn, seeds=pointer_seeds)
    return _Tracer(fn, pts).run()
