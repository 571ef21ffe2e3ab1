"""The timing executor: interprets IR with cycle accounting.

The executor plays the role of the paper's hardware platform.  It

* *computes real values* — branches, trip counts, array contents and
  pointer aliases all behave exactly as written, so the compiler analyses
  and RBR's save/restore machinery are exercised honestly; and
* *accounts simulated cycles* — per-block static compute costs (computed at
  compile time from the machine's cost table and scaled by the optimizing
  compiler's effect model), plus dynamic terms: cache hits/misses from the
  set-associative cache simulator, branch mispredictions from a 1-bit
  last-direction predictor, and register-spill traffic.

Expressions are compiled to Python closures once per version ("code
generation"), on the version's first interpreted frame; the hot interpreter
loop then only dispatches closures.

**Value representation.**  A ``FLOAT_ARRAY`` reaches the machine as a
Python ``list`` of ``float`` (:func:`unbox` converts a 1-D ``float64``
ndarray at the input boundaries), so an element read is a list index and
the arithmetic after it is plain float arithmetic, not numpy-scalar
arithmetic.  Every store into a float array whose value is not statically
FLOAT is wrapped in ``float(...)``, so an element is always a ``float``,
as it would be in a ``float64`` array.  ``INT_ARRAY`` stays a numpy
``int64`` array: its wraparound on overflow is observable.  The machine
accepts ndarrays for float arrays too (an input shared across invocations
is handed out as it is), with the same values.

With a Python float, division or modulo by a zero element raises
``ZeroDivisionError``, which becomes an :class:`ExecutionError`, where a
numpy scalar returned inf or NaN with a warning.  Every runtime error of
the IR program (:data:`RUNTIME_ERRORS`) surfaces as an ``ExecutionError``
at both tiers.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import AbstractSet as Set, Callable, Mapping

import numpy as np

from ..ir.expr import ArrayRef, BinOp, Call, Const, Expr, UnOp, Var
from ..ir.function import Function
from ..ir.stmt import Assign, CallStmt, CondBranch, Jump, Return
from ..ir.types import Type
from ..store import Store
from .cache import AddressMap, CacheSim
from .config import MachineConfig
from .cost import block_static_costs, infer_type
from .oblivious import oblivious_reason

__all__ = [
    "CostFactors",
    "CompiledBlock",
    "ExecutableFunction",
    "InputFacts",
    "Inputs",
    "InvocationResult",
    "Executor",
    "MachineState",
    "REPLAY_MEMO_MAX",
    "compile_function",
    "env_of",
    "input_facts",
    "ExecutionError",
    "RUNTIME_ERRORS",
    "unbox",
]


class ExecutionError(Exception):
    """Raised when IR execution fails (bad index, division by zero, ...)."""


#: exceptions of a running IR program that become an ExecutionError: a bad
#: subscript (out of range, a NaN, a non-integer into a list), division by
#: zero, overflow.  A well-typed program raises no TypeError, only an
#: ill-typed one (a float held in an INT subscript) does; but a TypeError
#: from a bug in the executor or in Tier 1's generated code is reported the
#: same way, so the differential suites assert that none occurs.
RUNTIME_ERRORS = (
    KeyError, IndexError, ValueError, TypeError, ZeroDivisionError, OverflowError,
)


def is_float_vector(value: object) -> bool:
    """Whether :func:`unbox` binds *value* as a list."""
    return (
        type(value) is np.ndarray and value.dtype == np.float64 and value.ndim == 1
    )


def unbox(env: dict) -> dict:
    """*env* with every 1-D ``float64`` ndarray bound as a list of floats.

    An array bound to several names becomes one list.  Other values,
    ``int64`` arrays included, are bound as they are.
    """
    lists: dict[int, list] = {}
    out = {}
    for name, value in env.items():
        if is_float_vector(value):
            lst = lists.get(id(value))
            if lst is None:
                lst = lists[id(value)] = value.tolist()
            value = lst
        out[name] = value
    return out


# --------------------------------------------------------------------------- #
# expression compilation


_BIN_FUNS: dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "//": lambda a, b: a // b,
    "%": lambda a, b: a % b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "min": lambda a, b: a if a < b else b,
    "max": lambda a, b: a if a > b else b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
}

_INTRINSICS: dict[str, Callable] = {
    "sqrt": lambda a: float(np.sqrt(a)),
    "exp": lambda a: float(np.exp(a)),
    "log": lambda a: float(np.log(a)),
    "sin": lambda a: float(np.sin(a)),
    "cos": lambda a: float(np.cos(a)),
    "floor": lambda a: float(np.floor(a)),
    "int": lambda a: int(a),
    "float": lambda a: float(a),
}


def compile_expr(expr: Expr, types: dict[str, Type]) -> Callable:
    """Compile *expr* to a closure ``f(env, mem) -> value``.

    ``mem`` is a list collecting ``(array_name, index)`` tuples for every
    array element touched, which the executor converts to addresses and runs
    through the cache simulator.
    """
    if isinstance(expr, Const):
        v = expr.value
        return lambda env, mem, v=v: v
    if isinstance(expr, Var):
        name = expr.name
        return lambda env, mem, name=name: env[name]
    if isinstance(expr, ArrayRef):
        idx_fn = compile_expr(expr.index, types)
        name = expr.array
        if infer_type(expr.index, types) is Type.FLOAT:
            def read_f(env, mem, name=name, idx_fn=idx_fn):
                i = int(idx_fn(env, mem))
                mem.append((name, i))
                return env[name][i]
            return read_f

        def read(env, mem, name=name, idx_fn=idx_fn):
            i = idx_fn(env, mem)
            mem.append((name, i))
            return env[name][i]
        return read
    if isinstance(expr, UnOp):
        sub = compile_expr(expr.operand, types)
        if expr.op == "-":
            return lambda env, mem, sub=sub: -sub(env, mem)
        if expr.op == "!":
            return lambda env, mem, sub=sub: not sub(env, mem)
        if expr.op == "abs":
            return lambda env, mem, sub=sub: abs(sub(env, mem))
        if expr.op == "~":
            return lambda env, mem, sub=sub: ~sub(env, mem)
        raise ExecutionError(f"unknown unary op {expr.op}")  # pragma: no cover
    if isinstance(expr, BinOp):
        left = compile_expr(expr.left, types)
        right = compile_expr(expr.right, types)
        if expr.op == "&&":
            return lambda env, mem, l=left, r=right: bool(l(env, mem)) and bool(
                r(env, mem)
            )
        if expr.op == "||":
            return lambda env, mem, l=left, r=right: bool(l(env, mem)) or bool(
                r(env, mem)
            )
        op = _BIN_FUNS[expr.op]
        return lambda env, mem, l=left, r=right, op=op: op(l(env, mem), r(env, mem))
    if isinstance(expr, Call):
        fns = [compile_expr(a, types) for a in expr.args]
        intr = _INTRINSICS[expr.fn]
        if len(fns) == 1:
            f0 = fns[0]
            return lambda env, mem, f0=f0, intr=intr: intr(f0(env, mem))
        return lambda env, mem, fns=fns, intr=intr: intr(
            *(f(env, mem) for f in fns)
        )
    raise ExecutionError(f"cannot compile {expr!r}")  # pragma: no cover


# --------------------------------------------------------------------------- #
# statement and block compilation


class _CallStep:
    """A call site; executed by the executor (needs callee dispatch)."""

    __slots__ = ("fn", "arg_fns", "arg_exprs", "target")

    def __init__(self, stmt: CallStmt, types: dict[str, Type]) -> None:
        self.fn = stmt.fn
        self.arg_fns = [compile_expr(a, types) for a in stmt.args]
        self.arg_exprs = stmt.args
        self.target = stmt.target.name if stmt.target is not None else None


def needs_float_conversion(stmt: Assign, types: dict[str, Type]) -> bool:
    """Whether the array store *stmt* wraps its value in ``float(...)``: a
    float array receives a value that is not statically FLOAT."""
    return (
        types.get(stmt.target.array) is Type.FLOAT_ARRAY
        and infer_type(stmt.expr, types) is not Type.FLOAT
    )


def _compile_stmt(stmt, types: dict[str, Type]):
    if isinstance(stmt, Assign):
        value_fn = compile_expr(stmt.expr, types)
        if isinstance(stmt.target, ArrayRef):
            if needs_float_conversion(stmt, types):
                value_fn = lambda env, mem, f=value_fn: float(f(env, mem))
            idx_fn = compile_expr(stmt.target.index, types)
            name = stmt.target.array
            if infer_type(stmt.target.index, types) is Type.FLOAT:
                def store_f(env, mem, name=name, idx_fn=idx_fn, value_fn=value_fn):
                    i = int(idx_fn(env, mem))
                    mem.append((name, i))
                    env[name][i] = value_fn(env, mem)
                return store_f

            def store(env, mem, name=name, idx_fn=idx_fn, value_fn=value_fn):
                i = idx_fn(env, mem)
                mem.append((name, i))
                env[name][i] = value_fn(env, mem)
            return store
        name = stmt.target.name

        def assign(env, mem, name=name, value_fn=value_fn):
            env[name] = value_fn(env, mem)
        return assign
    if isinstance(stmt, CallStmt):
        return _CallStep(stmt, types)
    raise ExecutionError(f"cannot compile statement {stmt!r}")  # pragma: no cover


_RETURN = "<return>"


@dataclass
class CompiledBlock:
    """One basic block: its static cost, what dispatch needs to know about
    it, and its closures once built (:meth:`ExecutableFunction.build_closures`)."""

    label: str
    has_calls: bool
    compute_cycles: float
    spill_cycles: float = 0.0
    is_branch: bool = False
    #: interned branch-predictor key ``(fn_name, label)`` (branch blocks only)
    branch_key: tuple[str, str] | None = None
    #: interned block-count key for nested (callee) frames: ``fn::label``
    qual_key: str = ""
    steps: list | None = None
    #: terminator closure: returns (next_label, taken_flag_or_None)
    term: Callable | None = None


@dataclass
class ExecutableFunction:
    """A compiled function ready for execution and timing."""

    name: str
    entry: str
    blocks: dict[str, CompiledBlock]
    source: Function
    param_names: tuple[str, ...]
    local_defaults: dict[str, object]
    #: resolved callees for CallStmt dispatch
    callees: dict[str, "ExecutableFunction"] = field(default_factory=dict)
    _count_keys: tuple[str, ...] | None = field(
        default=None, repr=False, compare=False
    )
    #: ``(oblivious_reason,)`` once computed
    _oblivious: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: digest of the rendered IR once computed (:meth:`ir_digest`)
    _ir_digest: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: whether the blocks' closures are built
    _closures: bool = field(default=False, init=False, repr=False, compare=False)
    #: ``param_names`` as a set (the parameter check of :meth:`Executor.run`)
    param_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.param_set = frozenset(self.param_names)

    def ir_digest(self) -> bytes:
        """Digest of the rendered IR (parameter and local types included),
        computed once per executable."""
        digest = self._ir_digest
        if digest is None:
            digest = self._ir_digest = hashlib.sha256(str(self.source).encode()).digest()
        return digest

    def count_keys(self) -> tuple[str, ...]:
        """Every block-count key one invocation can touch.

        Own blocks count under their bare label (depth 0); blocks of every
        transitively reachable callee count under ``fn::label``.  ``run``
        pre-seeds the counts dict with these so the key set is identical
        across invocations regardless of which calls actually execute.
        """
        if self._count_keys is None:
            keys = list(self.blocks)
            seen: set[str] = set()
            stack = list(self.callees.values())
            while stack:
                callee = stack.pop()
                if callee.name in seen:
                    continue
                seen.add(callee.name)
                keys.extend(b.qual_key for b in callee.blocks.values())
                stack.extend(callee.callees.values())
            self._count_keys = tuple(keys)
        return self._count_keys

    def build_closures(self) -> None:
        """Build every block's ``steps`` and ``term``.

        Only the Tier-0 dispatch loop needs them: every frame Tier 1
        declines runs there, and so does the rest of a frame its
        step-budget guard hands back, so they are built on first use rather
        than by :func:`compile_function`.  Threads that race here build
        equal closures; the flag is set after every block has its own, so
        a reader that sees it finds them all.
        """
        if self._closures:
            return
        types = self.source.all_vars()
        for label, blk in self.source.cfg.blocks.items():
            cb = self.blocks[label]
            cb.steps = [_compile_stmt(s, types) for s in blk.stmts]
            cb.term = _compile_terminator(blk.terminator, types)
        self._closures = True


def _compile_terminator(term, types):
    if isinstance(term, Jump):
        target = term.target
        return lambda env, mem, target=target: (target, None)
    if isinstance(term, CondBranch):
        cond = compile_expr(term.cond, types)
        then, orelse = term.then, term.orelse

        def branch(env, mem, cond=cond, then=then, orelse=orelse):
            taken = bool(cond(env, mem))
            return (then if taken else orelse, taken)
        return branch
    if isinstance(term, Return):
        if term.value is None:
            return lambda env, mem: (_RETURN, None)
        value = compile_expr(term.value, types)

        def ret(env, mem, value=value):
            env["<ret>"] = value(env, mem)
            return (_RETURN, None)
        return ret
    raise ExecutionError(f"cannot compile terminator {term!r}")  # pragma: no cover


def compile_function(
    fn: Function,
    machine: MachineConfig,
    *,
    block_compute_cycles: dict[str, float] | None = None,
    block_spill_cycles: dict[str, float] | None = None,
    callees: dict[str, "ExecutableFunction"] | None = None,
) -> ExecutableFunction:
    """Compile *fn* for *machine*.

    *block_compute_cycles* / *block_spill_cycles* override the default static
    costs — this is the hook through which the optimizing compiler's effect
    model prices each version's blocks.  Only blocks the override lacks
    are priced by :func:`block_static_costs`.  The blocks' closures are
    built on first use (:meth:`ExecutableFunction.build_closures`).
    """
    compute = dict(block_compute_cycles or {})
    missing = [label for label in fn.cfg.blocks if label not in compute]
    if missing:
        for label, cost in block_static_costs(fn, machine.cost, missing).items():
            compute[label] = cost.compute_cycles
    blocks: dict[str, CompiledBlock] = {}
    for label, blk in fn.cfg.blocks.items():
        is_branch = isinstance(blk.terminator, CondBranch)
        blocks[label] = CompiledBlock(
            label=label,
            has_calls=any(isinstance(s, CallStmt) for s in blk.stmts),
            compute_cycles=compute[label],
            spill_cycles=(
                block_spill_cycles.get(label, 0.0) if block_spill_cycles else 0.0
            ),
            is_branch=is_branch,
            branch_key=(fn.name, label) if is_branch else None,
            qual_key=f"{fn.name}::{label}",
        )
    local_defaults = {
        name: (0.0 if t is Type.FLOAT else 0) for name, t in fn.locals.items()
    }
    return ExecutableFunction(
        name=fn.name,
        entry=fn.cfg.entry,
        blocks=blocks,
        source=fn,
        param_names=tuple(p.name for p in fn.params),
        local_defaults=local_defaults,
        callees=dict(callees or {}),
    )


# --------------------------------------------------------------------------- #
# execution


@dataclass(frozen=True)
class CostFactors:
    """Version-level dynamic cost multipliers set by the flag effect model.

    Its hash is computed once, at construction (it keys every replay
    lookup); a pickled copy computes its own.
    """

    mem: float = 1.0
    branch: float = 1.0

    IDENTITY: "CostFactors" = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.mem, self.branch, self.IDENTITY)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return CostFactors, (self.mem, self.branch, self.IDENTITY)


CostFactors.IDENTITY = CostFactors()


@dataclass
class InvocationResult:
    """Outcome of one TS invocation."""

    cycles: float
    return_value: object = None
    block_counts: dict[str, int] | None = None
    mem_cycles: float = 0.0
    branch_miss_cycles: float = 0.0


@dataclass(frozen=True)
class MachineState:
    """What runs leave behind in the simulated machine, as one value.

    The cache's resident lines (:meth:`CacheSim.contents`), the branch
    predictor table as its keys in table order and their directions, and
    the cache's hit and miss counters.  Immutable and hashable, so a state
    can key a memo.  Equality and the hash cover only what decides the
    cycles of later runs; the counters are statistics and compare equal
    whatever their values.

    The hash is computed once, at construction (a state keys every replay
    lookup).  It covers the predictor's keys, strings whose hashes differ
    between processes, so a pickled state computes its own when loaded.
    """

    ways: bytes
    lines: bytes
    branch_keys: tuple[tuple[str, str], ...]
    branch_taken: bytes
    hits: int = field(compare=False)
    misses: int = field(compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(
            (self.ways, self.lines, self.branch_keys, self.branch_taken)
        ))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return MachineState, (
            self.ways, self.lines, self.branch_keys, self.branch_taken,
            self.hits, self.misses,
        )


#: invocations a replay store holds (a rating operation records at most a
#: few hundred: mgrid's 38-flag WHL tune records 517)
REPLAY_MEMO_MAX = 1024

#: scalar types a replay key holds exactly (floats are keyed by their bits)
_EXACT_SCALARS = (int, bool, np.integer)
_FLOAT_SCALARS = (float, np.float64)


@dataclass(frozen=True, slots=True)
class _Replay:
    """One recorded invocation of *exe* on *machine*: its result, the
    machine state it left (None: the one it found) with the cache sets and
    predictor entries it changed, and its cache counter increments."""

    exe: ExecutableFunction
    machine: MachineConfig
    cycles: float
    mem_cycles: float
    branch_miss_cycles: float
    counts: dict[str, int] | None
    return_value: object
    exit: MachineState | None
    lines: tuple | None
    branches: tuple | None
    hits: int
    misses: int


def _layout_of(names: tuple[str, ...], types: tuple[type, ...]) -> tuple:
    """The layout of an env with these names and value types (see
    :func:`input_facts`)."""
    order = sorted(range(len(names)), key=names.__getitem__)
    arrays = tuple(i for i in order if hasattr(types[i], "__len__"))
    exact: tuple[int, ...] | None = tuple(
        i for i, t in enumerate(types)
        if i not in arrays and issubclass(t, _EXACT_SCALARS)
    )
    floats = tuple(i for i, t in enumerate(types) if t in _FLOAT_SCALARS)
    if len(arrays) + len(exact) + len(floats) != len(names):
        exact = None
    return (
        tuple(names[i] for i in arrays), arrays, exact, floats,
        struct.Struct(f"<{len(floats)}d").pack,
    )


class InputFacts:
    """What an invocation's inputs decide besides their array data.

    * *names*: the env's names, as a set or a dict's keys (the parameter
      check);
    * *sig*: the names in order and the value types;
    * *shape*: what the address map depends on: the arrays' sorted names,
      their lengths and which names share one object (None: none do);
    * *key*: the env's part of the replay key, ``(sig, shape, exact
      scalars, float scalars as packed bits)`` (floats by their bits, so
      -0.0 and NaN payloads stay apart), or None when some scalar cannot
      key a replay;
    * *memo*: what consumers derive from these inputs (CBR's context key),
      None until a consumer adds some.  One object per input position of
      a feed whose replay is not live, so the memo holds per position; a
      plain env gets its own.
    """

    __slots__ = ("names", "sig", "shape", "key", "memo")

    def __init__(
        self, names: Set[str], sig: tuple, shape: tuple, key: tuple | None
    ) -> None:
        self.names = names
        self.sig = sig
        self.shape = shape
        self.key = key
        self.memo: dict | None = None


def input_facts(
    env: dict,
    layouts: dict,
    intern: dict | None = None,
    types: tuple[type, ...] | None = None,
) -> InputFacts:
    """The :class:`InputFacts` of *env*.

    *layouts* memoizes per sig which values are arrays (have ``__len__``),
    their sorted order, the positions of the exact and the float scalars
    and a packer.  With an *intern* table, equal names, sigs and shapes
    are stored once.  *types* (default: the values' own) are the types
    the env's values take when bound: the facts of a copy of *env* whose
    values have those types, the same lengths and the same sharing.
    """
    values = tuple(env.values())
    sig = (tuple(env), tuple(map(type, values)) if types is None else types)
    layout = layouts.get(sig)
    if layout is None:
        layout = layouts[sig] = _layout_of(*sig)
    names, idx, exact, floats, pack = layout
    arrays = [values[i] for i in idx]
    if len({id(a) for a in arrays}) == len(arrays):
        aliases = None
    else:
        canonical: dict[int, str] = {}
        aliases = tuple(
            canonical.setdefault(id(a), name) for name, a in zip(names, arrays)
        )
    shape = (names, tuple(map(len, arrays)), aliases)
    if intern is None:
        name_set: Set[str] = env.keys()
    else:
        sig = intern.setdefault(sig, sig)
        shape = intern.setdefault(shape, shape)
        name_set = frozenset(sig[0])
        name_set = intern.setdefault(name_set, name_set)
    key = None
    if exact is not None:
        key = (
            sig, shape, tuple(map(values.__getitem__, exact)),
            pack(*map(values.__getitem__, floats)),
        )
    return InputFacts(name_set, sig, shape, key)


class Inputs:
    """One invocation's inputs as a feed hands them out.

    *facts* are the :class:`InputFacts`; :attr:`env` is the environment
    itself: *env*, or else ``source.env(pos)``, built on first access (at
    most once), so an invocation that is replayed never builds it.
    :meth:`peek` reads the values without building it.
    :meth:`Executor.run` takes an ``Inputs`` or a plain env.
    """

    __slots__ = ("facts", "_env", "_source", "_pos")

    def __init__(
        self,
        facts: InputFacts,
        env: dict | None = None,
        source: object = None,
        pos: int = 0,
    ) -> None:
        self.facts = facts
        self._env = env
        self._source = source
        self._pos = pos

    @property
    def env(self) -> dict:
        """The environment; the same object on every access."""
        env = self._env
        if env is None:
            env = self._env = self._source.env(self._pos)
        return env

    def peek(self) -> Mapping[str, object]:
        """The inputs' values for reading only: the env once built, else
        ``source.peek(pos)``, which builds no copy."""
        env = self._env
        return env if env is not None else self._source.peek(self._pos)

    def fresh(self) -> "Inputs | None":
        """Another hand-out of the same position, its env not built yet, or
        None when these inputs came with their env (a live replay's).

        Its env equals this one's before any run wrote to it, so it stands
        in for a restore of every input."""
        if self._source is None:
            return None
        return Inputs(self.facts, None, self._source, self._pos)


def env_of(inputs: "Inputs | dict") -> dict:
    """The environment of *inputs*, a handle or a plain env."""
    return inputs.env if isinstance(inputs, Inputs) else inputs


class Executor:
    """Executes compiled functions on a simulated machine.

    The executor owns the *persistent* machine state: the cache contents and
    the branch-predictor table survive across invocations, exactly like the
    real machines whose warm-up behaviour motivates the improved RBR method.
    """

    MAX_STEPS = 50_000_000

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine
        self.cache = CacheSim(
            machine.cache_size,
            machine.cache_line,
            machine.cache_assoc,
            machine.cache_hit_cycles,
            machine.cache_miss_cycles,
        )
        #: 1-bit branch predictor: (fn_name, label) -> last direction
        self.branch_state: dict[tuple[str, str], bool] = {}
        self._amap_cache: dict[tuple, AddressMap] = {}
        #: (env names, value types) -> layout (see :func:`input_facts`)
        self._array_layout: dict[tuple, tuple] = {}
        #: oblivious verdicts by IR (see :func:`oblivious_reason`)
        self._verdicts: dict[tuple, tuple] = {}
        #: blocks completed by the dispatch loop (:meth:`_interpret`)
        self.interpreted_blocks = 0
        #: the machine state (with stale counters) as the last run left it,
        #: when that run was recorded into or replayed from a replay store;
        #: None after any other run, a reset or a restore.  It spares a
        #: replay the entry snapshot, so code that changes ``cache`` or
        #: ``branch_state`` directly must clear it.
        self._known: MachineState | None = None

    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Cold machine: flush cache and predictor state."""
        self.cache.flush()
        self.branch_state.clear()
        self._amap_cache.clear()
        self._known = None

    def machine_state(self) -> MachineState:
        """The cache and predictor state, as :meth:`restore_machine_state`
        takes it."""
        cache = self.cache
        return MachineState(
            *cache.contents(),
            tuple(self.branch_state),
            bytes(self.branch_state.values()),
            cache.hits,
            cache.misses,
        )

    def restore_machine_state(self, state: MachineState) -> None:
        """Put the machine in *state* (in place, counters included)."""
        self._known = None
        cache = self.cache
        cache.restore(state.ways, state.lines)
        cache.hits = state.hits
        cache.misses = state.misses
        self.branch_state.clear()
        self.branch_state.update(zip(state.branch_keys, map(bool, state.branch_taken)))

    def replayable(self, exe: ExecutableFunction) -> bool:
        """Whether :meth:`run` with a replay store may replay invocations of
        *exe* (it is data-oblivious) rather than simulate them."""
        return oblivious_reason(exe, self._verdicts) is None

    def _address_map(self, env: dict[str, object], shape: tuple | None = None) -> AddressMap:
        # a dataset whose invocations all bind same-shaped arrays builds one
        # map
        if shape is None:
            shape = input_facts(env, self._array_layout).shape
        amap = self._amap_cache.get(shape)
        if amap is None:
            amap = AddressMap.for_env(env, line=self.machine.cache_line)
            self._amap_cache[shape] = amap
        return amap

    def run(
        self,
        exe: ExecutableFunction,
        inputs: Inputs | dict[str, object],
        *,
        factors: CostFactors = CostFactors.IDENTITY,
        count_blocks: bool = False,
        replay: Store | None = None,
    ) -> InvocationResult:
        """Execute one invocation of *exe* on *inputs*, an :class:`Inputs`
        handle or a plain env.

        The env must bind every parameter; arrays are mutated in place (the
        caller owns save/restore if it needs the input back).  Locals are
        initialised to zero.  Returns true (noise-free) cycles; measurement
        noise is applied by the timing instrumentation layer on top.

        With a *replay* store, an invocation of a data-oblivious *exe*
        (:func:`~repro.machine.oblivious.oblivious_reason`) whose
        executable, factors, scalars, array shapes and entry machine state
        were recorded before is not simulated: the machine is put in the
        recorded exit state and the recorded result is returned.  Its
        writes to the env's arrays are then skipped, so pass a store only
        when nothing reads them afterwards.  The key's env part is the
        handle's :class:`InputFacts` (a plain env's are derived here by
        :func:`input_facts`), and a handle's env is built only when the
        invocation is simulated.
        """
        if isinstance(inputs, Inputs):
            facts, env = inputs.facts, None
        else:
            facts, env = input_facts(inputs, self._array_layout), inputs
        if not facts.names >= exe.param_set:
            missing = next(p for p in exe.param_names if p not in facts.names)
            raise ExecutionError(f"{exe.name}: missing argument {missing!r}")
        key = None
        if (
            replay is not None
            and facts.key is not None
            and self.replayable(exe)
        ):
            entry = self._known
            if entry is None:
                entry = self.machine_state()
            # the entry holds exe, so its id is not reused while the entry
            # lives
            key = (id(exe), factors, count_blocks, self.MAX_STEPS, facts.key, entry)
            rec = replay.get(key)
            if rec is not None and rec.machine is self.machine:
                return self._replayed(rec, entry)
            hits0, misses0 = self.cache.hits, self.cache.misses
        if env is None:
            env = inputs.env
        self._known = None
        local_env = dict(env)
        local_env.update(exe.local_defaults)

        amap = self._address_map(env, facts.shape)
        counts: dict[str, int] | None = (
            dict.fromkeys(exe.count_keys(), 0) if count_blocks else None
        )
        result = InvocationResult(0.0, block_counts=counts)
        self._run_cfg(exe, local_env, amap, factors, counts, result, depth=0)
        result.return_value = local_env.get("<ret>")
        if key is not None:
            cache = self.cache
            exit_state = self.machine_state()
            if exit_state == entry:
                exit_state = lines = branches = None
            else:
                lines = cache.changes_since(entry.ways, entry.lines)
                before = dict(zip(entry.branch_keys, entry.branch_taken))
                branches = tuple(
                    (k, t) for k, t in self.branch_state.items() if before.get(k) != t
                )
            self._known = exit_state or entry
            replay.put(key, _Replay(
                exe, self.machine, result.cycles, result.mem_cycles, result.branch_miss_cycles,
                dict(counts) if counts is not None else None, result.return_value,
                exit_state, lines, branches, cache.hits - hits0, cache.misses - misses0,
            ))
        return result

    def _replayed(self, rec: "_Replay", entry: MachineState) -> InvocationResult:
        """A recorded invocation's result, with the machine left as it left
        it."""
        cache = self.cache
        cache.hits += rec.hits
        cache.misses += rec.misses
        if rec.exit is None:
            self._known = entry
        else:
            # the machine is in the entry state: change what the run changed
            cache.apply_changes(rec.lines)
            self.branch_state.update(rec.branches)
            self._known = rec.exit
        return InvocationResult(
            rec.cycles, rec.return_value,
            dict(rec.counts) if rec.counts is not None else None,
            rec.mem_cycles, rec.branch_miss_cycles,
        )

    def _run_cfg(
        self,
        exe: ExecutableFunction,
        env: dict[str, object],
        amap: AddressMap,
        factors: CostFactors,
        counts: dict[str, int] | None,
        result: InvocationResult,
        depth: int,
    ) -> None:
        if depth > 32:
            raise ExecutionError("call depth limit exceeded (recursive IR?)")
        self._interpret(
            exe, env, amap, factors, counts, result, depth,
            exe.entry, self.MAX_STEPS, 0.0, 0.0, 0.0,
        )

    def _interpret(
        self,
        exe: ExecutableFunction,
        env: dict[str, object],
        amap: AddressMap,
        factors: CostFactors,
        counts: dict[str, int] | None,
        result: InvocationResult,
        depth: int,
        label: str,
        steps_budget: int,
        cycles: float,
        mem_cycles: float,
        miss_cycles: float,
    ) -> None:
        """The dispatch loop, from *label* with *steps_budget* steps left.

        *cycles*, *mem_cycles* and *miss_cycles* are the frame's local
        accumulators so far (folded into *result* when the frame returns;
        _do_call writes callee contributions into *result* directly).
        Tier 1 resumes here when its step-budget guard fails.
        """
        exe.build_closures()
        blocks = exe.blocks
        cache_access = self.cache.access
        elem = AddressMap.ELEM_SIZE
        bases = amap.bases
        branch_state = self.branch_state
        miss_cost = self.machine.branch_miss_cycles * factors.branch
        mem_factor = factors.mem

        mem: list = []
        budget0 = steps_budget
        try:
            while label != _RETURN:
                blk = blocks[label]
                if counts is not None:
                    counts[blk.label if depth == 0 else blk.qual_key] += 1
                cycles += blk.compute_cycles + blk.spill_cycles

                try:
                    if blk.has_calls:
                        for step in blk.steps:
                            if type(step) is _CallStep:
                                self._do_call(
                                    step, exe, env, amap, factors, counts, result, depth
                                )
                            else:
                                step(env, mem)
                    else:
                        for step in blk.steps:
                            step(env, mem)
                    label_next, taken = blk.term(env, mem)
                except RUNTIME_ERRORS as e:
                    raise ExecutionError(
                        f"{exe.name}/{label}: runtime error {type(e).__name__}: {e}"
                    ) from e

                if mem:
                    mc = 0.0
                    for name, i in mem:
                        mc += cache_access(bases[name] + i * elem)
                    mc *= mem_factor
                    mem_cycles += mc
                    cycles += mc
                    mem.clear()

                if blk.is_branch:
                    key = blk.branch_key
                    predicted = branch_state.get(key)
                    if predicted is not None and predicted != taken:
                        miss_cycles += miss_cost
                        cycles += miss_cost
                    branch_state[key] = taken

                steps_budget -= 1
                if steps_budget <= 0:
                    raise ExecutionError(
                        f"{exe.name}: step budget exhausted (infinite loop?)"
                    )
                label = label_next
        finally:
            self.interpreted_blocks += budget0 - steps_budget

        result.cycles += cycles
        result.mem_cycles += mem_cycles
        result.branch_miss_cycles += miss_cycles

    def _do_call(
        self,
        step: _CallStep,
        caller: ExecutableFunction,
        env: dict[str, object],
        amap: AddressMap,
        factors: CostFactors,
        counts: dict[str, int] | None,
        result: InvocationResult,
        depth: int,
    ) -> None:
        callee = caller.callees.get(step.fn)
        if callee is None:
            raise ExecutionError(f"{caller.name}: unresolved call to {step.fn!r}")
        mem: list = []
        args = [f(env, mem) for f in step.arg_fns]
        if mem:
            mc = sum(
                self.cache.access(amap.bases[n] + i * AddressMap.ELEM_SIZE)
                for n, i in mem
            ) * factors.mem
            result.cycles += mc
            result.mem_cycles += mc
        callee_env = dict(zip(callee.param_names, args))
        callee_env.update(callee.local_defaults)
        # the callee's arrays live at the addresses of the argument objects,
        # bound afresh at every call site
        frame = amap.for_call(
            {
                name: value
                for name, value in zip(callee.param_names, args)
                if hasattr(value, "__len__")
            },
            env,
        )
        sub = InvocationResult(0.0)
        self._run_cfg(callee, callee_env, frame, factors, counts, sub, depth + 1)
        result.cycles += sub.cycles
        result.mem_cycles += sub.mem_cycles
        result.branch_miss_cycles += sub.branch_miss_cycles
        if step.target is not None:
            env[step.target] = callee_env.get("<ret>")
