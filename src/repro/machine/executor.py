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
loop then only dispatches closures.  The IR has no calls to user functions
(only intrinsic ``Call`` expressions), so an invocation is one frame of the
tuning section.

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
from itertools import compress, count
from operator import is_not
from typing import AbstractSet as Set, Callable, Mapping

import numpy as np

from ..ir.expr import ArrayRef, BinOp, Call, Const, Expr, UnOp, Var
from ..ir.function import Function
from ..ir.stmt import Assign, CondBranch, Jump, Return
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
    "InputsKey",
    "InvocationResult",
    "Executor",
    "MachineState",
    "REPLAY_MEMO_MAX",
    "compile_function",
    "env_of",
    "executable_digest",
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
    raise ExecutionError(f"cannot compile statement {stmt!r}")  # pragma: no cover


_RETURN = "<return>"


@dataclass
class CompiledBlock:
    """One basic block: its static cost, what dispatch needs to know about
    it, and its closures once built (:meth:`ExecutableFunction.build_closures`)."""

    label: str
    compute_cycles: float
    spill_cycles: float = 0.0
    is_branch: bool = False
    #: interned branch-predictor key ``(fn_name, label)`` (branch blocks only)
    branch_key: tuple[str, str] | None = None
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
    #: ``(oblivious_reason,)`` once computed
    _oblivious: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: digest of the rendered IR once computed (:meth:`ir_digest`)
    _ir_digest: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``(machine, executable_digest(self, machine))`` once computed
    _digest: tuple | None = field(
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


def executable_digest(exe: ExecutableFunction, machine: MachineConfig) -> str:
    """Digest of everything that decides one compiled function's timing.

    Covers the rendered IR, every per-block static cost (the channel
    through which the optimizing compiler's effect model differentiates
    versions of identical IR), and the machine — mirroring the compiler
    pipeline's ``version_key``.  It keys whole-program run memos and
    invocation replays; the generated code is keyed without the costs
    (:func:`~repro.machine.jit.code_key`).  Runtime inputs (cost factors,
    cache and predictor state) are not part of it.
    Memoized on *exe* for the last machine asked.
    """
    memo = exe._digest
    if memo is not None and memo[0] is machine:
        return memo[1]
    h = hashlib.sha256(exe.ir_digest())
    h.update(b"\x00")
    h.update(repr(machine).encode())
    for label in sorted(exe.blocks):
        blk = exe.blocks[label]
        h.update(
            f"\x1f{label}\x1e{blk.compute_cycles!r}\x1e{blk.spill_cycles!r}".encode()
        )
    digest = h.hexdigest()
    exe._digest = (machine, digest)
    return digest


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
            compute_cycles=compute[label],
            spill_cycles=(
                block_spill_cycles.get(label, 0.0) if block_spill_cycles else 0.0
            ),
            is_branch=is_branch,
            branch_key=(fn.name, label) if is_branch else None,
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

    The cache's resident lines (:meth:`CacheSim.contents`: per-set tuples,
    or one slot tuple when direct-mapped), the branch predictor table as
    its keys in table order and their directions, and the cache's hit and
    miss counters.  Immutable and hashable, so a state
    can key a memo.  Equality and the hash cover only what decides the
    cycles of later runs; the counters are statistics and compare equal
    whatever their values.

    The hash is computed once, at construction (a state keys every replay
    lookup).  It covers the predictor's keys, strings whose hashes differ
    between processes, so a pickled state computes its own when loaded.
    """

    lines: tuple
    branch_keys: tuple[tuple[str, str], ...]
    branch_taken: bytes
    hits: int = field(compare=False)
    misses: int = field(compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(
            (self.lines, self.branch_keys, self.branch_taken)
        ))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return MachineState, (
            self.lines, self.branch_keys, self.branch_taken, self.hits, self.misses,
        )


#: invocations a replay store holds at least.  A store keeps the most
#: recent records: mgrid's 38-flag WHL tune records 517 invocations, but
#: gzip's RBR tune records about 13 000, so a rating context sizes its
#: store to hold at least one program run of RBR records as well.
REPLAY_MEMO_MAX = 1024

#: scalar types a replay key holds exactly (floats are keyed by their bits)
_EXACT_SCALARS = (int, bool, np.integer)
_FLOAT_SCALARS = (float, np.float64)


@dataclass(slots=True)
class _Replay:
    """One recorded invocation of *exe* on *machine*: its result, the
    machine state it left (None: the one it found), its cache counter
    increments and, once it was replayed, the cache sets and predictor
    entries it changed (:func:`_changes`)."""

    exe: ExecutableFunction
    machine: MachineConfig
    cycles: float
    mem_cycles: float
    branch_miss_cycles: float
    counts: dict[str, int] | None
    return_value: object
    exit: MachineState | None
    hits: int
    misses: int
    changes: tuple | None = None


def _changes(entry: MachineState, exit: MachineState) -> tuple:
    """What turns a machine in *entry* into one in *exit*: ``(set, lines)``
    for every cache set that differs, as :meth:`CacheSim.apply_changes`
    takes them, and the predictor entries that differ."""
    then, now = entry.lines, exit.lines
    # a slot the run left alone holds the same object in both states
    lines = tuple(
        (s, now[s]) for s in compress(count(), map(is_not, then, now)) if then[s] != now[s]
    )
    before = dict(zip(entry.branch_keys, entry.branch_taken))
    branches = tuple(
        (k, bool(t)) for k, t in zip(exit.branch_keys, exit.branch_taken)
        if before.get(k) != t
    )
    return lines, branches


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


class InputsKey(tuple):
    """The env's part of a replay key (:attr:`InputFacts.key`).

    Its hash is computed once, at construction (it keys every replay
    lookup of its inputs); it covers names, strings whose hashes differ
    between processes, so a pickled copy computes its own.
    """

    def __new__(cls, parts: tuple) -> "InputsKey":
        key = super().__new__(cls, parts)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return InputsKey, (tuple(self),)


class InputFacts:
    """What an invocation's inputs decide besides their array data.

    * *names*: the env's names, as a set or a dict's keys (the parameter
      check);
    * *sig*: the names in order and the value types;
    * *shape*: what the address map depends on: the arrays' sorted names,
      their lengths and which names share one object (None: none do);
    * *key*: the env's part of the replay key, an :class:`InputsKey`
      ``(sig, shape, exact scalars, float scalars as packed bits)``
      (floats by their bits, so -0.0 and NaN payloads stay apart), or
      None when some scalar cannot key a replay;
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
        key = InputsKey((
            sig, shape, tuple(map(values.__getitem__, exact)),
            pack(*map(values.__getitem__, floats)),
        ))
    return InputFacts(name_set, sig, shape, key)


class Inputs:
    """One invocation's inputs as a feed hands them out.

    *facts* are the :class:`InputFacts`; :attr:`env` is the environment
    itself: *env*, or else ``source.env(pos)``, built on first access (at
    most once), so an invocation that is replayed never builds it.
    :meth:`peek` reads the values without building it.
    :meth:`Executor.run` takes an ``Inputs`` or a plain env.
    """

    __slots__ = ("facts", "_env", "_source", "_pos", "_rerun")

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
        #: made by :meth:`fresh`: a replay store may key its runs by position
        self._rerun = False

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
        """Another hand-out of the same position for a re-execution, its env
        not built yet, or None when these inputs came with their env (a
        live replay's).

        Its env equals this one's before any run wrote to it, so it stands
        in for a restore of every input.  Until its env is built, its
        contents are exactly the position's, so :meth:`Executor.run` may
        key a run on it by ``(source, pos)`` (:meth:`position`), also for
        a version that is not data-oblivious."""
        if self._source is None:
            return None
        again = Inputs(self.facts, None, self._source, self._pos)
        again._rerun = True
        return again

    def position(self) -> tuple | None:
        """``(source, pos)`` when these inputs are a re-execution's hand-out
        (:meth:`fresh`) whose env was never built, else None."""
        if self._rerun and self._env is None:
            return self._source, self._pos
        return None


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
        self._verdicts: dict[bytes, tuple] = {}
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
            cache.contents(),
            tuple(self.branch_state),
            bytes(self.branch_state.values()),
            cache.hits,
            cache.misses,
        )

    def restore_machine_state(self, state: MachineState) -> None:
        """Put the machine in *state* (in place, counters included)."""
        self._known = None
        cache = self.cache
        cache.restore(state.lines)
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

        With a *replay* store, an invocation whose key was recorded before
        is not simulated: the machine is put in the recorded exit state and
        the recorded result is returned.  Its writes to the env's arrays
        are then skipped, so pass a store only when nothing reads them
        afterwards.  The key is the executable's content
        (:func:`executable_digest`), the factors, the entry machine state
        and the inputs:

        * for a data-oblivious *exe*
          (:func:`~repro.machine.oblivious.oblivious_reason`), their
          scalars and array shapes: the key of the handle's
          :class:`InputFacts` (a plain env's are derived here by
          :func:`input_facts`);
        * for any other *exe*, their input position, and only for a
          re-execution's hand-out whose env was never built
          (:meth:`Inputs.position`): its contents are then exactly the
          position's.  Other inputs of such an *exe* are simulated.

        A handle's env is built only when the invocation is simulated.
        """
        if isinstance(inputs, Inputs):
            facts, env = inputs.facts, None
        else:
            facts, env = input_facts(inputs, self._array_layout), inputs
        if not facts.names >= exe.param_set:
            missing = next(p for p in exe.param_names if p not in facts.names)
            raise ExecutionError(f"{exe.name}: missing argument {missing!r}")
        key = inputs_key = None
        if replay is not None:
            if self.replayable(exe):
                inputs_key = facts.key
            elif env is None:
                inputs_key = inputs.position()
        if inputs_key is not None:
            entry = self._known
            if entry is None:
                entry = self.machine_state()
            key = (
                executable_digest(exe, self.machine),
                factors, count_blocks, self.MAX_STEPS, inputs_key, entry,
            )
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
            dict.fromkeys(exe.blocks, 0) if count_blocks else None
        )
        result = InvocationResult(0.0, block_counts=counts)
        self._run_cfg(exe, local_env, amap, factors, counts, result)
        result.return_value = local_env.get("<ret>")
        if key is not None:
            cache = self.cache
            exit_state = self.machine_state()
            if exit_state == entry:
                exit_state = None
            self._known = exit_state or entry
            replay.put(key, _Replay(
                exe, self.machine, result.cycles, result.mem_cycles, result.branch_miss_cycles,
                dict(counts) if counts is not None else None, result.return_value,
                exit_state, cache.hits - hits0, cache.misses - misses0,
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
            changes = rec.changes
            if changes is None:
                changes = rec.changes = _changes(entry, rec.exit)
            lines, branches = changes
            cache.apply_changes(lines)
            self.branch_state.update(branches)
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
    ) -> None:
        self._interpret(
            exe, env, amap, factors, counts, result,
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
        label: str,
        steps_budget: int,
        cycles: float,
        mem_cycles: float,
        miss_cycles: float,
    ) -> None:
        """The dispatch loop, from *label* with *steps_budget* steps left.

        *cycles*, *mem_cycles* and *miss_cycles* are the frame's local
        accumulators so far (folded into *result* when the frame returns).
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
                    counts[label] += 1
                cycles += blk.compute_cycles + blk.spill_cycles

                try:
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
