"""Tier-1 execution: whole-function compilation for the rating hot path.

Every rating method bottoms out in :meth:`Executor._run_cfg`.  At Tier 0
that is a dispatch loop over closures: per basic block a ``blocks[label]``
lookup, a Python call per statement and per expression node,
``(name, index)`` tuple traffic on the memory trace, a per-access
``bases[name] + i*8`` translation plus a ``CacheSim.access`` call, and a
``(fn, label)`` predictor key per branch.  Tier 0 generates no code, so it
shares nothing with the tier it is the reference for.

Tier 1 compiles each :class:`ExecutableFunction`, on first use, into
**one** Python function (``compile()``/``exec``) with every block body
inline:

* **Rule** — Tier 1 compiles a function only when every array it touches
  gets an inline cache check (the machine's cache qualifies, see
  :class:`_InlineCache`, and every array is a parameter that no scalar
  shares a name with).  The rule is decided once per function
  (:attr:`WholeFunction.compiles`); every other function runs at Tier 0,
  the oracle.  The tuning sections of
  every workload qualify at ``-O3`` on both paper machines.
* **Layout** — blocks are grouped into *chains*.  A chain starts at a
  *head*: the entry, the target of every retreating CFG edge (the header
  of every natural loop), and any block the layout cuts off to bound code
  duplication (:func:`_chain_heads`).  From its head a chain inlines every
  path forward until the path reaches a head or returns; a block reached
  by several paths is duplicated on each.  A chain whose paths lead back
  to its own head is a loop and runs inside a ``while True:`` that jumps
  back with ``continue``.  Every other edge to a head sets an integer
  label and returns to the dispatch loop
  (``while _L >= 0: if _L == 0: ... elif _L == 1: ...``).
* **Code generation** — scalars are promoted to locals, branch-predictor
  entries are held in locals, block cycle costs arrive as one tuple
  argument that the prologue unpacks into locals (so versions of equal IR
  share the code), and the cache line check is emitted at each access
  site (see :class:`_InlineCache`): one compare against the set's most
  recently used line, read from the direct-mapped slot array or from the
  associative cache's MRU table (:attr:`CacheSim._mru`), which
  ``CacheSim`` keeps for every access it simulates and the generated slow
  path keeps for its own.  When the frame's arrays fit the cache window
  (:attr:`AddressMap.window_lines`), a variant with a last-line memo per
  array and elided repeated accesses runs instead.
* **Caching** — compiled functions land in a :class:`~repro.store.Store`
  keyed by :func:`code_key`, a digest of the function's rendered IR and
  the machine.  Block costs are not part of the key: most flags act only
  through the effect model, which changes costs but not IR, so the many
  versions of a tuning section that differ only in cost share one
  :class:`WholeFunction`, and re-rating a version across consistency
  windows, search rounds, and worker tasks never regenerates code.  The
  store is process-wide (:func:`global_executable_cache`) and unbounded.

**Exactness.**  Results are bit-identical to Tier 0.  Per block the
generated code performs the same float operations in the same order —
``cycles += compute+spill`` (one pre-folded cost, taken from the
executable's own blocks), the block's memory drain, then the branch-miss
charge — and block costs, runtime cost factors and the branch-miss cost
are call arguments, never baked into code.  Tier 0 only simulates a
block's accesses after the block completes, so every inline
cache mutation logs an undo entry that is rolled back if the block
raises; the log is emptied at the end of every block.  The step budget is
checked once per chain pass: when it cannot cover the longest path of
the chain, the function writes its state back and returns the chain
head, and the Tier-0 interpreter finishes the frame block by block, so
exhaustion happens at Tier 0's block with Tier 0's error.  The
differential fuzz suite (``tests/machine/test_executor_differential.py``)
enforces this over random IR programs.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Callable

import numpy as np

from ..ir.block import BasicBlock
from ..ir.cfg import CFG
from ..ir.expr import ArrayRef, BinOp, Call, Const, Expr, UnOp, Var, walk
from ..ir.stmt import Assign, CondBranch, Jump, Return
from ..ir.types import Type
from ..store import Store
from .cache import AddressMap
from .config import MachineConfig
from .cost import infer_type
from .executor import (
    RUNTIME_ERRORS,
    ExecutableFunction,
    ExecutionError,
    Executor,
    InvocationResult,
    executable_digest,
    needs_float_conversion,
)

__all__ = [
    "WholeFunction",
    "TieredExecutor",
    "code_key",
    "create_executor",
    "executable_digest",
    "global_executable_cache",
    "EXEC_TIERS",
]

_ELEM = AddressMap.ELEM_SIZE

EXEC_TIERS = (0, 1)

#: a block reached by more paths than this heads its own chain
_MAX_COPIES = 4
#: longest path (in blocks) a chain inlines; bounds the nesting depth of
#: the generated code well below the parser's indentation limit
_MAX_PATH = 24

#: the intrinsics generated code calls as ``_intr_<name>``
_INTRINSICS: dict[str, Callable] = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "floor": np.floor,
}


# --------------------------------------------------------------------------- #
# content-addressed executable cache


def code_key(exe: ExecutableFunction, machine: MachineConfig) -> str:
    """Key of *exe*'s generated code in the code store.

    Covers the rendered IR and the machine, nothing else: block costs,
    runtime cost factors, cache and predictor state are call arguments of
    the generated code.
    """
    h = hashlib.sha256(exe.ir_digest())
    h.update(repr(machine).encode())
    return h.hexdigest()


#: every rating task, consistency window, and search round that touches a
#: version with the same IR reuses one set of code objects (worker
#: processes each hold their own store, like the version cache)
_GLOBAL_CACHE: Store[WholeFunction] = Store()


def global_executable_cache() -> Store[WholeFunction]:
    """The process-wide default compiled-code cache."""
    return _GLOBAL_CACHE


# --------------------------------------------------------------------------- #
# inline cache simulation


class _InlineCache:
    """Codegen parameters for site-inlined cache checks.

    Valid when the machine's cache has power-of-two geometry, a line no
    smaller than one element, and integral access costs — both paper
    machines qualify.  Bases are line-aligned (see :class:`AddressMap`),
    so ``(base + i*8) >> line_shift`` decomposes into
    ``(base >> line_shift) + (i >> idx_shift)`` exactly.  Sets store line
    indices (see :class:`CacheSim`): direct-mapped checks are a single
    compare against the slot, set-associative checks a single compare
    against the set's entry of the MRU table ``CacheSim._mru``, falling
    into :func:`_assoc_slow` otherwise.
    """

    __slots__ = ("line_shift", "idx_shift", "set_mask", "assoc", "hit", "miss")

    def __init__(self, machine: MachineConfig) -> None:
        n_sets = machine.cache_size // (machine.cache_line * machine.cache_assoc)
        self.line_shift = machine.cache_line.bit_length() - 1
        self.idx_shift = self.line_shift - (_ELEM.bit_length() - 1)
        self.set_mask = n_sets - 1
        self.assoc = machine.cache_assoc
        self.hit = machine.cache_hit_cycles
        self.miss = machine.cache_miss_cycles

    @staticmethod
    def supports(machine: MachineConfig) -> bool:
        line = machine.cache_line
        n_sets = machine.cache_size // (line * machine.cache_assoc)
        return (
            line >= _ELEM
            and line & (line - 1) == 0
            and n_sets & (n_sets - 1) == 0
            and float(machine.cache_hit_cycles).is_integer()
            and float(machine.cache_miss_cycles).is_integer()
        )


def _assoc_slow(ways: list, x: int, assoc: int) -> bool:
    """Non-MRU access to one LRU set; True on hit.  Mirrors
    :meth:`CacheSim.access` exactly (the caller already handled the MRU
    fast path and logged a pre-image of *ways* for exception rollback)."""
    try:
        ways.remove(x)
    except ValueError:
        ways.append(x)
        if len(ways) > assoc:
            ways.pop(0)
        return False
    ways.append(x)
    return True


class _FunctionEmitter:
    """Emits flattened Python source for IR statements and expressions,
    with promoted locals and inline cache checks.

    Array accesses are checked against the cache in evaluation order,
    ``&&``/``||`` short-circuit (``i < n && a[i] > 0`` must not touch
    ``a[i]`` when the guard fails), float subscripts are truncated with
    ``int()``, and a store of a value that is not statically FLOAT into a
    float array is wrapped in ``float()`` (see the executor's value
    representation) — exactly the closure interpreter's semantics.

    Compile-time knowledge (CSE'd line offsets, accesses that cannot miss)
    is valid along one path of a chain; :meth:`save`/:meth:`restore`
    bracket each branch and :meth:`forget` drops it at chain heads.
    """

    def __init__(
        self,
        types: dict[str, Type],
        scalar_sym: dict[str, str],
        array_sym: dict[str, tuple[str, str]],
        inline: _InlineCache,
        memo_sym: dict[str, str],
    ) -> None:
        self.types = types
        self.lines: list[str] = []
        self.indent = 1
        self.n_tmp = 0
        self.scalar_sym = scalar_sym
        self.array_sym = array_sym
        self.inline = inline
        self.memo_sym = memo_sym
        # per-block state (see begin_block)
        self.block_static: int | None = None
        self.base_indent = self.indent
        self._cse: dict[str, str] = {}
        self._elide: set[tuple[str, str]] = set()

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self) -> str:
        self.n_tmp += 1
        return f"_t{self.n_tmp}"

    def begin_block(self, static_accesses: int | None) -> None:
        """Start a block.  *static_accesses* is its unconditional access
        count, or ``None`` when some access executes conditionally (which
        forces dynamic hit counting)."""
        self.block_static = static_accesses
        self.base_indent = self.indent

    def save(self) -> tuple[dict, set]:
        return dict(self._cse), set(self._elide)

    def restore(self, state: tuple[dict, set]) -> None:
        self._cse, self._elide = state

    def forget(self) -> None:
        self._cse.clear()
        self._elide.clear()

    def _invalidate(self, sym: str) -> None:
        # a scalar was reassigned: syntactic index reuse is no longer the
        # same value, so drop its CSE/elision entries
        self._cse.pop(sym, None)
        self._elide = {k for k in self._elide if k[1] != sym}

    def subscript(self, index: Expr) -> str:
        """The name (or literal) holding the evaluated subscript *index*."""
        is_float = infer_type(index, self.types) is Type.FLOAT
        # cheap, effect-free int indexes need no temporary
        if not is_float:
            if isinstance(index, Var):
                sym = self.scalar_sym.get(index.name)
                if sym is not None:
                    return sym
            elif isinstance(index, Const):
                return repr(index.value)
        idx = self.expr(index)
        tmp = self.fresh()
        self.emit(f"{tmp} = int({idx})" if is_float else f"{tmp} = {idx}")
        return tmp

    def _shifted(self, idx: str) -> str:
        """Line offset ``idx >> idx_shift``, CSE'd while *idx* is unchanged."""
        p = self.inline
        if p.idx_shift == 0:
            return idx
        shifted = self._cse.get(idx)
        if shifted is None:
            if self.indent == self.base_indent:
                shifted = self.fresh()
                self.emit(f"{shifted} = {idx} >> {p.idx_shift}")
                self._cse[idx] = shifted
            else:
                # conditionally executed: don't define a reusable temp
                shifted = f"({idx} >> {p.idx_shift})"
        return shifted

    def access(self, name: str, idx: str) -> None:
        """Check one element access against the cache on the spot.

        State mutations log an undo entry to ``_u`` so an exception later
        in the block can restore the exact Tier-0 cache state.  With a
        per-array memo (the windowed variant) the common case is one
        compare, and a repeated ``(array, index)`` access cannot miss
        while the window precondition holds, so it is elided entirely.
        """
        static = self.block_static is not None
        memo = self.memo_sym.get(name)
        if memo is not None:
            key = (name, idx)
            if key in self._elide:
                if not static:
                    self.emit("_bh += 1")
                return
            if self.indent == self.base_indent:
                self._elide.add(key)
        shifted = self._shifted(idx)
        x = self.fresh()
        self.emit(f"{x} = {self.array_sym[name][1]} + {shifted}")
        if memo is None:
            self._emit_check(x, static)
            return
        self.emit(f"if {x} != {memo}:")
        self.indent += 1
        self._emit_check(x, static)
        self.emit(f"{memo} = {x}")
        self.indent -= 1
        if not static:
            self.emit("else:")
            self.emit("    _bh += 1")

    def _emit_check(self, x: str, static: bool) -> None:
        """Residency check for line *x* at the current indent.

        One compare against the set's MRU line: the slot itself when
        direct-mapped, :attr:`CacheSim._mru` when set-associative.  An MRU
        hit mutates nothing, exactly like Tier 0's fast path.  Otherwise a
        direct-mapped miss logs the old slot value to ``_u`` and stores
        *x*; a set-associative access snapshots the set's way list to
        ``_u``, makes *x* the set's MRU line and goes through
        :func:`_assoc_slow`, which replays Tier 0's LRU update and reports
        hit/miss.  A stored line is a Python ``int``, as at Tier 0: *x* is
        a numpy integer when its subscript was read from an int array.
        """
        p = self.inline
        table = "_dt" if p.assoc == 1 else "_mru"
        s = self.fresh()
        self.emit(f"if {table}[{x} & {p.set_mask}] != {x}:")
        self.indent += 1
        self.emit(f"{s} = {x} & {p.set_mask}")
        if p.assoc == 1:
            self.emit(f"_u.append(({s}, _dt[{s}]))")
            self.emit(f"_dt[{s}] = int({x})")
            self.emit("_bm += 1")
        else:
            w = self.fresh()
            self.emit(f"{w} = _dt[{s}]")
            self.emit(f"_u.append(({w}, {w}[:]))")
            self.emit(f"{x} = int({x})")
            self.emit(f"_mru[{s}] = {x}")
            if static:
                self.emit(f"if not _aslow({w}, {x}, {p.assoc}):")
                self.emit("    _bm += 1")
            else:
                self.emit(f"if _aslow({w}, {x}, {p.assoc}):")
                self.emit("    _bh += 1")
                self.emit("else:")
                self.emit("    _bm += 1")
        self.indent -= 1
        if not static:
            self.emit("else:")
            self.emit("    _bh += 1")

    def expr(self, e: Expr) -> str:
        """Return a Python expression string; may emit preparatory lines."""
        if isinstance(e, Const):
            return repr(e.value)
        if isinstance(e, Var):
            sym = self.scalar_sym.get(e.name)
            return sym if sym is not None else f"env[{e.name!r}]"
        if isinstance(e, ArrayRef):
            tmp = self.subscript(e.index)
            self.access(e.array, tmp)
            return f"{self.array_sym[e.array][0]}[{tmp}]"
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
            # every other operator of BINARY_OPS is spelled as in Python
            left = self.expr(e.left)
            right = self.expr(e.right)
            return f"(({left}) {e.op} ({right}))"
        if isinstance(e, Call):
            args = ", ".join(self.expr(a) for a in e.args)
            if e.fn == "int":
                return f"int({args})"
            if e.fn == "float":
                return f"float({args})"
            return f"float(_intr_{e.fn}({args}))"
        raise ValueError(f"cannot generate code for {e!r}")  # pragma: no cover

    def stmt(self, s: Assign) -> None:
        if isinstance(s.target, ArrayRef):
            tmp = self.subscript(s.target.index)
            self.access(s.target.array, tmp)
            value = self.expr(s.expr)
            if needs_float_conversion(s, self.types):
                value = f"float({value})"
            self.emit(f"{self.array_sym[s.target.array][0]}[{tmp}] = {value}")
            return
        value = self.expr(s.expr)
        sym = self.scalar_sym.get(s.target.name)
        if sym is None:
            self.emit(f"env[{s.target.name!r}] = {value}")
        else:
            self.emit(f"{sym} = {value}")
            self._invalidate(sym)


def _scan_names(blocks) -> tuple[set, set, set]:
    """Scalar reads+writes, assigned scalars, and arrays used in *blocks*."""
    scalars: set[str] = set()
    assigned: set[str] = set()
    arrays: set[str] = set()

    def scan_expr(e) -> None:
        for node in walk(e):
            if isinstance(node, Var):
                scalars.add(node.name)
            elif isinstance(node, ArrayRef):
                arrays.add(node.array)

    for blk in blocks:
        for s in blk.stmts:
            scan_expr(s.expr)
            if isinstance(s.target, ArrayRef):
                arrays.add(s.target.array)
                scan_expr(s.target.index)
            else:
                scalars.add(s.target.name)
                assigned.add(s.target.name)
        term = blk.terminator
        if isinstance(term, CondBranch):
            scan_expr(term.cond)
        elif isinstance(term, Return) and term.value is not None:
            scan_expr(term.value)
    return scalars, assigned, arrays


def _scan_accesses(blk: BasicBlock) -> tuple[int, bool]:
    """Array accesses on *blk*'s memory trace and whether any runs
    conditionally.

    An access inside the right operand of ``&&``/``||`` executes only when
    the left side demands it, so its block cannot use a static hit count.
    """
    total = 0
    conditional = False

    def scan(e, in_cond: bool) -> None:
        nonlocal total, conditional
        if isinstance(e, ArrayRef):
            total += 1
            if in_cond:
                conditional = True
            scan(e.index, in_cond)
        elif isinstance(e, BinOp):
            if e.op in ("&&", "||"):
                scan(e.left, in_cond)
                scan(e.right, True)
            else:
                scan(e.left, in_cond)
                scan(e.right, in_cond)
        elif isinstance(e, UnOp):
            scan(e.operand, in_cond)
        elif isinstance(e, Call):
            for a in e.args:
                scan(a, in_cond)

    for s in blk.stmts:
        if isinstance(s.target, ArrayRef):
            total += 1
            scan(s.target.index, False)
        scan(s.expr, False)
    term = blk.terminator
    if isinstance(term, CondBranch):
        scan(term.cond, False)
    elif isinstance(term, Return) and term.value is not None:
        scan(term.value, False)
    return total, conditional


# --------------------------------------------------------------------------- #
# layout


def _chain_heads(cfg: CFG) -> list[str]:
    """Chain heads of *cfg* in reverse postorder.

    The entry and every target of a retreating edge (for reducible CFGs
    exactly the natural-loop headers) head chains, so every path inside a
    chain follows forward edges and ends.  A block reached by more than
    :data:`_MAX_COPIES` chain paths, or lying more than :data:`_MAX_PATH`
    blocks from its head, is cut off into a chain of its own.
    """
    order = cfg.rpo()
    pos = {label: i for i, label in enumerate(order)}
    heads = {cfg.entry}
    preds: dict[str, set[str]] = {label: set() for label in order}
    for u in order:
        for v in set(cfg.successors(u)):
            if pos[v] <= pos[u]:
                heads.add(v)
            else:
                preds[v].add(u)
    copies: dict[str, int] = {}
    depth: dict[str, int] = {}
    for v in order:
        if v not in heads:
            c = sum(copies[u] for u in preds[v])
            d = 1 + max(depth[u] for u in preds[v])
            if c <= _MAX_COPIES and d <= _MAX_PATH:
                copies[v], depth[v] = c, d
                continue
            heads.add(v)
        copies[v], depth[v] = 1, 1
    return [label for label in order if label in heads]


# --------------------------------------------------------------------------- #
# code generation


class WholeFunction:
    """One function's chain layout plus its lazily compiled variants.

    :attr:`compiles` says whether Tier 1 runs the function at all: the
    machine's cache supports inline checks, and every array it touches is
    a parameter that no scalar shares a name with.  A
    variant is selected per frame by ``(counting, windowed)``: whether
    block counts are collected, and whether the frame's arrays fit the
    cache window.  Generated source is not kept; :meth:`source`
    regenerates it.
    """

    def __init__(self, exe: ExecutableFunction, machine: MachineConfig) -> None:
        self._exe = exe
        self.machine = machine
        cfg = exe.source.cfg
        self.heads = tuple(_chain_heads(cfg))
        self.labels = tuple(cfg.rpo())
        self.compiles = False
        if _InlineCache.supports(machine):
            scalars, _, arrays = _scan_names(cfg.blocks[label] for label in self.labels)
            self.compiles = arrays <= set(exe.param_names) - scalars
        self._lock = threading.Lock()
        self._fns: dict[tuple[bool, bool], Callable] = {}

    def fn_for(self, counting: bool, windowed: bool) -> Callable:
        """The compiled variant for one calling context."""
        key = (counting, windowed)
        fn = self._fns.get(key)
        if fn is None:
            with self._lock:
                fn = self._fns.get(key)
                if fn is None:
                    fn = self._compile(*key)
                    self._fns[key] = fn
        return fn

    def _compile(self, counting: bool, windowed: bool) -> Callable:
        src = self.source(counting=counting, windowed=windowed)
        namespace = {
            "__builtins__": {"bool": bool, "int": int, "float": float, "abs": abs},
            **{f"_intr_{name}": impl for name, impl in _INTRINSICS.items()},
            "_EE": ExecutionError,
            "_RTE": RUNTIME_ERRORS,
            "_aslow": _assoc_slow,
            "type": type,
            "str": str,
        }
        exec(compile(src, f"<tier1 {self._exe.name}>", "exec"), namespace)
        return namespace["_fn"]

    # -- source generation ---------------------------------------------- #

    def source(self, *, counting: bool, windowed: bool) -> str:
        return _Generator(self, counting, windowed).source()


class _Generator:
    """Emits the Python source of one variant of a :class:`WholeFunction`
    that :attr:`~WholeFunction.compiles`."""

    def __init__(self, wf: WholeFunction, counting: bool, windowed: bool) -> None:
        exe = wf._exe
        self.exe = exe
        self.wf = wf
        self.counting = counting
        cfg = exe.source.cfg
        self.src_blocks = {label: cfg.blocks[label] for label in wf.labels}
        self.succs = {
            label: set(blk.successors()) for label, blk in self.src_blocks.items()
        }
        self.heads = {label: i for i, label in enumerate(wf.heads)}
        scalars, assigned, arrays = _scan_names(self.src_blocks.values())
        # Only names every frame binds are promoted (parameters and
        # locals); every array is a parameter, promoted with its
        # line-index base for the inline cache checks.
        declared = set(exe.param_names) | set(exe.local_defaults)
        promoted_arrays = sorted(arrays)
        self.scalar_sym = {n: f"_v{i}" for i, n in enumerate(sorted(scalars & declared))}
        self.array_sym = {
            n: (f"_a{i}", f"_b{i}") for i, n in enumerate(promoted_arrays)
        }
        self.inline = _InlineCache(wf.machine)
        memo_sym = (
            {n: f"_m{i}" for i, n in enumerate(promoted_arrays)} if windowed else {}
        )
        self.writebacks = [
            f"env[{n!r}] = {self.scalar_sym[n]}"
            for n in sorted(assigned)
            if n in self.scalar_sym
        ]
        self.index = {label: i for i, label in enumerate(exe.blocks)}
        self.cost_sym = {label: f"_k{i}" for i, label in enumerate(wf.labels)}
        self.branch_sym = {
            label: f"_pb{i}"
            for i, label in enumerate(wf.labels)
            if exe.blocks[label].is_branch
        }
        self.em = _FunctionEmitter(
            exe.source.all_vars(), self.scalar_sym, self.array_sym, self.inline,
            memo_sym,
        )
        # per-chain state (see _emit_chain)
        self.head = ""
        self.loop = False

    # -- per-exit snippets ---------------------------------------------- #

    def _state_flush(self) -> list[str]:
        """Cache statistics and predictor entries back to the machine."""
        return ["_ch.hits += _nh", "_ch.misses += _nm"] + [
            f"if {sym} is not None: _bs[{self.exe.blocks[label].branch_key!r}] = {sym}"
            for label, sym in self.branch_sym.items()
        ]

    def _drain(self, n_acc: int, has_cond: bool) -> list[str]:
        """The block's memory drain: exactly Tier 0's ``if mem:`` flush."""
        if n_acc == 0:
            return []
        p = self.inline
        # Per-block hit/miss counters make the drain two multiplies; with
        # integral costs the count-based total equals Tier 0's sequential
        # per-access sum exactly.  Blocks whose accesses all execute get a
        # static hit count: sites only track misses, hits are K - misses.
        if has_cond:
            return [
                "if _bh or _bm:",
                f"    _d = (_bh * {p.hit!r} + _bm * {p.miss!r}) * _mf",
                "    _memc += _d",
                "    _cyc += _d",
                "    _nh += _bh",
                "    _nm += _bm",
                "    _bh = 0",
                "    _bm = 0",
                "    del _u[:]",
            ]
        lines = [
            "if _bm:",
            f"    _d = (({n_acc} - _bm) * {p.hit!r} + _bm * {p.miss!r}) * _mf",
            "    _memc += _d",
            "    _cyc += _d",
            f"    _nh += {n_acc} - _bm",
            "    _nm += _bm",
            "    _bm = 0",
            "    del _u[:]",
            "else:",
            f"    _d = {n_acc * p.hit!r} * _mf",
            "    _memc += _d",
            "    _cyc += _d",
            f"    _nh += {n_acc}",
        ]
        if p.assoc > 1:
            # a non-MRU hit logged its set's pre-image without a miss
            lines += ["    if _u:", "        del _u[:]"]
        return lines

    # -- chains --------------------------------------------------------- #

    def _paths(self, head: str) -> tuple[bool, int]:
        """Whether *head*'s chain loops back to it, and its longest path."""
        succs = self.succs
        longest: dict[str, int] = {}
        loop = False

        def walk_from(label: str) -> int:
            nonlocal loop
            best = 0
            for v in succs[label]:
                if v == head:
                    loop = True
                elif v not in self.heads:
                    if v not in longest:
                        longest[v] = walk_from(v)
                    best = max(best, longest[v])
            return 1 + best

        n = walk_from(head)
        return loop, n

    def _exit(self, code: str) -> None:
        """Leave the chain to the dispatch loop with ``_L`` = *code*."""
        em = self.em
        em.emit(f"_L = {code}")
        em.emit("break" if self.loop else "continue")

    def _emit_edge(self, target: str, done: int) -> None:
        em = self.em
        if target == self.head and self.loop:
            em.emit(f"_bgt -= {done}")
            em.emit("continue")
        elif target in self.heads:
            em.emit(f"_bgt -= {done}")
            self._exit(str(self.heads[target]))
        else:
            self._emit_block(target, done)

    def _emit_block(self, label: str, done: int) -> None:
        em = self.em
        exe = self.exe
        blk = exe.blocks[label]
        src = self.src_blocks[label]
        n_acc, has_cond = _scan_accesses(src)
        em.emit(f"_lbl = {label!r}")
        em.begin_block(None if has_cond else n_acc)
        if self.counting:
            em.emit(f"_n{self.index[label]} += 1")
        em.emit(f"_cyc += {self.cost_sym[label]}")
        for s in src.stmts:
            em.stmt(s)
        term = src.terminator
        if isinstance(term, CondBranch):
            em.emit(f"_t = bool({em.expr(term.cond)})")
        elif isinstance(term, Return) and term.value is not None:
            em.emit(f"env['<ret>'] = {em.expr(term.value)}")
        for line in self._drain(n_acc, has_cond):
            em.emit(line)
        if blk.is_branch:
            sym = self.branch_sym[label]
            em.emit(f"if {sym} is not None and {sym} != _t:")
            em.emit("    _missc += _bmc")
            em.emit("    _cyc += _bmc")
            em.emit(f"{sym} = _t")

        done += 1
        if isinstance(term, Return):
            self._exit("-1")
        elif isinstance(term, Jump) or term.then == term.orelse:
            self._emit_edge(term.targets()[0], done)
        else:
            # nest the side that leaves the chain (or the shorter one) so
            # the generated code stays shallow
            then, orelse = term.then, term.orelse
            if orelse in self.heads and then not in self.heads:
                em.emit("if not _t:")
                first, second = orelse, then
            else:
                em.emit("if _t:")
                first, second = then, orelse
            state = em.save()
            em.indent += 1
            self._emit_edge(first, done)
            em.indent -= 1
            em.restore(state)
            self._emit_edge(second, done)

    def _emit_chain(self, head: str) -> None:
        em = self.em
        self.head = head
        self.loop, longest = self._paths(head)
        em.forget()
        # Step-budget accounting is hoisted out of the block bodies: one
        # guard per pass ensures the budget covers the chain's longest
        # path, and each exit subtracts the blocks it ran.  When the guard
        # fails, the function returns the head and Tier 0 interprets from
        # there, reproducing its exact exhaustion point and error.
        bail = str(-2 - self.heads[head])
        if self.loop:
            em.emit("while True:")
            em.indent += 1
        em.emit(f"if _bgt <= {longest}:")
        em.indent += 1
        self._exit(bail)
        em.indent -= 1
        self._emit_block(head, 0)
        if self.loop:
            em.indent -= 1

    def source(self) -> str:
        exe, em, inline = self.exe, self.em, self.inline
        # the per-block costs compute+spill, in wf.labels order
        prologue = [f"({', '.join(self.cost_sym.values())},) = _kc"]
        for name, sym in self.scalar_sym.items():
            prologue.append(f"{sym} = env[{name!r}]")
        for name, (arr, base) in self.array_sym.items():
            prologue.append(f"{arr} = env[{name!r}]")
            # promoted line-index base: (base + i*8) >> shift splits
            prologue.append(f"{base} = _bases[{name!r}] >> {inline.line_shift}")
        prologue += [
            f"{sym} = _bs.get({exe.blocks[label].branch_key!r})"
            for label, sym in self.branch_sym.items()
        ]
        prologue += ["_cyc = 0.0", "_memc = 0.0", "_missc = 0.0"]
        prologue += ["_nh = 0", "_nm = 0", "_bh = 0", "_bm = 0", "_u = []"]
        if inline.assoc > 1:
            prologue.append("_mru = _ch._mru")
        prologue += [f"{memo} = None" for memo in em.memo_sym.values()]
        if self.counting:
            prologue += [f"_n{self.index[label]} = 0" for label in self.wf.labels]
        prologue += [f"_lbl = {exe.entry!r}", "_L = 0"]

        em.indent = 3  # def / try / while
        for i, head in enumerate(self.wf.heads):
            em.emit(f"{'if' if i == 0 else 'elif'} _L == {i}:")
            em.indent += 1
            self._emit_chain(head)
            em.indent -= 1

        # The current block's cache writes are rolled back on an exception
        # — Tier 0 simulates a block's accesses only after it completes.
        # Direct-mapped undo entries are (slot, old line); associative
        # entries are (way list, pre-image), restored in reverse so repeated
        # mutations of one set end at the oldest snapshot, after which the
        # MRU table is re-synced from the restored way lists in place.
        if inline.assoc == 1:
            rollback = ["while _u:", "    _rs, _rt = _u.pop()", "    _dt[_rs] = _rt"]
        else:
            rollback = [
                "while _u:",
                "    _rw, _rc = _u.pop()",
                "    _rw[:] = _rc",
                "_mru[:] = [_rw[-1] if _rw else None for _rw in _dt]",
            ]
        flush = self._state_flush()
        counts = (
            [
                f"_counts[{label!r}] += _n{self.index[label]}"
                for label in self.wf.labels
            ]
            if self.counting
            else []
        )
        lines = [
            "def _fn(env, _kc, _bases, _bs, _counts, _mf, _bmc, _bgt, _ch, _dt, _res):",
            *[f"    {line}" for line in prologue],
            "    try:",
            "        while _L >= 0:",
            *em.lines,
            "    except _RTE as _e:",
            *[f"        {line}" for line in rollback + flush],
            f"        raise _EE({exe.name!r} + '/' + _lbl"
            " + ': runtime error ' + type(_e).__name__ + ': ' + str(_e))"
            " from _e",
        ]
        lines += [f"    {line}" for line in flush + counts]
        lines += [
            "    if _L == -1:",
            "        _res.cycles += _cyc",
            "        _res.mem_cycles += _memc",
            "        _res.branch_miss_cycles += _missc",
            "        return None",
            *[f"    {line}" for line in self.writebacks],
            f"    return ({self.wf.heads!r}[-2 - _L], _bgt, _cyc, _memc, _missc)",
        ]
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# the tiered executor


_ATTACH_LOCK = threading.Lock()


class TieredExecutor(Executor):
    """Tier-1 executor: Tier-0 semantics, compiled-function speed.

    Drop-in subclass of :class:`Executor`; identical machine state
    (cache, predictor) and bit-identical :class:`InvocationResult`\\ s.
    A function that :attr:`~WholeFunction.compiles` runs through its
    :class:`WholeFunction`, served from a shared code store, from its
    first invocation on; the executable's own block costs
    (``exe._jit_costs``) are passed in at every call.  A function whose
    arrays cannot all be checked inline runs at Tier 0.
    """

    def __init__(
        self,
        machine: MachineConfig,
        *,
        code_cache: Store[WholeFunction] | None = None,
    ) -> None:
        super().__init__(machine)
        self.code_cache = code_cache if code_cache is not None else _GLOBAL_CACHE
        self._win_sets = machine.cache_size // (
            machine.cache_line * machine.cache_assoc
        )
        #: frames run through compiled code (with ``interpreted_blocks``,
        #: this says whether Tier 1 engaged)
        self.compiled_frames = 0

    def _whole_function(self, exe: ExecutableFunction) -> WholeFunction:
        with _ATTACH_LOCK:
            wf = getattr(exe, "_jit_fn", None)
            if wf is None or wf.machine != self.machine:
                wf, _ = self.code_cache.get_or_build(
                    code_key(exe, self.machine),
                    lambda: WholeFunction(exe, self.machine),
                )
                blocks = exe.blocks
                exe._jit_costs = tuple(
                    blocks[label].compute_cycles + blocks[label].spill_cycles
                    for label in wf.labels
                )
                exe._jit_fn = wf
        return wf

    def _run_cfg(
        self,
        exe: ExecutableFunction,
        env: dict[str, object],
        amap: AddressMap,
        factors,
        counts: dict[str, int] | None,
        result: InvocationResult,
    ) -> None:
        wf = getattr(exe, "_jit_fn", None)
        if wf is None or wf.machine is not self.machine:
            wf = self._whole_function(exe)
        if not wf.compiles:
            super()._run_cfg(exe, env, amap, factors, counts, result)
            return
        fn = wf.fn_for(counts is not None, amap.window_lines < self._win_sets)
        cache = self.cache
        bail = fn(
            env,
            exe._jit_costs,
            amap.bases,
            self.branch_state,
            counts,
            factors.mem,
            self.machine.branch_miss_cycles * factors.branch,
            self.MAX_STEPS,
            cache,
            # the generated code's `_dt`: the direct-mapped slot array, or
            # the per-set way lists for associative machines
            cache._direct if cache._direct is not None else cache._sets,
            result,
        )
        self.compiled_frames += 1
        if bail is not None:
            self._interpret(exe, env, amap, factors, counts, result, *bail)


# --------------------------------------------------------------------------- #
# tier selection


def create_executor(machine: MachineConfig, tier: int = 1) -> Executor:
    """Build the executor for one execution tier.

    Tier 1 (the default) runs each qualifying function as one compiled
    Python function; Tier 0 is the closure interpreter, the reference
    Tier 1 is checked against.  Both give bit-identical results; Tier 1
    is substantially faster.
    """
    if tier == 0:
        return Executor(machine)
    if tier == 1:
        return TieredExecutor(machine)
    raise ValueError(f"unknown execution tier {tier!r} (expected one of {EXEC_TIERS})")
