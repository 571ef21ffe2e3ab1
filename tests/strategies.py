"""Hypothesis strategies for random IR programs.

Generates small structured kernels (loops, branches, scalar and array
arithmetic) used by the property-based tests: analyses must hold their
invariants and the optimizer must preserve semantics on *arbitrary*
programs, not just the hand-written workloads.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.ir import ArrayRef, Const, FunctionBuilder, Type, Var

SCALARS = ("n", "k", "s", "t")
ARRAYS = ("a", "b")
ARRAY_SIZE = 16


@st.composite
def int_exprs(draw, depth=0):
    """Integer-valued expressions over the fixed variable set."""
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return Const(draw(st.integers(-4, 8)))
        if choice == 1:
            return Var(draw(st.sampled_from(SCALARS)))
        idx = draw(st.integers(0, ARRAY_SIZE - 1))
        return ArrayRef(draw(st.sampled_from(ARRAYS)), Const(idx))
    op = draw(st.sampled_from(["+", "-", "*", "min", "max"]))
    left = draw(int_exprs(depth=depth + 1))
    right = draw(int_exprs(depth=depth + 1))
    from repro.ir import BinOp

    return BinOp(op, left, right)


@st.composite
def conditions(draw):
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    from repro.ir import BinOp

    return BinOp(op, draw(int_exprs()), draw(int_exprs()))


@st.composite
def kernels(draw, max_stmts=6):
    """A random function over 4 int scalars and 2 int arrays."""
    b = FunctionBuilder(
        "rand_kernel",
        [
            ("n", Type.INT),
            ("k", Type.INT),
            ("s", Type.INT),
            ("t", Type.INT),
            ("a", Type.INT_ARRAY),
            ("b", Type.INT_ARRAY),
        ],
        return_type=Type.INT,
    )

    def emit_block(depth: int) -> None:
        n_stmts = draw(st.integers(1, max_stmts))
        for _ in range(n_stmts):
            kind = draw(st.integers(0, 5 if depth < 2 else 3))
            if kind in (0, 1):  # scalar assign
                target = draw(st.sampled_from(("s", "t", "k")))
                b.assign(target, draw(int_exprs()))
            elif kind == 2:  # array store (index bounded via %)
                arr = draw(st.sampled_from(ARRAYS))
                idx_base = draw(int_exprs())
                safe_idx = (abs_expr(idx_base)) % ARRAY_SIZE
                b.store(arr, safe_idx, draw(int_exprs()))
            elif kind == 3:  # if / if-else
                with b.if_(draw(conditions())):
                    b.assign(draw(st.sampled_from(("s", "t"))), draw(int_exprs()))
                if draw(st.booleans()):
                    with b.orelse():
                        b.assign(draw(st.sampled_from(("s", "t"))), draw(int_exprs()))
            elif kind == 4:  # bounded counted loop
                trip = draw(st.integers(0, 6))
                var = f"i{depth}"
                with b.for_(var, 0, trip):
                    emit_block(depth + 1)
            else:  # nested structured block
                with b.if_(draw(conditions())):
                    emit_block(depth + 1)

    def abs_expr(e):
        from repro.ir import UnOp

        return UnOp("abs", e)

    emit_block(0)
    b.ret(Var("s") + Var("t"))
    return b.build()


@st.composite
def kernel_inputs(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return {
        "n": int(rng.integers(-3, 10)),
        "k": int(rng.integers(-5, 10)),
        "s": int(rng.integers(-5, 10)),
        "t": int(rng.integers(-5, 10)),
        "a": rng.integers(-10, 10, size=ARRAY_SIZE),
        "b": rng.integers(-10, 10, size=ARRAY_SIZE),
    }


# --------------------------------------------------------------------------- #
# float kernels: the shape of the data-oblivious tuning sections


@st.composite
def index_exprs(draw):
    """A subscript in range: a constant, a bounded scalar expression, or
    (rarely) one computed from array data."""
    from repro.ir import BinOp, Call, UnOp

    choice = draw(st.integers(0, 9))
    if choice < 4:
        return Const(draw(st.integers(0, ARRAY_SIZE - 1)))
    if choice < 9:
        base = draw(st.sampled_from(("n", "k", "i0", "i1")))
        shift = draw(st.integers(-3, 5))
        return BinOp("%", UnOp("abs", Var(base) + shift), Const(ARRAY_SIZE))
    data = Call("int", (draw(float_exprs(depth=2)),))
    return BinOp("%", UnOp("abs", data), Const(ARRAY_SIZE))


@st.composite
def float_exprs(draw, depth=0):
    """Float-valued expressions over ``s``, ``t`` and the float arrays;
    mostly the operations a data-oblivious kernel may apply to array data,
    sometimes others."""
    from repro.ir import BinOp, Call, UnOp

    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return Const(draw(st.sampled_from((0.5, 2.0, -1.25, 3.0))))
        if choice == 1:
            return Var(draw(st.sampled_from(("s", "t"))))
        return ArrayRef(draw(st.sampled_from(ARRAYS)), draw(index_exprs()))
    choice = draw(st.integers(0, 11))
    if choice < 7:
        op = draw(st.sampled_from(["+", "-", "*", "min", "max"]))
        return BinOp(op, draw(float_exprs(depth=depth + 1)), draw(float_exprs(depth=depth + 1)))
    if choice < 9:
        # a divisor from scalars (may be zero: an error on any data)
        divisor = draw(st.sampled_from([Var("s"), Var("t"), Const(4.0)]))
        if choice == 8:
            divisor = draw(float_exprs(depth=depth + 1))
        return BinOp("/", draw(float_exprs(depth=depth + 1)), divisor)
    if choice == 9:
        return UnOp(draw(st.sampled_from(["-", "abs"])), draw(float_exprs(depth=depth + 1)))
    fn = draw(st.sampled_from(["sqrt", "exp", "log", "sin", "cos", "floor"]))
    return Call(fn, (draw(float_exprs(depth=depth + 1)),))


@st.composite
def float_kernels(draw, max_stmts=5):
    """A random function over int scalars ``n``, ``k``, float scalars
    ``s``, ``t`` and float arrays ``a``, ``b``.  Branches and trip counts
    mostly depend on the int scalars, sometimes on array data."""
    from repro.ir import BinOp

    b = FunctionBuilder(
        "float_kernel",
        [
            ("n", Type.INT),
            ("k", Type.INT),
            ("s", Type.FLOAT),
            ("t", Type.FLOAT),
            ("a", Type.FLOAT_ARRAY),
            ("b", Type.FLOAT_ARRAY),
        ],
        return_type=Type.INT,
    )
    b.local("i0", Type.INT)
    b.local("i1", Type.INT)

    def condition():
        if draw(st.integers(0, 4)) == 0:
            return BinOp("<", draw(float_exprs(depth=2)), draw(float_exprs(depth=2)))
        op = draw(st.sampled_from(["<", "<=", ">", "!="]))
        return BinOp(op, Var(draw(st.sampled_from(("n", "k")))), Const(draw(st.integers(-2, 6))))

    def emit_block(depth: int) -> None:
        for _ in range(draw(st.integers(1, max_stmts))):
            kind = draw(st.integers(0, 5 if depth < 2 else 2))
            if kind == 0:
                b.assign(draw(st.sampled_from(("s", "t"))), draw(float_exprs()))
            elif kind in (1, 2):
                b.store(draw(st.sampled_from(ARRAYS)), draw(index_exprs()), draw(float_exprs()))
            elif kind == 3:
                with b.if_(condition()):
                    emit_block(depth + 1)
                if draw(st.booleans()):
                    with b.orelse():
                        emit_block(depth + 1)
            elif kind == 4:
                trip = Var("n") if draw(st.booleans()) else draw(st.integers(0, 5))
                with b.for_(f"i{depth}", 0, trip):
                    emit_block(depth + 1)
            else:
                b.assign("k", BinOp("+", Var("k"), Const(draw(st.integers(-2, 3)))))

    emit_block(0)
    b.ret(Var("k"))
    return b.build()
