"""Float semantics of the machine's value representation, at both tiers.

Float arrays reach the machine as Python lists of floats (``unbox``).
These tests pin what that means for the IR program's edge cases, on list
inputs, with Tier 0 as the oracle for Tier 1 (``run_differential``):

* division or modulo by a zero element raises an ``ExecutionError``;
* inf and NaN propagate the same way at both tiers;
* ``sqrt`` and ``log`` on out-of-domain inputs give the same values;
* an INT-typed value stored into a float array reads back as a ``float``;
* a NaN or non-integer subscript is an ``ExecutionError``, with the
  failing block's cache accesses rolled back at both tiers.

Values are compared by ``float.hex`` (NaN equal to NaN), together with
cycles, block counts, cache and predictor state, and error text.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import ArrayRef, BinOp, Call, Const, FunctionBuilder, Type, UnOp, Var
from repro.machine import (
    ExecutionError,
    Executor,
    PENTIUM4,
    SPARC2,
    TieredExecutor,
    compile_function,
)
from repro.machine.executor import unbox
from repro.store import Store

from .test_executor_differential import bits, run_differential

MACHINES = (SPARC2, PENTIUM4)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def div_fn(op):
    """``y[i] = x[i] <op> d[i]`` over the arrays, returning the sum."""
    b = FunctionBuilder(
        "div",
        [("n", Type.INT), ("x", Type.FLOAT_ARRAY), ("d", Type.FLOAT_ARRAY),
         ("y", Type.FLOAT_ARRAY)],
        return_type=Type.FLOAT,
    )
    b.local("acc", Type.FLOAT)
    with b.for_("i", 0, b.var("n")) as i:
        b.store("y", i, BinOp(op, ArrayRef("x", i), ArrayRef("d", i)))
        b.assign("acc", b.var("acc") + ArrayRef("y", i))
    b.ret(b.var("acc"))
    return b.build()


PY_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod, "//": operator.floordiv,
    "min": lambda p, q: p if p < q else q, "max": lambda p, q: p if p > q else q,
}


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("op", ["/", "%", "//"])
def test_division_by_a_zero_element_raises(machine, op):
    def env_fn(i):
        d = np.full(8, 2.0)
        if i >= 2:
            d[5] = 0.0 if i == 2 else -0.0
        return {"n": 8, "x": np.arange(8.0) - 3.0, "d": d, "y": np.zeros(8)}

    _, outcomes = run_differential(
        div_fn(op), env_fn, machine, invocations=4, lists_only=True
    )
    assert [err is None for err, _, _ in outcomes] == [True, True, False, False]
    assert outcomes[2][0].startswith("div/")
    assert ": runtime error ZeroDivisionError: " in outcomes[2][0]
    # the elements before the failing one were written, the rest were not
    y = outcomes[2][2]["y"]
    assert y[:5] == [PY_OPS[op](v, 2.0) for v in (-3.0, -2.0, -1.0, 0.0, 1.0)]
    assert y[5:] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("op", sorted(PY_OPS))
def test_inf_and_nan_propagate(machine, op):
    """Every element pair of special values (no zero divisor) computes
    what IEEE float arithmetic does, at both tiers."""
    xs = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e308, 5e-324, -2.5]
    ds = [math.inf, -math.inf, math.nan, 1e308, 5e-324, -2.5, 3.0, 1.0]

    def env_fn(i):
        return {"n": 8, "x": np.roll(np.array(xs), i), "d": np.array(ds),
                "y": np.zeros(8)}

    _, outcomes = run_differential(
        div_fn(op), env_fn, machine, invocations=4, lists_only=True
    )
    for i, (err, ret, env) in enumerate(outcomes):
        assert err is None
        want = [PY_OPS[op](x, d) for x, d in zip(np.roll(xs, i).tolist(), ds)]
        assert bits(env["y"]) == bits(want)
        assert any(math.isnan(v) for v in want)
        assert math.isnan(float.fromhex(ret[1]))  # NaN absorbs the sum


def intrinsic_fn(name):
    b = FunctionBuilder(
        "intr", [("n", Type.INT), ("x", Type.FLOAT_ARRAY), ("y", Type.FLOAT_ARRAY)]
    )
    with b.for_("i", 0, b.var("n")) as i:
        b.store("y", i, Call(name, (ArrayRef("x", i),)))
    b.ret()
    return b.build()


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("name", ["sqrt", "log", "exp", "floor"])
def test_intrinsics_out_of_domain(machine, name):
    values = [-1.0, 0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, 4.0]

    def env_fn(i):
        return {"n": 8, "x": np.array(values), "y": np.zeros(8)}

    _, outcomes = run_differential(
        intrinsic_fn(name), env_fn, machine, invocations=2, lists_only=True
    )
    want = [float(getattr(np, name)(v)) for v in values]
    for err, _, env in outcomes:
        assert err is None
        assert bits(env["y"]) == bits(want)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_int_value_stored_into_a_float_array_reads_back_as_float(machine):
    b = FunctionBuilder(
        "istore",
        [("n", Type.INT), ("x", Type.FLOAT_ARRAY), ("c", Type.INT_ARRAY)],
        return_type=Type.FLOAT,
    )
    b.local("q", Type.FLOAT)
    b.store("x", Const(0), b.var("n") * 3)                    # INT scalar
    b.store("x", Const(1), ArrayRef("c", Const(0)))           # int64 element
    b.store("x", Const(2), Call("int", (ArrayRef("x", Const(3)),)))
    b.store("x", Const(4), BinOp("<", b.var("n"), Const(9)))  # BOOL
    # a float element divides like a float: 7.0 // 2 is 3.0, not 3
    b.assign("q", BinOp("//", ArrayRef("x", Const(0)), Const(2)))
    b.ret(b.var("q"))
    fn = b.build()

    def env_fn(i):
        return {"n": 7 + i, "x": np.array([0.0, 0.0, 0.0, 2.75, 0.0]),
                "c": np.array([2**53 + 1, 5])}

    _, outcomes = run_differential(fn, env_fn, machine, invocations=2, lists_only=True)
    err, ret, env = outcomes[0]
    assert err is None
    assert env["x"] == [21.0, float(2**53 + 1), 2.0, 2.75, 1.0]
    assert all(type(v) is float for v in env["x"])
    assert ret == bits(10.0)
    assert type(env["c"]) is np.ndarray  # INT_ARRAY stays numpy


# --------------------------------------------------------------------------- #
# bad subscripts


def nan_subscript_fn():
    """``y = c[3]; a[x] = y`` with a float subscript *x*."""
    b = FunctionBuilder(
        "k", [("x", Type.FLOAT), ("a", Type.FLOAT_ARRAY), ("c", Type.FLOAT_ARRAY)]
    )
    b.local("y", Type.FLOAT)
    b.assign("y", ArrayRef("c", Const(3)))
    b.store("a", b.var("x"), b.var("y"))
    b.ret()
    return b.build()


def cache_lines(ex: Executor):
    cache = ex.cache
    lines = cache._direct if cache._direct is not None else cache._sets
    return [line for line in lines if line], cache.hits, cache.misses


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("as_list", [True, False], ids=["list", "ndarray"])
def test_nan_subscript_is_an_execution_error_at_both_tiers(machine, x, as_list):
    """``int(nan)`` raised a raw ``ValueError`` at both tiers, and Tier 1
    skipped its rollback: the block's ``c[3]`` access stayed resident."""
    fn = nan_subscript_fn()
    env = {"x": x, "a": np.zeros(8), "c": np.arange(8.0)}
    states = []
    for ex in (Executor(machine), TieredExecutor(machine, code_cache=Store())):
        run_env = unbox(env) if as_list else dict(env, a=np.zeros(8))
        with pytest.raises(ExecutionError, match="k/entry: runtime error") as info:
            ex.run(compile_function(fn, machine), run_env)
        states.append((str(info.value), cache_lines(ex)))
    assert states[0] == states[1]
    assert states[0][1] == ([], 0, 0)  # no access of the failing block stayed


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("as_list", [True, False], ids=["list", "ndarray"])
def test_non_integer_runtime_subscript_is_an_execution_error(machine, as_list):
    """An INT-typed subscript holding a float at run time: numpy raised
    ``IndexError`` and a list raises ``TypeError`` at Tier 0, and Tier 1's
    cache-line shift raised a raw ``TypeError``.  All are ExecutionErrors
    with the same cache state; the message names the first operation that
    failed, which differs between the tiers for this ill-typed program."""
    b = FunctionBuilder("g", [("j", Type.INT), ("a", Type.FLOAT_ARRAY)],
                        return_type=Type.FLOAT)
    b.ret(ArrayRef("a", b.var("j")))
    fn = b.build()
    errors = []
    for ex in (Executor(machine), TieredExecutor(machine, code_cache=Store())):
        env = {"j": 2.5, "a": np.zeros(4)}
        with pytest.raises(ExecutionError, match="g/entry: runtime error"):
            ex.run(compile_function(fn, machine), unbox(env) if as_list else env)
        errors.append(cache_lines(ex))
    assert errors[0] == errors[1] == ([], 0, 0)


# --------------------------------------------------------------------------- #
# property-based: random float kernels over special values

SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -2.5, 3.0, 1e308, 5e-324)
SIZE = 8


@st.composite
def float_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return Const(draw(st.sampled_from((0.0, 1.0, -2.0, 0.5))))
        if choice == 1:
            return Var(draw(st.sampled_from(("x", "s", "t"))))
        return ArrayRef(draw(st.sampled_from(("a", "b"))),
                        Const(draw(st.integers(0, SIZE - 1))))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return UnOp(draw(st.sampled_from(("-", "abs"))), draw(float_exprs(depth=depth + 1)))
    if kind == 1:
        return Call(draw(st.sampled_from(("sqrt", "log", "exp", "floor"))),
                    (draw(float_exprs(depth=depth + 1)),))
    op = draw(st.sampled_from(("+", "-", "*", "/", "%", "min", "max")))
    return BinOp(op, draw(float_exprs(depth=depth + 1)), draw(float_exprs(depth=depth + 1)))


@st.composite
def float_kernels(draw):
    """A random function over a float scalar and two float arrays."""
    b = FunctionBuilder(
        "fk",
        [("n", Type.INT), ("x", Type.FLOAT), ("a", Type.FLOAT_ARRAY),
         ("b", Type.FLOAT_ARRAY)],
        return_type=Type.FLOAT,
    )
    b.local("s", Type.FLOAT)
    b.local("t", Type.FLOAT)
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            b.assign(draw(st.sampled_from(("s", "t"))), draw(float_exprs()))
        elif kind == 1:
            b.store(draw(st.sampled_from(("a", "b"))),
                    Const(draw(st.integers(0, SIZE - 1))), draw(float_exprs()))
        elif kind == 2:  # a store of an INT value
            b.store("a", Const(draw(st.integers(0, SIZE - 1))),
                    Call("int", (draw(float_exprs()),)))
        elif kind == 3:
            cmp = draw(st.sampled_from(("<", "<=", ">", ">=", "==", "!=")))
            with b.if_(BinOp(cmp, draw(float_exprs()), draw(float_exprs()))):
                b.assign("s", draw(float_exprs()))
        else:
            with b.for_("i", 0, b.var("n")) as i:
                b.store("b", i, ArrayRef("b", i) + draw(float_exprs()))
    b.ret(b.var("s") + b.var("t"))
    return b.build()


@settings(max_examples=60, deadline=None)
@given(
    fn=float_kernels(),
    a=st.lists(st.sampled_from(SPECIAL), min_size=SIZE, max_size=SIZE),
    b=st.lists(st.sampled_from(SPECIAL), min_size=SIZE, max_size=SIZE),
    x=st.sampled_from(SPECIAL),
    machine=st.sampled_from(MACHINES),
)
def test_random_float_kernels_over_special_values(fn, a, b, x, machine):
    def env_fn(i):
        return {"n": SIZE, "x": x, "a": np.roll(np.array(a), i), "b": np.array(b)}

    run_differential(fn, env_fn, machine, invocations=3, lists_only=True)
