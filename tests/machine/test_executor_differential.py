"""Differential fuzzing: Tier 1 (whole-function compilation) vs Tier 0
(interpreter).

The tiered executor's contract is *bit-identical* results — cycles,
mem/branch-miss split, block counts, return values, array state, and the
persistent machine state (cache lines, LRU order, predictor table) — for
any IR program, on both paper machines, with or without counting, through
errors and step-budget exhaustion, with float arrays bound as lists (as
feeds and datasets hand them out) or as ndarrays.  These tests enforce that contract on
hand-written adversarial kernels and on random IR programs.  After every
invocation both executors' Pentium 4 caches must also keep their MRU table
(``CacheSim._mru``, which compiled code trusts) in step with the way lists.
Generated code is keyed on IR and machine, with block costs as call
arguments, so the random programs also run a cost-perturbed twin that
shares the first executable's code and must still equal Tier 0 on itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import ArrayRef, Const, FunctionBuilder, Type, Var
from repro.machine import (
    AddressMap,
    ExecutionError,
    Executor,
    PENTIUM4,
    SPARC2,
    TieredExecutor,
    compile_function,
)
from repro.machine.executor import unbox
from repro.store import Store

from ..strategies import kernel_inputs, kernels

MACHINES = (SPARC2, PENTIUM4)


def machine_state(ex: Executor):
    return (
        list(ex.cache._direct) if ex.cache._direct is not None else None,
        [list(w) for w in ex.cache._sets],
        ex.cache.hits,
        ex.cache.misses,
        dict(ex.branch_state),
    )


def assert_mru_in_step(ex: Executor) -> None:
    """An associative cache's MRU table mirrors its way lists."""
    cache = ex.cache
    if cache._mru is not None:
        assert cache._mru == [w[-1] if w else None for w in cache._sets]


def bits(value):
    """A value's exact identity: its type and, for a float, its hex (NaN
    equals NaN, 0.0 differs from -0.0); arrays element by element."""
    if isinstance(value, (list, np.ndarray)):
        return type(value).__name__, [bits(v) for v in value]
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    return type(value).__name__, repr(value)


def run_differential(
    fn, env_fn, machine, *, invocations=6, max_steps=None,
    lists_only=False, twin_scale=None,
):
    """Run the same invocation sequence through both tiers and compare.

    *env_fn(i)* builds the i-th environment (called once per tier so each
    executor mutates its own arrays).  Invocations alternate
    ``count_blocks`` to cover both generated-code variants.  Float arrays
    are bound as feeds and datasets hand them out, unboxed to lists, except
    that every second pair of invocations keeps the ndarrays (an input a
    feed shares across positions) unless *lists_only*.  Values compare by
    :func:`bits`.  With *twin_scale*, each invocation is followed by one
    of a twin executable whose block costs are perturbed
    (:func:`cost_twin`), on the same two executors; Tier 1 must run it
    through the first executable's code.  Returns the Tier-1 executor (for
    engagement assertions) and Tier 0's outcome per invocation of the
    first executable: ``(error text or None, bits of the return value,
    env)``.
    """
    exe0 = compile_function(fn, machine)
    exe1 = compile_function(fn, machine)
    pairs = [(exe0, exe1)]
    if twin_scale is not None:
        pairs.append((
            cost_twin(exe0, machine, twin_scale), cost_twin(exe1, machine, twin_scale)
        ))
    ex0 = Executor(machine)
    ex1 = TieredExecutor(machine, code_cache=Store())
    if max_steps is not None:
        ex0.MAX_STEPS = max_steps
        ex1.MAX_STEPS = max_steps
    outcomes = []
    for k in range(invocations * len(pairs)):
        # invocation i of the first executable, then of its twin
        i, (exe0, exe1) = k // len(pairs), pairs[k % len(pairs)]
        bind = unbox if lists_only or i // 2 % 2 == 0 else dict
        env0, env1 = bind(env_fn(i)), bind(env_fn(i))
        count = i % 2 == 1
        err0 = err1 = None
        r0 = r1 = None
        try:
            r0 = ex0.run(exe0, env0, count_blocks=count)
        except ExecutionError as e:
            err0 = str(e)
        try:
            r1 = ex1.run(exe1, env1, count_blocks=count)
        except ExecutionError as e:
            err1 = str(e)
        assert err0 == err1
        # these programs are well typed: a TypeError would be a bug of the
        # executor or its generated code, reported as the program's error
        assert "runtime error TypeError" not in (err0 or "")
        if r0 is not None:
            assert r0.cycles == r1.cycles
            assert r0.mem_cycles == r1.mem_cycles
            assert r0.branch_miss_cycles == r1.branch_miss_cycles
            assert r0.block_counts == r1.block_counts
            assert bits(r0.return_value) == bits(r1.return_value)
        assert {k: bits(v) for k, v in env0.items()} == {
            k: bits(v) for k, v in env1.items()
        }
        assert machine_state(ex0) == machine_state(ex1)
        assert_mru_in_step(ex0)
        assert_mru_in_step(ex1)
        if exe0 is pairs[0][0]:
            outcomes.append((err0, r0 and bits(r0.return_value), env0))
    if twin_scale is not None:
        assert pairs[1][1]._jit_fn is pairs[0][1]._jit_fn
    return ex1, outcomes


def cost_twin(exe, machine, scale):
    """An executable of *exe*'s IR whose block costs differ:
    each compute cost scaled by *scale*, plus a spill cost that varies by
    block."""
    return compile_function(
        exe.source, machine,
        block_compute_cycles={
            label: blk.compute_cycles * scale for label, blk in exe.blocks.items()
        },
        block_spill_cycles={
            label: 0.125 * (i % 5) + scale for i, label in enumerate(exe.blocks)
        },
    )


def fully_compiled(ex1: TieredExecutor) -> bool:
    """Every frame ran compiled code and no block fell back to Tier 0."""
    return ex1.compiled_frames > 0 and ex1.interpreted_blocks == 0


def tier0_only(ex1: TieredExecutor) -> bool:
    """No frame ran compiled code: Tier 1 handed every one to Tier 0 (the
    function declines Tier 1)."""
    return ex1.compiled_frames == 0 and ex1.interpreted_blocks > 0


def windowed_variants(ex1: TieredExecutor) -> set[bool]:
    """The ``windowed`` flags of every compiled variant the frames used."""
    return {
        key[1]
        for wf in ex1.code_cache._entries.values()
        for key in wf._fns
    }


# --------------------------------------------------------------------------- #
# hand-written adversarial kernels


def hot_loop_fn(name="hot"):
    """The canonical Tier-1 target: a tight counted loop over two arrays."""
    b = FunctionBuilder(
        name,
        [("n", Type.INT), ("x", Type.FLOAT_ARRAY), ("y", Type.FLOAT_ARRAY)],
        return_type=Type.FLOAT,
    )
    b.local("acc", Type.FLOAT)
    with b.for_("i", 0, b.var("n")) as i:
        b.store("y", i, ArrayRef("x", i) * 2.0 + ArrayRef("y", i))
        b.assign("acc", b.var("acc") + ArrayRef("y", i))
    b.ret(b.var("acc"))
    return b.build()


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_hot_loop_windowed(machine):
    """Small arrays: the window precondition holds, memo codegen runs."""
    fn = hot_loop_fn()

    def env_fn(i):
        rng = np.random.default_rng(i)
        return {"n": 48, "x": rng.normal(size=48), "y": rng.normal(size=48)}

    ex1, _ = run_differential(fn, env_fn, machine)
    assert fully_compiled(ex1)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_hot_loop_large_arrays_not_windowed(machine):
    """Arrays larger than the cache: windowed codegen must stand down."""
    fn = hot_loop_fn()
    n = 4096  # 32 KB per array > both machines' caches

    def env_fn(i):
        rng = np.random.default_rng(i)
        return {"n": n, "x": rng.normal(size=n), "y": rng.normal(size=n)}

    ex1, _ = run_differential(fn, env_fn, machine, invocations=4)
    assert fully_compiled(ex1)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_conflicting_lines_stress_cache_state(machine):
    """Strided accesses that collide in cache sets: evictions (and LRU
    reordering on the Pentium 4) must match exactly."""
    b = FunctionBuilder(
        "conflict",
        [("n", Type.INT), ("s", Type.INT), ("a", Type.FLOAT_ARRAY)],
        return_type=Type.FLOAT,
    )
    b.local("acc", Type.FLOAT)
    with b.for_("i", 0, b.var("n")) as i:
        b.assign("acc", b.var("acc") + ArrayRef("a", (i * Var("s")) % 4096))
    b.ret(b.var("acc"))
    fn = b.build()

    def env_fn(i):
        rng = np.random.default_rng(100 + i)
        # stride of one cache-set span: maximal conflict pressure
        return {"n": 64, "s": 512 + i, "a": rng.normal(size=4096)}

    run_differential(fn, env_fn, machine)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_error_mid_trace_preserves_state(machine):
    """An out-of-bounds store on a data-dependent iteration must raise the
    same error and leave cache/predictor state exactly as Tier 0 does
    (the failing block's accesses never happened)."""
    b = FunctionBuilder(
        "oob",
        [("n", Type.INT), ("m", Type.INT), ("a", Type.FLOAT_ARRAY)],
    )
    with b.for_("i", 0, b.var("n")) as i:
        b.store("a", i % Var("m"), ArrayRef("a", i % Var("m")) + 1.0)
    b.ret()
    fn = b.build()

    def env_fn(i):
        # m=0 on later invocations: ZeroDivisionError inside the hot loop
        return {"n": 40, "m": 8 if i < 3 else 0, "a": np.zeros(8)}

    run_differential(fn, env_fn, machine)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_index_error_mid_trace(machine):
    fn = hot_loop_fn()

    def env_fn(i):
        size = 48 if i < 3 else 16  # n stays 48: IndexError mid-loop
        rng = np.random.default_rng(i)
        return {"n": 48, "x": rng.normal(size=48), "y": np.zeros(size)}

    run_differential(fn, env_fn, machine)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_step_budget_exhaustion(machine):
    """With a tiny step budget the JIT must exhaust at Tier 0's exact
    block (the hoisted budget guard falls back to interpretation)."""
    fn = hot_loop_fn()

    def env_fn(i):
        rng = np.random.default_rng(i)
        return {"n": 200, "x": rng.normal(size=200), "y": rng.normal(size=200)}

    ex1, _ = run_differential(fn, env_fn, machine, max_steps=150)
    assert ex1.interpreted_blocks > 0  # the guard handed the tail to Tier 0


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_negative_and_aliased_indexes(machine):
    """Negative indexes (Python wraparound) and scalar-dependent reuse."""
    b = FunctionBuilder(
        "neg",
        [("n", Type.INT), ("a", Type.FLOAT_ARRAY)],
        return_type=Type.FLOAT,
    )
    b.local("acc", Type.FLOAT)
    with b.for_("i", 0, b.var("n")) as i:
        b.assign("acc", b.var("acc") + ArrayRef("a", Const(0) - i))
        b.store("a", Const(0) - i, b.var("acc"))
    b.ret(b.var("acc"))
    fn = b.build()

    def env_fn(i):
        rng = np.random.default_rng(i)
        return {"n": 30, "a": rng.normal(size=32)}

    run_differential(fn, env_fn, machine)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_branchy_trace_side_exits(machine):
    """A data-dependent branch inside the loop: both arms are inlined in
    the loop chain and predictor accounting must align."""
    b = FunctionBuilder(
        "branchy",
        [("n", Type.INT), ("a", Type.FLOAT_ARRAY)],
        return_type=Type.FLOAT,
    )
    b.local("acc", Type.FLOAT)
    with b.for_("i", 0, b.var("n")) as i:
        with b.if_(ArrayRef("a", i) > 0.0):
            b.assign("acc", b.var("acc") + ArrayRef("a", i))
        with b.orelse():
            b.assign("acc", b.var("acc") - ArrayRef("a", i))
    b.ret(b.var("acc"))
    fn = b.build()

    def env_fn(i):
        rng = np.random.default_rng(i)
        return {"n": 64, "a": rng.normal(size=64)}

    run_differential(fn, env_fn, machine)


def test_interleaved_functions_share_machine_state():
    """Two functions alternating on one executor: code from one must
    see cache/predictor effects of the other exactly as Tier 0 does."""
    fn_a = hot_loop_fn("fa")
    fn_b = hot_loop_fn("fb")
    machine = SPARC2
    exe0a, exe0b = compile_function(fn_a, machine), compile_function(fn_b, machine)
    exe1a, exe1b = compile_function(fn_a, machine), compile_function(fn_b, machine)
    ex0 = Executor(machine)
    ex1 = TieredExecutor(machine, code_cache=Store())
    for i in range(8):
        rng0, rng1 = np.random.default_rng(i), np.random.default_rng(i)
        e0 = {"n": 32, "x": rng0.normal(size=32), "y": rng0.normal(size=32)}
        e1 = {"n": 32, "x": rng1.normal(size=32), "y": rng1.normal(size=32)}
        pick0 = (exe0a, exe0b)[i % 2]
        pick1 = (exe1a, exe1b)[i % 2]
        r0 = ex0.run(pick0, unbox(e0))
        r1 = ex1.run(pick1, unbox(e1))
        assert r0.cycles == r1.cycles
        assert machine_state(ex0) == machine_state(ex1)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_error_after_non_mru_hit_keeps_lru_order(machine):
    """A block whose only cache mutation is a non-MRU hit (no miss) must
    leave nothing in the undo log: a later block that raises rolls back
    only its own accesses, so the set's LRU order stays Tier 0's."""
    b = FunctionBuilder(
        "lru",
        [
            ("n", Type.INT),
            ("a", Type.FLOAT_ARRAY),
            ("b", Type.FLOAT_ARRAY),
            ("idx", Type.INT_ARRAY),
        ],
        return_type=Type.FLOAT,
    )
    b.local("s", Type.FLOAT)
    with b.for_("i", 0, b.var("n")) as i:
        b.assign("s", ArrayRef("a", i) + ArrayRef("b", i) + ArrayRef("a", i))
        with b.if_(b.var("n") > 0):
            b.assign("s", b.var("s") + ArrayRef("a", ArrayRef("idx", i)))
    b.ret(b.var("s"))
    fn = b.build()

    def env_fn(i):
        # 248 floats: b starts 32 lines after a, so a[i] and b[i] share a
        # Pentium 4 set; idx goes out of range from invocation 3 on
        rng = np.random.default_rng(i)
        idx = np.arange(248) % 8 if i < 3 else np.full(248, 10_000)
        return {"n": 40, "a": rng.normal(size=248), "b": rng.normal(size=248),
                "idx": idx}

    run_differential(fn, env_fn, machine)


def test_swim_shaped_stencil_beyond_the_window():
    """fig7-swim's shape on the Pentium 4: six 48-element float arrays in a
    3-point stencil span 47 cache lines, more than the 32 sets, so the
    memo variant stands down and every access goes through the MRU-table
    compare; two arrays share a set every iteration, so non-MRU hits
    reorder the way lists."""
    machine = PENTIUM4
    names = ("p", "pold", "u", "uold", "v", "vold")
    b = FunctionBuilder(
        "calc",
        [("n", Type.INT)] + [(name, Type.FLOAT_ARRAY) for name in names],
    )
    with b.for_("i", 1, b.var("n") - 1) as i:
        b.store("u", i, ArrayRef("uold", i)
                + 0.25 * (ArrayRef("p", i + 1) - ArrayRef("p", i - 1)))
        b.store("v", i, ArrayRef("vold", i)
                + 0.25 * (ArrayRef("p", i + 1) - 2.0 * ArrayRef("p", i)
                          + ArrayRef("p", i - 1)))
        b.store("pold", i, ArrayRef("p", i)
                + 0.5 * (ArrayRef("u", i) + ArrayRef("v", i)))
    b.ret()
    fn = b.build()

    def env_fn(i):
        rng = np.random.default_rng(i)
        return {"n": 48, **{name: rng.normal(size=48) for name in names}}

    window = AddressMap.for_env(env_fn(0), line=machine.cache_line).window_lines
    n_sets = machine.cache_size // (machine.cache_line * machine.cache_assoc)
    assert (window, n_sets) == (47, 32)
    ex1, _ = run_differential(fn, env_fn, machine)
    assert fully_compiled(ex1)
    assert windowed_variants(ex1) == {False}


# --------------------------------------------------------------------------- #
# property-based: random IR programs


TWIN_SCALES = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    fn=kernels(), env=kernel_inputs(), machine=st.sampled_from(MACHINES),
    twin_scale=TWIN_SCALES,
)
def test_random_kernels_differential(fn, env, machine, twin_scale):
    """Random structured kernels: both tiers agree invocation by
    invocation, including every piece of persistent machine state, on the
    kernel and on a cost-perturbed twin that shares its generated code."""

    def env_fn(i):
        e = dict(env)
        e["a"] = np.array(env["a"])
        e["b"] = np.array(env["b"])
        e["k"] = env["k"] + i  # vary inputs so branches flip across calls
        return e

    run_differential(fn, env_fn, machine, invocations=5, twin_scale=twin_scale)


@settings(max_examples=25, deadline=None)
@given(
    fn=kernels(),
    env=kernel_inputs(),
    machine=st.sampled_from(MACHINES),
    max_steps=st.integers(min_value=1, max_value=60),
    twin_scale=TWIN_SCALES,
)
def test_random_kernels_exhaust_at_tier0_block(fn, env, machine, max_steps, twin_scale):
    """Random kernels under a tiny step budget: the budget guard hands
    each frame to Tier 0 wherever the remaining budget cannot cover a
    chain, so exhaustion (or completion) matches Tier 0 exactly, also for
    a cost-perturbed twin that resumes from shared code."""

    def env_fn(i):
        e = dict(env)
        e["a"] = np.array(env["a"])
        e["b"] = np.array(env["b"])
        e["k"] = env["k"] + i
        return e

    run_differential(
        fn, env_fn, machine, invocations=3, max_steps=max_steps,
        twin_scale=twin_scale,
    )

