"""Tests for the timing executor: value semantics and cycle accounting."""

import numpy as np
import pytest

import repro.machine.executor as executor_mod
from repro.ir import ArrayRef, FunctionBuilder, Type, Var, eq
from repro.ir.stmt import CondBranch
from repro.machine import (
    CostFactors,
    ExecutionError,
    Executor,
    PENTIUM4,
    SPARC2,
    compile_function,
)


def saxpy_fn():
    b = FunctionBuilder(
        "saxpy",
        [
            ("n", Type.INT),
            ("a", Type.FLOAT),
            ("x", Type.FLOAT_ARRAY),
            ("y", Type.FLOAT_ARRAY),
        ],
    )
    with b.for_("i", 0, b.var("n")) as i:
        b.store("y", i, Var("a") * ArrayRef("x", i) + ArrayRef("y", i))
    b.ret()
    return b.build()


def run_saxpy(n=8, machine=SPARC2, executor=None, **kw):
    fn = saxpy_fn()
    exe = compile_function(fn, machine)
    x = np.arange(n, dtype=float)
    y = np.ones(n)
    env = {"n": n, "a": 2.0, "x": x, "y": y}
    execu = executor or Executor(machine)
    res = execu.run(exe, env, **kw)
    return res, x, y


class TestValueSemantics:
    def test_saxpy_computes_correctly(self):
        res, x, y = run_saxpy(8)
        np.testing.assert_allclose(y, 2.0 * np.arange(8) + 1.0)

    def test_return_value(self):
        b = FunctionBuilder("sq", [("x", Type.FLOAT)], return_type=Type.FLOAT)
        b.ret(b.var("x") * b.var("x"))
        exe = compile_function(b.build(), SPARC2)
        res = Executor(SPARC2).run(exe, {"x": 3.0})
        assert res.return_value == 9.0

    def test_conditional_execution(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.local("y", Type.INT)
        with b.if_(b.var("x") > 0):
            b.assign("y", 1)
        with b.orelse():
            b.assign("y", -1)
        b.ret(b.var("y"))
        exe = compile_function(b.build(), SPARC2)
        ex = Executor(SPARC2)
        assert ex.run(exe, {"x": 5}).return_value == 1
        assert ex.run(exe, {"x": -5}).return_value == -1

    def test_while_loop_and_locals_zero_initialised(self):
        b = FunctionBuilder("count", [("n", Type.INT)], return_type=Type.INT)
        b.local("i", Type.INT)
        with b.while_(Var("i") < Var("n")):
            b.assign("i", b.var("i") + 1)
        b.ret(b.var("i"))
        exe = compile_function(b.build(), SPARC2)
        assert Executor(SPARC2).run(exe, {"n": 13}).return_value == 13

    def test_intrinsics(self):
        from repro.ir import sqrt

        b = FunctionBuilder("f", [("x", Type.FLOAT)], return_type=Type.FLOAT)
        b.ret(sqrt(b.var("x")))
        exe = compile_function(b.build(), SPARC2)
        assert Executor(SPARC2).run(exe, {"x": 16.0}).return_value == 4.0

    def test_data_dependent_early_exit(self):
        b = FunctionBuilder(
            "find", [("n", Type.INT), ("a", Type.INT_ARRAY)], return_type=Type.INT
        )
        b.local("pos", Type.INT)
        b.assign("pos", -1)
        with b.for_("i", 0, b.var("n")) as i:
            with b.if_(eq(ArrayRef("a", i), 7)):
                b.assign("pos", i)
                b.break_()
        b.ret(b.var("pos"))
        exe = compile_function(b.build(), SPARC2)
        a = np.array([3, 1, 7, 7, 2])
        res = Executor(SPARC2).run(exe, {"n": 5, "a": a})
        assert res.return_value == 2

    def test_missing_argument_raises(self):
        fn = saxpy_fn()
        exe = compile_function(fn, SPARC2)
        with pytest.raises(ExecutionError, match="missing argument"):
            Executor(SPARC2).run(exe, {"n": 4})

    def test_out_of_bounds_raises_execution_error(self):
        fn = saxpy_fn()
        exe = compile_function(fn, SPARC2)
        env = {"n": 100, "a": 1.0, "x": np.zeros(4), "y": np.zeros(4)}
        with pytest.raises(ExecutionError):
            Executor(SPARC2).run(exe, env)

    def test_division_by_zero_raises(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.ret(b.var("x") // 0)
        exe = compile_function(b.build(), SPARC2)
        with pytest.raises(ExecutionError):
            Executor(SPARC2).run(exe, {"x": 1})

    def test_caller_env_arrays_mutated_in_place(self):
        res, x, y = run_saxpy(4)
        assert y[0] == 1.0  # y[0] = 2*0+1


class TestCycleAccounting:
    def test_cycles_positive_and_scale_with_n(self):
        r8, *_ = run_saxpy(8)
        ex = Executor(SPARC2)
        fn = saxpy_fn()
        exe = compile_function(fn, SPARC2)
        env16 = {"n": 16, "a": 2.0, "x": np.zeros(16), "y": np.zeros(16)}
        r16 = ex.run(exe, env16)
        assert r16.cycles > r8.cycles > 0

    def test_block_counts(self):
        res, *_ = run_saxpy(8, count_blocks=True)
        counts = res.block_counts
        body = [v for k, v in counts.items() if k.startswith("loop_body")]
        assert body == [8]
        hdr = [v for k, v in counts.items() if k.startswith("loop_header")]
        assert hdr == [9]
        assert counts["entry"] == 1

    def test_cold_vs_warm_cache(self):
        ex = Executor(SPARC2)
        fn = saxpy_fn()
        exe = compile_function(fn, SPARC2)
        x, y = np.zeros(64), np.zeros(64)
        env = {"n": 64, "a": 2.0, "x": x, "y": y}
        cold = ex.run(exe, dict(env))
        warm = ex.run(exe, dict(env))
        assert warm.cycles < cold.cycles
        assert warm.mem_cycles < cold.mem_cycles

    def test_reset_recools_the_machine(self):
        ex = Executor(SPARC2)
        fn = saxpy_fn()
        exe = compile_function(fn, SPARC2)
        env = {"n": 64, "a": 2.0, "x": np.zeros(64), "y": np.zeros(64)}
        cold = ex.run(exe, dict(env))
        ex.run(exe, dict(env))
        ex.reset()
        recold = ex.run(exe, dict(env))
        assert recold.cycles == pytest.approx(cold.cycles)

    def test_mem_factor_scales_memory_cycles(self):
        ex = Executor(SPARC2)
        fn = saxpy_fn()
        exe = compile_function(fn, SPARC2)
        env = {"n": 32, "a": 2.0, "x": np.zeros(32), "y": np.zeros(32)}
        base = ex.run(exe, dict(env))
        ex.reset()
        doubled = ex.run(exe, dict(env), factors=CostFactors(mem=2.0))
        assert doubled.mem_cycles == pytest.approx(2.0 * base.mem_cycles)

    def test_branch_misses_on_alternating_branch(self):
        # branch flips every iteration -> the 1-bit predictor misses a lot
        b = FunctionBuilder("alt", [("n", Type.INT)], return_type=Type.INT)
        b.local("s", Type.INT)
        with b.for_("i", 0, b.var("n")) as i:
            with b.if_(eq(i % 2, 0)):
                b.assign("s", b.var("s") + 1)
        b.ret(b.var("s"))
        exe = compile_function(b.build(), PENTIUM4)
        ex = Executor(PENTIUM4)
        res = ex.run(exe, {"n": 50})
        assert res.branch_miss_cycles > 40 * PENTIUM4.branch_miss_cycles

    def test_biased_branch_predicts_well(self):
        b = FunctionBuilder("biased", [("n", Type.INT)], return_type=Type.INT)
        b.local("s", Type.INT)
        with b.for_("i", 0, b.var("n")) as i:
            with b.if_(i < b.var("n") - 1):
                b.assign("s", b.var("s") + 1)
        b.ret(b.var("s"))
        exe = compile_function(b.build(), PENTIUM4)
        ex = Executor(PENTIUM4)
        ex.run(exe, {"n": 50})  # warm the predictor
        res = ex.run(exe, {"n": 50})
        # inner if mispredicts only at the last iteration + loop exits
        assert res.branch_miss_cycles <= 4 * PENTIUM4.branch_miss_cycles

    def test_spill_cycles_override(self):
        fn = saxpy_fn()
        body = [l for l in fn.cfg.blocks if l.startswith("loop_body")][0]
        base_exe = compile_function(fn, SPARC2)
        spilled = compile_function(fn, SPARC2, block_spill_cycles={body: 10.0})
        env = lambda: {"n": 16, "a": 1.0, "x": np.zeros(16), "y": np.zeros(16)}
        ex = Executor(SPARC2)
        r0 = ex.run(base_exe, env())
        ex.reset()
        r1 = ex.run(spilled, env())
        assert r1.cycles == pytest.approx(r0.cycles + 160.0)

    def test_compute_cycles_override(self):
        fn = saxpy_fn()
        body = [l for l in fn.cfg.blocks if l.startswith("loop_body")][0]
        cheap = compile_function(fn, SPARC2, block_compute_cycles={body: 0.0})
        full = compile_function(fn, SPARC2)
        env = lambda: {"n": 16, "a": 1.0, "x": np.zeros(16), "y": np.zeros(16)}
        ex = Executor(SPARC2)
        r_full = ex.run(full, env())
        ex.reset()
        r_cheap = ex.run(cheap, env())
        assert r_cheap.cycles < r_full.cycles

    def test_only_blocks_without_override_are_priced(self, monkeypatch):
        fn = saxpy_fn()
        priced = []
        real = executor_mod.block_static_costs

        def spy(f, table, labels=None):
            priced.append(labels)
            return real(f, table, labels)

        monkeypatch.setattr(executor_mod, "block_static_costs", spy)
        full = {label: 1.0 for label in fn.cfg.blocks}
        compile_function(fn, SPARC2, block_compute_cycles=full)
        assert priced == []
        body = [l for l in fn.cfg.blocks if l.startswith("loop_body")][0]
        partial = compile_function(fn, SPARC2, block_compute_cycles={body: 0.5})
        assert priced == [[l for l in fn.cfg.blocks if l != body]]
        default = real(fn, SPARC2.cost)
        for label, blk in partial.blocks.items():
            expected = 0.5 if label == body else default[label].compute_cycles
            assert blk.compute_cycles == expected


class TestClosures:
    def test_built_on_the_first_frame(self):
        exe = compile_function(saxpy_fn(), SPARC2)
        blocks = exe.blocks.values()
        assert all(b.steps is None and b.term is None for b in blocks)
        res0, _, _ = run_saxpy()
        ex = Executor(SPARC2)
        env = {"n": 8, "a": 2.0, "x": np.arange(8, dtype=float), "y": np.ones(8)}
        assert ex.run(exe, env).cycles == res0.cycles
        assert all(b.term is not None for b in blocks)
        assert all(len(b.steps) == len(exe.source.cfg.blocks[b.label].stmts)
                   for b in blocks)

    def test_built_once(self):
        exe = compile_function(saxpy_fn(), SPARC2)
        exe.build_closures()
        closures = [(b.steps, b.term) for b in exe.blocks.values()]
        exe.build_closures()
        Executor(SPARC2).run(
            exe, {"n": 4, "a": 1.0, "x": np.zeros(4), "y": np.zeros(4)}
        )
        assert all(
            b.steps is steps and b.term is term
            for b, (steps, term) in zip(exe.blocks.values(), closures)
        )

    def test_compile_records_dispatch_facts_from_the_ir(self):
        b = FunctionBuilder("f", [("x", Type.FLOAT)], return_type=Type.FLOAT)
        b.local("r", Type.FLOAT)
        with b.if_(Var("x") > 0.0):
            b.assign("r", Var("x") + 1.0)
        b.ret(b.var("r"))
        exe = compile_function(b.build(), SPARC2)
        for label, blk in exe.source.cfg.blocks.items():
            cb = exe.blocks[label]
            assert cb.label == label
            assert cb.is_branch == isinstance(blk.terminator, CondBranch)
            assert cb.branch_key == (("f", label) if cb.is_branch else None)
        assert any(cb.is_branch for cb in exe.blocks.values())
        assert Executor(SPARC2).run(exe, {"x": 2.0}).return_value == 3.0


