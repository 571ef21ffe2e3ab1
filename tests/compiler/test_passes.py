"""Unit tests for individual optimization passes."""

import numpy as np

from repro.compiler.passes import (
    common_subexpression_elimination,
    constant_propagation,
    crossjump,
    dead_code_elimination,
    if_conversion,
    loop_invariant_code_motion,
    peephole,
    strength_reduce,
    thread_jumps,
    unroll_loops,
)
from repro.ir import (
    ArrayRef,
    Assign,
    BinOp,
    CondBranch,
    Const,
    FunctionBuilder,
    Jump,
    Type,
    Var,
    validate_function,
)
from repro.machine import Executor, SPARC2, compile_function


def run_fn(fn, env):
    exe = compile_function(fn, SPARC2)
    return Executor(SPARC2).run(exe, dict(env))


def total_stmts(fn):
    return sum(len(b.stmts) for b in fn.cfg.blocks.values())


class TestConstProp:
    def test_folds_constant_chain(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.local("a", Type.INT)
        b.local("c", Type.INT)
        b.assign("a", 3)
        b.assign("c", b.var("a") * 4 + 2)
        b.ret(b.var("c") + b.var("x"))
        fn = b.build()
        constant_propagation(fn)
        validate_function(fn)
        # c is now a constant 14; the return should fold to x + 14 shape
        res = run_fn(fn, {"x": 1})
        assert res.return_value == 15

    def test_folds_constant_branch(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.local("flag", Type.INT)
        b.local("y", Type.INT)
        b.assign("flag", 1)
        with b.if_(b.var("flag") > 0):
            b.assign("y", 10)
        with b.orelse():
            b.assign("y", 20)
        b.ret(b.var("y"))
        fn = b.build()
        n_before = len(fn.cfg.blocks)
        constant_propagation(fn)
        validate_function(fn)
        assert len(fn.cfg.blocks) < n_before  # dead arm removed
        assert run_fn(fn, {"x": 0}).return_value == 10

    def test_does_not_fold_param(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.ret(b.var("x") + 1)
        fn = b.build()
        assert constant_propagation(fn) is False
        assert run_fn(fn, {"x": 5}).return_value == 6

    def test_merge_point_disagreement_not_folded(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.local("y", Type.INT)
        with b.if_(b.var("x") > 0):
            b.assign("y", 1)
        with b.orelse():
            b.assign("y", 2)
        b.ret(b.var("y"))
        fn = b.build()
        constant_propagation(fn)
        validate_function(fn)
        assert run_fn(fn, {"x": 1}).return_value == 1
        assert run_fn(fn, {"x": -1}).return_value == 2

    def test_division_by_zero_not_folded_away(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.local("z", Type.INT)
        b.assign("z", 0)
        b.ret(b.var("x") // b.var("z"))
        fn = b.build()
        constant_propagation(fn)  # must not crash or fold 1//0
        validate_function(fn)


class TestPeepholeStrength:
    def test_mul_one_removed(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.ret(b.var("x") * 1 + 0)
        fn = b.build()
        peephole(fn)
        validate_function(fn)
        from repro.ir import Return

        ret = [t for t in (blk.terminator for blk in fn.cfg.blocks.values())][0]
        assert ret.value == Var("x")

    def test_float_mul_zero_preserved(self):
        # 0 * x must NOT fold to 0 for floats (NaN semantics)
        b = FunctionBuilder("f", [("x", Type.FLOAT)], return_type=Type.FLOAT)
        b.ret(b.var("x") * 0)
        fn = b.build()
        peephole(fn)
        res = run_fn(fn, {"x": float("nan")})
        assert np.isnan(res.return_value)

    def test_int_mul_zero_folds(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.ret(b.var("x") * 0)
        fn = b.build()
        peephole(fn)
        ret = next(iter(fn.cfg.blocks.values())).terminator
        assert ret.value == Const(0)

    def test_strength_mul_pow2_to_shift(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.ret(b.var("x") * 8)
        fn = b.build()
        strength_reduce(fn)
        ret = next(iter(fn.cfg.blocks.values())).terminator
        assert isinstance(ret.value, BinOp) and ret.value.op == "<<"
        assert run_fn(fn, {"x": 5}).return_value == 40

    def test_strength_mul_two_to_add(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.ret(b.var("x") * 2)
        fn = b.build()
        strength_reduce(fn)
        ret = next(iter(fn.cfg.blocks.values())).terminator
        assert isinstance(ret.value, BinOp) and ret.value.op == "+"

    def test_strength_preserves_float_mul(self):
        b = FunctionBuilder("f", [("x", Type.FLOAT)], return_type=Type.FLOAT)
        b.ret(b.var("x") * 4)
        fn = b.build()
        strength_reduce(fn)
        ret = next(iter(fn.cfg.blocks.values())).terminator
        assert ret.value.op == "*"  # unchanged

    def test_strength_int_div_pow2(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.ret(b.var("x") // 4)
        fn = b.build()
        strength_reduce(fn)
        assert run_fn(fn, {"x": 13}).return_value == 3


class TestCSE:
    def _redundant_fn(self):
        b = FunctionBuilder(
            "f", [("i", Type.INT), ("m", Type.INT)], return_type=Type.INT
        )
        b.local("a", Type.INT)
        b.local("c", Type.INT)
        b.assign("a", b.var("i") * b.var("m") + 1)
        b.assign("c", b.var("i") * b.var("m") + 1)  # redundant
        b.ret(b.var("a") + b.var("c"))
        return b.build()

    def test_local_cse_rewrites_redundant(self):
        fn = self._redundant_fn()
        changed = common_subexpression_elimination(fn, global_scope=False)
        assert changed
        validate_function(fn)
        second = fn.cfg.blocks[fn.cfg.entry].stmts[1]
        assert second.expr == Var("a")
        assert run_fn(fn, {"i": 3, "m": 4}).return_value == 26

    def test_cse_respects_kill(self):
        b = FunctionBuilder("f", [("i", Type.INT)], return_type=Type.INT)
        b.local("a", Type.INT)
        b.local("c", Type.INT)
        b.assign("a", b.var("i") + 1)
        b.assign("i", b.var("i") * 2)  # kills i-based expressions
        b.assign("c", b.var("i") + 1)  # NOT redundant
        b.ret(b.var("a") + b.var("c"))
        fn = b.build()
        common_subexpression_elimination(fn, global_scope=False)
        third = fn.cfg.blocks[fn.cfg.entry].stmts[2]
        assert third.expr != Var("a")
        assert run_fn(fn, {"i": 3}).return_value == 11  # 4 + 7

    def test_global_cse_across_blocks(self):
        b = FunctionBuilder("f", [("i", Type.INT), ("m", Type.INT)], return_type=Type.INT)
        b.local("a", Type.INT)
        b.local("c", Type.INT)
        b.assign("a", b.var("i") * b.var("m"))
        with b.if_(b.var("i") > 0):
            b.assign("c", b.var("i") * b.var("m"))  # available from entry
        with b.orelse():
            b.assign("c", 0)
        b.ret(b.var("c"))
        fn = b.build()
        common_subexpression_elimination(fn, global_scope=True)
        validate_function(fn)
        then_blk = next(
            blk for l, blk in fn.cfg.blocks.items() if l.startswith("then")
        )
        assert then_blk.stmts[0].expr == Var("a")
        assert run_fn(fn, {"i": 3, "m": 5}).return_value == 15

    def test_global_cse_requires_all_paths(self):
        b = FunctionBuilder("f", [("i", Type.INT), ("m", Type.INT)], return_type=Type.INT)
        b.local("a", Type.INT)
        b.local("c", Type.INT)
        with b.if_(b.var("i") > 0):
            b.assign("a", b.var("i") * b.var("m"))
        # join: i*m only available on one path; must not be reused
        b.assign("c", b.var("i") * b.var("m"))
        b.ret(b.var("c"))
        fn = b.build()
        common_subexpression_elimination(fn, global_scope=True)
        join_blk = next(
            blk for l, blk in fn.cfg.blocks.items() if l.startswith("join")
        )
        assert join_blk.stmts[0].expr != Var("a")

    def test_commutative_matching(self):
        b = FunctionBuilder("f", [("x", Type.INT), ("y", Type.INT)], return_type=Type.INT)
        b.local("a", Type.INT)
        b.local("c", Type.INT)
        b.assign("a", b.var("x") + b.var("y"))
        b.assign("c", b.var("y") + b.var("x"))
        b.ret(b.var("a") + b.var("c"))
        fn = b.build()
        common_subexpression_elimination(fn, global_scope=False)
        second = fn.cfg.blocks[fn.cfg.entry].stmts[1]
        assert second.expr == Var("a")

    def test_array_reads_not_csed(self):
        b = FunctionBuilder("f", [("a", Type.FLOAT_ARRAY)], return_type=Type.FLOAT)
        b.local("x", Type.FLOAT)
        b.local("y", Type.FLOAT)
        b.assign("x", ArrayRef("a", Const(0)) + 1.0)
        b.store("a", 0, 99.0)
        b.assign("y", ArrayRef("a", Const(0)) + 1.0)
        b.ret(b.var("y"))
        fn = b.build()
        common_subexpression_elimination(fn, global_scope=False)
        res = run_fn(fn, {"a": np.array([1.0])})
        assert res.return_value == 100.0


class TestDCE:
    def test_removes_dead_chain(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.local("d1", Type.INT)
        b.local("d2", Type.INT)
        b.assign("d1", b.var("x") * 3)
        b.assign("d2", b.var("d1") + 1)  # both dead
        b.ret(b.var("x"))
        fn = b.build()
        assert dead_code_elimination(fn)
        assert total_stmts(fn) == 0
        assert "d1" not in fn.locals and "d2" not in fn.locals

    def test_keeps_live_code(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.local("y", Type.INT)
        b.assign("y", b.var("x") * 3)
        b.ret(b.var("y"))
        fn = b.build()
        dead_code_elimination(fn)
        assert total_stmts(fn) == 1

    def test_keeps_array_stores(self):
        b = FunctionBuilder("f", [("a", Type.FLOAT_ARRAY)])
        b.store("a", 0, 1.0)
        b.ret()
        fn = b.build()
        dead_code_elimination(fn)
        assert total_stmts(fn) == 1

    def test_loop_carried_value_kept(self):
        b = FunctionBuilder("f", [("n", Type.INT)], return_type=Type.INT)
        b.local("s", Type.INT)
        b.assign("s", 0)
        with b.for_("i", 0, b.var("n")) as i:
            b.assign("s", b.var("s") + i)
        b.ret(b.var("s"))
        fn = b.build()
        dead_code_elimination(fn)
        assert run_fn(fn, {"n": 5}).return_value == 10


class TestLICM:
    def test_hoists_invariant(self):
        b = FunctionBuilder(
            "f", [("n", Type.INT), ("k", Type.INT), ("a", Type.INT_ARRAY)]
        )
        b.local("t", Type.INT)
        with b.for_("i", 0, b.var("n")) as i:
            b.assign("t", b.var("k") * 7)  # invariant
            b.store("a", i, b.var("t"))
        b.ret()
        fn = b.build()
        assert loop_invariant_code_motion(fn)
        validate_function(fn)
        body = next(
            blk for l, blk in fn.cfg.blocks.items() if l.startswith("loop_body")
        )
        assert all(s.defs() != {"t"} for s in body.stmts)
        a = np.zeros(4, dtype=np.int64)
        run_fn(fn, {"n": 4, "k": 2, "a": a})
        np.testing.assert_array_equal(a, np.full(4, 14))

    def test_does_not_hoist_variant(self):
        b = FunctionBuilder("f", [("n", Type.INT), ("a", Type.INT_ARRAY)])
        b.local("t", Type.INT)
        with b.for_("i", 0, b.var("n")) as i:
            b.assign("t", i * 7)  # depends on i
            b.store("a", i, b.var("t"))
        b.ret()
        fn = b.build()
        assert not loop_invariant_code_motion(fn)

    def test_does_not_hoist_live_at_exit(self):
        b = FunctionBuilder("f", [("n", Type.INT), ("k", Type.INT)], return_type=Type.INT)
        b.local("t", Type.INT)
        b.assign("t", -1)
        with b.for_("i", 0, b.var("n")) as i:
            b.assign("t", b.var("k") * 7)
        b.ret(b.var("t"))  # observable after a zero-trip loop
        fn = b.build()
        loop_invariant_code_motion(fn)
        assert run_fn(fn, {"n": 0, "k": 5}).return_value == -1

    def test_does_not_hoist_array_read(self):
        b = FunctionBuilder("f", [("n", Type.INT), ("a", Type.INT_ARRAY), ("out", Type.INT_ARRAY)])
        b.local("t", Type.INT)
        with b.for_("i", 0, b.var("n")) as i:
            b.assign("t", ArrayRef("a", Const(0)) + 1)  # a[0] may change? (conservative)
            b.store("out", i, b.var("t"))
            b.store("a", 0, i)
        b.ret()
        fn = b.build()
        a = np.zeros(4, dtype=np.int64)
        out = np.zeros(4, dtype=np.int64)
        loop_invariant_code_motion(fn)
        run_fn(fn, {"n": 4, "a": a, "out": out})
        np.testing.assert_array_equal(out, [1, 1, 2, 3])

    def test_does_not_hoist_division(self):
        b = FunctionBuilder("f", [("n", Type.INT), ("k", Type.INT), ("a", Type.INT_ARRAY)])
        b.local("t", Type.INT)
        with b.for_("i", 0, b.var("n")) as i:
            b.assign("t", 100 // b.var("k"))  # traps when k == 0
            b.store("a", i, b.var("t"))
        b.ret()
        fn = b.build()
        loop_invariant_code_motion(fn)
        # zero-trip loop with k=0 must not trap
        run_fn(fn, {"n": 0, "k": 0, "a": np.zeros(1, dtype=np.int64)})


class TestJumpThreadCrossjump:
    def test_thread_through_empty_block(self):
        fn_b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        with fn_b.if_(fn_b.var("x") > 0):
            pass  # empty then-arm produces a forwarding block
        fn_b.ret(fn_b.var("x"))
        fn = fn_b.build()
        n_before = len(fn.cfg.blocks)
        thread_jumps(fn)
        validate_function(fn)
        assert len(fn.cfg.blocks) < n_before

    def test_same_target_branch_collapsed(self):
        from repro.ir import BasicBlock, CFG, Function, Param, Return

        cfg = CFG("entry")
        cfg.add_block(
            BasicBlock("entry", terminator=CondBranch(Var("x") > 0, "j", "j"))
        )
        cfg.add_block(BasicBlock("j", terminator=Return(Var("x"))))
        fn = Function("f", [Param("x", Type.INT)], cfg, return_type=Type.INT)
        thread_jumps(fn)
        assert isinstance(fn.cfg.blocks["entry"].terminator, Jump)

    def test_crossjump_merges_identical_blocks(self):
        from repro.ir import BasicBlock, CFG, Function, Param, Return

        cfg = CFG("entry")
        cfg.add_block(
            BasicBlock("entry", terminator=CondBranch(Var("x") > 0, "a", "b"))
        )
        stmt = Assign(Var("y"), Var("x") + 1)
        cfg.add_block(BasicBlock("a", [stmt], Jump("j")))
        cfg.add_block(BasicBlock("b", [stmt], Jump("j")))
        cfg.add_block(BasicBlock("j", terminator=Return(Var("y"))))
        fn = Function(
            "f", [Param("x", Type.INT)], cfg, locals={"y": Type.INT}, return_type=Type.INT
        )
        assert crossjump(fn)
        validate_function(fn)
        assert len(fn.cfg.blocks) == 3
        assert run_fn(fn, {"x": 5}).return_value == 6


class TestIfConversion:
    def _diamond(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.local("y", Type.INT)
        with b.if_(b.var("x") > 0):
            b.assign("y", b.var("x") * 2)
        with b.orelse():
            b.assign("y", b.var("x") - 1)
        b.ret(b.var("y"))
        return b.build()

    def test_converts_diamond(self):
        fn = self._diamond()
        assert if_conversion(fn)
        validate_function(fn)
        # no conditional branches remain
        assert not any(
            isinstance(blk.terminator, CondBranch) for blk in fn.cfg.blocks.values()
        )
        assert run_fn(fn, {"x": 5}).return_value == 10
        assert run_fn(fn, {"x": -5}).return_value == -6

    def test_one_sided_if(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.local("y", Type.INT)
        b.assign("y", 100)
        with b.if_(b.var("x") > 0):
            b.assign("y", 1)
        b.ret(b.var("y"))
        fn = b.build()
        assert if_conversion(fn)
        assert run_fn(fn, {"x": 5}).return_value == 1
        assert run_fn(fn, {"x": -5}).return_value == 100

    def test_mutual_reference_correct(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.local("y", Type.INT)
        b.assign("y", 7)
        with b.if_(b.var("x") > 0):
            b.assign("y", b.var("y") + 1)
        with b.orelse():
            b.assign("y", b.var("y") * 2)
        b.ret(b.var("y"))
        fn = b.build()
        if_conversion(fn)
        assert run_fn(fn, {"x": 1}).return_value == 8
        assert run_fn(fn, {"x": 0}).return_value == 14

    def test_skips_array_access_arms(self):
        b = FunctionBuilder(
            "f", [("x", Type.INT), ("a", Type.INT_ARRAY)], return_type=Type.INT
        )
        b.local("y", Type.INT)
        with b.if_(b.var("x") < 3):
            b.assign("y", ArrayRef("a", Var("x")))  # unsafe to speculate
        with b.orelse():
            b.assign("y", 0)
        b.ret(b.var("y"))
        fn = b.build()
        assert not if_conversion(fn)
        # out-of-range x must still be safe
        assert run_fn(fn, {"x": 100, "a": np.arange(3)}).return_value == 0

    def test_skips_division_arms(self):
        b = FunctionBuilder("f", [("x", Type.INT)], return_type=Type.INT)
        b.local("y", Type.INT)
        with b.if_(b.var("x") > 0):
            b.assign("y", 100 // b.var("x"))
        with b.orelse():
            b.assign("y", 0)
        b.ret(b.var("y"))
        fn = b.build()
        assert not if_conversion(fn)
        assert run_fn(fn, {"x": 0}).return_value == 0

    def test_float_arms(self):
        b = FunctionBuilder("f", [("x", Type.FLOAT)], return_type=Type.FLOAT)
        b.local("y", Type.FLOAT)
        with b.if_(b.var("x") > 0.0):
            b.assign("y", b.var("x") * 0.5)
        with b.orelse():
            b.assign("y", -b.var("x"))
        b.ret(b.var("y"))
        fn = b.build()
        if_conversion(fn)
        assert run_fn(fn, {"x": 8.0}).return_value == 4.0
        assert run_fn(fn, {"x": -3.0}).return_value == 3.0


class TestUnroll:
    def test_unrolls_canonical_loop(self):
        b = FunctionBuilder("f", [("n", Type.INT), ("a", Type.INT_ARRAY)])
        with b.for_("i", 0, b.var("n")) as i:
            b.store("a", i, i * 2)
        b.ret()
        fn = b.build()
        assert unroll_loops(fn)
        validate_function(fn)
        for n in (0, 1, 5, 8):
            a = np.zeros(10, dtype=np.int64)
            run_fn(fn, {"n": n, "a": a})
            np.testing.assert_array_equal(a[:n], 2 * np.arange(n))

    def test_unrolled_loop_takes_fewer_backedges(self):
        b = FunctionBuilder("f", [("n", Type.INT), ("a", Type.INT_ARRAY)])
        with b.for_("i", 0, b.var("n")) as i:
            b.store("a", i, i)
        b.ret()
        fn = b.build()
        plain = fn.copy()
        unroll_loops(fn)
        exe_u = compile_function(fn, SPARC2)
        exe_p = compile_function(plain, SPARC2)
        ex = Executor(SPARC2)
        r_u = ex.run(exe_u, {"n": 16, "a": np.zeros(16, dtype=np.int64)}, count_blocks=True)
        r_p = ex.run(exe_p, {"n": 16, "a": np.zeros(16, dtype=np.int64)}, count_blocks=True)
        hdr_u = sum(v for k, v in r_u.block_counts.items() if "header" in k)
        hdr_p = sum(v for k, v in r_p.block_counts.items() if "header" in k)
        assert hdr_u < hdr_p

    def test_does_not_unroll_irregular(self):
        b = FunctionBuilder("f", [("a", Type.INT_ARRAY)], return_type=Type.INT)
        b.local("i", Type.INT)
        with b.while_(ArrayRef("a", Var("i")) > 0):
            b.assign("i", b.var("i") + 1)
        b.ret(b.var("i"))
        fn = b.build()
        assert not unroll_loops(fn)


