"""Unit tests for CFG structure operations and the IR validator."""

import pytest

from repro.ir import (
    BasicBlock,
    CFG,
    CondBranch,
    Const,
    Function,
    FunctionBuilder,
    IRValidationError,
    Jump,
    Param,
    Program,
    Return,
    Type,
    Var,
    validate_function,
)
from repro.ir.stmt import Assign


def diamond_cfg():
    """entry -> (a|b) -> join -> return"""
    cfg = CFG("entry")
    cfg.add_block(BasicBlock("entry", terminator=CondBranch(Var("x") > 0, "a", "b")))
    cfg.add_block(BasicBlock("a", terminator=Jump("join")))
    cfg.add_block(BasicBlock("b", terminator=Jump("join")))
    cfg.add_block(BasicBlock("join", terminator=Return(None)))
    return cfg


class TestCFG:
    def test_rpo_starts_at_entry(self):
        cfg = diamond_cfg()
        order = cfg.rpo()
        assert order[0] == "entry"
        assert order[-1] == "join"
        assert set(order) == {"entry", "a", "b", "join"}

    def test_rpo_visits_predecessors_before_join(self):
        order = diamond_cfg().rpo()
        assert order.index("a") < order.index("join")
        assert order.index("b") < order.index("join")

    def test_predecessors_map(self):
        preds = diamond_cfg().predecessors_map()
        assert sorted(preds["join"]) == ["a", "b"]
        assert preds["entry"] == []

    def test_remove_unreachable(self):
        cfg = diamond_cfg()
        cfg.add_block(BasicBlock("orphan", terminator=Return(None)))
        removed = cfg.remove_unreachable()
        assert removed == 1
        assert "orphan" not in cfg.blocks

    def test_retarget_rewrites_edges(self):
        cfg = diamond_cfg()
        cfg.add_block(BasicBlock("join2", terminator=Return(None)))
        cfg.retarget("join", "join2")
        assert cfg.blocks["a"].terminator.target == "join2"
        assert cfg.blocks["entry"].successors() == ("a", "b")

    def test_duplicate_label_rejected(self):
        cfg = diamond_cfg()
        with pytest.raises(ValueError):
            cfg.add_block(BasicBlock("a"))

    def test_fresh_label(self):
        cfg = diamond_cfg()
        assert cfg.fresh_label("new") == "new"
        assert cfg.fresh_label("a") == "a.1"

    def test_copy_is_deep_for_blocks(self):
        cfg = diamond_cfg()
        cp = cfg.copy()
        cp.blocks["a"].stmts.append(Assign(Var("y"), Const(1)))
        assert not cfg.blocks["a"].stmts

    def test_exit_labels(self):
        assert diamond_cfg().exit_labels() == ["join"]

    def test_rpo_handles_deep_chain_without_recursion(self):
        cfg = CFG("b0")
        n = 5000
        for i in range(n):
            cfg.add_block(BasicBlock(f"b{i}", terminator=Jump(f"b{i + 1}")))
        cfg.add_block(BasicBlock(f"b{n}", terminator=Return(None)))
        order = cfg.rpo()
        assert len(order) == n + 1


class TestValidator:
    def _fn(self, cfg, params=(("x", Type.INT),), locals_=None):
        return Function(
            "f",
            [Param(n, t) for n, t in params],
            cfg,
            locals=dict(locals_ or {}),
        )

    def test_valid_diamond_passes(self):
        validate_function(self._fn(diamond_cfg()))

    def test_missing_terminator_rejected(self):
        cfg = diamond_cfg()
        cfg.blocks["a"].terminator = None
        with pytest.raises(IRValidationError, match="lacks a terminator"):
            validate_function(self._fn(cfg))

    def test_branch_to_missing_block_rejected(self):
        cfg = diamond_cfg()
        cfg.blocks["a"].terminator = Jump("nowhere")
        with pytest.raises(IRValidationError, match="missing block"):
            validate_function(self._fn(cfg))

    def test_undeclared_variable_rejected(self):
        cfg = diamond_cfg()
        cfg.blocks["a"].stmts.append(Assign(Var("ghost"), Const(1)))
        with pytest.raises(IRValidationError, match="ghost"):
            validate_function(self._fn(cfg))

    def test_indexing_scalar_rejected(self):
        from repro.ir import ArrayRef

        cfg = diamond_cfg()
        cfg.blocks["a"].stmts.append(
            Assign(Var("x"), ArrayRef("x", Const(0)))
        )
        with pytest.raises(IRValidationError, match="not an array"):
            validate_function(self._fn(cfg))

    def test_no_reachable_return_rejected(self):
        cfg = CFG("entry")
        cfg.add_block(BasicBlock("entry", terminator=Jump("entry")))
        with pytest.raises(IRValidationError, match="no reachable return"):
            validate_function(self._fn(cfg))

    def test_duplicate_params_rejected(self):
        cfg = diamond_cfg()
        fn = Function("f", [Param("x", Type.INT), Param("x", Type.INT)], cfg)
        with pytest.raises(IRValidationError, match="duplicate parameter"):
            validate_function(fn)

    def test_local_shadowing_param_rejected(self):
        cfg = diamond_cfg()
        fn = Function("f", [Param("x", Type.INT)], cfg, locals={"x": Type.FLOAT})
        with pytest.raises(IRValidationError, match="shadow"):
            validate_function(fn)

    def test_duplicate_function_rejected(self):
        b = FunctionBuilder("f", [("x", Type.INT)])
        b.ret()
        prog = Program("p")
        prog.add(b.build())
        b2 = FunctionBuilder("f", [("x", Type.INT)])
        b2.ret()
        with pytest.raises(ValueError):
            prog.add(b2.build())
