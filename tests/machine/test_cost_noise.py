"""Tests for the cost tables, type inference, noise model, and profiler."""

import numpy as np
import pytest

from repro.ir import ArrayRef, Call, Const, FunctionBuilder, Type, Var
from repro.machine import (
    NoiseModel,
    PENTIUM4,
    SPARC2,
    block_static_costs,
    expr_cost,
    infer_type,
    profile_tuning_section,
    stmt_cost,
)
from repro.machine.cost import CostTable


TYPES = {"i": Type.INT, "x": Type.FLOAT, "a": Type.FLOAT_ARRAY, "n": Type.INT}


class TestTypeInference:
    def test_scalar_types(self):
        assert infer_type(Var("i"), TYPES) is Type.INT
        assert infer_type(Var("x"), TYPES) is Type.FLOAT

    def test_const_types(self):
        assert infer_type(Const(1), TYPES) is Type.INT
        assert infer_type(Const(1.5), TYPES) is Type.FLOAT
        assert infer_type(Const(True), TYPES) is Type.BOOL

    def test_array_element_type(self):
        assert infer_type(ArrayRef("a", Var("i")), TYPES) is Type.FLOAT

    def test_float_contaminates(self):
        assert infer_type(Var("i") + Var("x"), TYPES) is Type.FLOAT
        assert infer_type(Var("i") + Var("n"), TYPES) is Type.INT

    def test_comparisons_are_bool(self):
        assert infer_type(Var("i") < Var("n"), TYPES) is Type.BOOL

    def test_intrinsics(self):
        assert infer_type(Call("sqrt", (Var("x"),)), TYPES) is Type.FLOAT
        assert infer_type(Call("int", (Var("x"),)), TYPES) is Type.INT


class TestExprCost:
    TABLE = CostTable()

    def test_fp_mul_costs_more_than_int_add(self):
        fp, _ = expr_cost(Var("x") * Var("x"), TYPES, self.TABLE)
        intc, _ = expr_cost(Var("i") + Var("i"), TYPES, self.TABLE)
        assert fp > intc

    def test_division_expensive(self):
        div, _ = expr_cost(Var("x") / Var("x"), TYPES, self.TABLE)
        mul, _ = expr_cost(Var("x") * Var("x"), TYPES, self.TABLE)
        assert div > mul

    def test_memory_ops_counted(self):
        _, mem = expr_cost(
            ArrayRef("a", Var("i")) + ArrayRef("a", Var("i") + 1), TYPES, self.TABLE
        )
        assert mem == 2

    def test_const_is_free(self):
        cycles, mem = expr_cost(Const(5), TYPES, self.TABLE)
        assert cycles == 0.0 and mem == 0

    def test_shift_cheaper_than_mul(self):
        shift, _ = expr_cost(Var("i") << Const(3), TYPES, self.TABLE)
        mul, _ = expr_cost(Var("i") * Const(8), TYPES, self.TABLE)
        assert shift < mul

    def test_store_counts_write(self):
        from repro.ir import Assign

        s = Assign(ArrayRef("a", Var("i")), Var("x"))
        _, mem = stmt_cost(s, TYPES, self.TABLE)
        assert mem == 1

    def test_machines_disagree_on_costs(self):
        e = Var("x") * Var("x")
        sp, _ = expr_cost(e, TYPES, SPARC2.cost)
        p4, _ = expr_cost(e, TYPES, PENTIUM4.cost)
        assert sp != p4


class TestBlockStaticCosts:
    def test_every_block_priced(self):
        b = FunctionBuilder("f", [("n", Type.INT), ("a", Type.FLOAT_ARRAY)])
        with b.for_("i", 0, b.var("n")) as i:
            b.store("a", i, 1.0)
        b.ret()
        fn = b.build()
        costs = block_static_costs(fn, SPARC2.cost)
        assert set(costs) == set(fn.cfg.blocks)
        assert all(c.compute_cycles >= 0 for c in costs.values())
        body = next(l for l in costs if l.startswith("loop_body"))
        assert costs[body].mem_ops == 1


class TestNoiseModel:
    def test_disabled_is_identity(self):
        nm = NoiseModel.disabled()
        rng = np.random.default_rng(0)
        assert nm.sample(1234.5, rng) == 1234.5

    def test_jitter_centered(self):
        nm = NoiseModel(0.05, 0.0, (1.0, 1.0))
        rng = np.random.default_rng(0)
        xs = np.array([nm.sample(1000.0, rng) for _ in range(4000)])
        assert np.mean(xs) == pytest.approx(1000.0, rel=0.01)
        assert 0.03 < np.std(xs) / 1000.0 < 0.07

    def test_jitter_truncated_at_3_sigma(self):
        nm = NoiseModel(0.05, 0.0, (1.0, 1.0))
        rng = np.random.default_rng(1)
        xs = [nm.sample(1000.0, rng) for _ in range(5000)]
        assert max(xs) <= 1000.0 * 1.15 + 1e-9
        assert min(xs) >= 1000.0 * 0.85 - 1e-9

    def test_outliers_appear_at_configured_rate(self):
        nm = NoiseModel(0.0, 0.02, (3.0, 3.0))
        rng = np.random.default_rng(2)
        xs = np.array([nm.sample(100.0, rng) for _ in range(10000)])
        frac = float(np.mean(xs > 250.0))
        assert frac == pytest.approx(0.02, abs=0.006)

    def test_granularity_hits_short_regions_harder(self):
        nm = NoiseModel(0.0, 0.0, (1.0, 1.0), granularity=20.0)
        rng = np.random.default_rng(3)
        short = np.array([nm.sample(100.0, rng) for _ in range(2000)])
        long_ = np.array([nm.sample(10000.0, rng) for _ in range(2000)])
        rel_short = np.std(short) / np.mean(short)
        rel_long = np.std(long_) / np.mean(long_)
        assert rel_short > 10 * rel_long

    def test_machine_presets_carry_granularity(self):
        assert NoiseModel.for_machine(SPARC2).granularity > 0
        assert NoiseModel.for_machine(PENTIUM4).granularity > 0


def reference_sample(nm: NoiseModel, true_cycles: float, rng) -> float:
    """``NoiseModel.sample`` as first written, with numpy's ``normal`` and
    ``uniform``: the reference its cheaper draws must match bit for bit."""
    measured = true_cycles
    if nm.sigma > 0.0:
        eps = float(rng.normal(0.0, nm.sigma))
        eps = max(-3.0 * nm.sigma, min(3.0 * nm.sigma, eps))
        measured *= 1.0 + eps
    if nm.outlier_prob > 0.0 and rng.random() < nm.outlier_prob:
        lo, hi = nm.outlier_scale
        measured *= float(rng.uniform(lo, hi))
    if nm.granularity > 0.0:
        measured += float(rng.uniform(0.0, nm.granularity))
    return measured


class TestNoiseModelExactness:
    @pytest.mark.parametrize(
        "nm",
        [
            NoiseModel.for_machine(PENTIUM4),
            NoiseModel.for_machine(SPARC2),
            NoiseModel.disabled(),
            # every branch often: clamped jitter, outliers, timer error
            NoiseModel(0.4, 0.3, (1.5, 6.0), 25.0),
        ],
        ids=["pentium4", "sparc2", "disabled", "wide"],
    )
    def test_sample_equals_the_reference_bit_for_bit(self, nm):
        cycles = np.random.default_rng(11).uniform(0.0, 2e5, 100_000)
        cycles[:4] = (0.0, 1.0, 40.0, 1e12)
        ref_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
        want = [reference_sample(nm, float(c), ref_rng).hex() for c in cycles]
        got = [nm.sample(float(c), rng).hex() for c in cycles]
        assert got == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestProfiler:
    def test_profile_collects_counts_and_inputs(self):
        b = FunctionBuilder("f", [("n", Type.INT), ("a", Type.FLOAT_ARRAY)])
        with b.for_("i", 0, b.var("n")) as i:
            b.store("a", i, 1.0)
        b.ret()
        fn = b.build()
        envs = [{"n": n, "a": np.zeros(8)} for n in (2, 4, 6)]
        prof = profile_tuning_section(fn, iter(envs), SPARC2)
        assert prof.n_invocations == 3
        assert prof.times.shape == (3,)
        body = next(l for l in prof.block_counts if l.startswith("loop_body"))
        np.testing.assert_array_equal(prof.block_counts[body], [2, 4, 6])
        assert [e["n"] for e in prof.scalar_inputs] == [2, 4, 6]

    def test_profile_times_increase_with_work(self):
        b = FunctionBuilder("f", [("n", Type.INT), ("a", Type.FLOAT_ARRAY)])
        with b.for_("i", 0, b.var("n")) as i:
            b.store("a", i, 1.0)
        b.ret()
        fn = b.build()
        envs = [{"n": n, "a": np.zeros(16)} for n in (2, 12)]
        prof = profile_tuning_section(fn, iter(envs), SPARC2)
        assert prof.times[1] > prof.times[0]
