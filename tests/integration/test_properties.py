"""Property-based tests over random IR kernels.

Two families of invariants:

1. **Analyses** are sound on arbitrary programs (Input ⊆ params,
   Modified_Input = Input ∩ Def, dominance/loop structure, validator).
2. **The optimizer preserves semantics** for random flag subsets on random
   kernels (the substrate's central correctness requirement).

Generated code against the closure interpreter is the differential suite's
job (``tests/machine/test_executor_differential.py``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.analysis import (
    analyze_context,
    def_set,
    dominators,
    input_set,
    loop_nest_depths,
    modified_input_set,
    natural_loops,
)
from repro.compiler import ALL_FLAGS, OptConfig, compile_version
from repro.ir import Const, FunctionBuilder, Type, Var, validate_function
from repro.machine import Executor, ExecutionError, SPARC2, compile_function
from repro.machine.jit import create_executor

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from strategies import kernel_inputs, kernels  # noqa: E402

RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestAnalysisInvariants:
    @RELAXED
    @given(fn=kernels())
    def test_generated_kernels_validate(self, fn):
        validate_function(fn)

    @RELAXED
    @given(fn=kernels())
    def test_input_is_subset_of_params(self, fn):
        params = {p.name for p in fn.params}
        assert input_set(fn) <= params

    @RELAXED
    @given(fn=kernels())
    def test_modified_input_identity(self, fn):
        assert modified_input_set(fn) == input_set(fn) & def_set(fn)

    @RELAXED
    @given(fn=kernels())
    def test_entry_dominates_everything(self, fn):
        doms = dominators(fn.cfg)
        for label, ds in doms.items():
            assert fn.cfg.entry in ds
            assert label in ds

    @RELAXED
    @given(fn=kernels())
    def test_loop_headers_inside_their_bodies(self, fn):
        for loop in natural_loops(fn.cfg):
            assert loop.header in loop.body
            for tail, head in loop.back_edges:
                assert head == loop.header
                assert tail in loop.body

    @RELAXED
    @given(fn=kernels())
    def test_nest_depths_nonnegative_and_bounded(self, fn):
        depths = loop_nest_depths(fn.cfg)
        assert all(0 <= d <= 4 for d in depths.values())

    @RELAXED
    @given(fn=kernels())
    def test_context_analysis_deterministic(self, fn):
        a = analyze_context(fn)
        b = analyze_context(fn)
        assert a.applicable == b.applicable
        assert a.context_vars == b.context_vars


class TestOptimizerSemantics:
    @RELAXED
    @given(
        fn=kernels(),
        env=kernel_inputs(),
        flags=st.sets(st.sampled_from([f.name for f in ALL_FLAGS])),
    )
    def test_random_flags_preserve_semantics_on_random_kernels(
        self, fn, env, flags
    ):
        def run(config):
            version = compile_version(fn, config, SPARC2)
            e = {
                k: (v.copy() if isinstance(v, np.ndarray) else v)
                for k, v in env.items()
            }
            res = Executor(SPARC2).run(version.exe, e)
            return res.return_value, e["a"].copy(), e["b"].copy()

        # the property covers kernels whose reference run completes: an
        # int grown past int64 and stored into an int array faults
        # (test_an_int_store_past_int64_raises_at_both_tiers)
        try:
            ref_val, ref_a, ref_b = run(OptConfig.o0())
        except ExecutionError:
            assume(False)
        opt_val, opt_a, opt_b = run(OptConfig(frozenset(flags)))
        assert opt_val == ref_val
        np.testing.assert_array_equal(opt_a, ref_a)
        np.testing.assert_array_equal(opt_b, ref_b)

    @pytest.mark.parametrize("tier", (0, 1))
    def test_an_int_store_past_int64_raises_at_both_tiers(self, tier):
        b = FunctionBuilder(
            "grow", [("s", Type.INT), ("a", Type.INT_ARRAY)], return_type=Type.INT
        )
        with b.for_("i", 0, Const(6)):
            b.assign("s", Var("s") * Var("s"))  # 7 ** 64: past int64
        b.store("a", Const(0), Var("s"))
        b.ret(Var("s"))
        exe = compile_function(b.build(), SPARC2)
        with pytest.raises(ExecutionError) as err:
            create_executor(SPARC2, tier).run(exe, {"s": 7, "a": np.zeros(4, dtype=np.int64)})
        assert isinstance(err.value.__cause__, OverflowError)

    @RELAXED
    @given(fn=kernels())
    def test_transformed_ir_validates_under_o3(self, fn):
        version = compile_version(fn, OptConfig.o3(), SPARC2)
        validate_function(version.ir)

