"""Unit tests for the Tier-1 whole-function compiler itself.

The differential suite (test_executor_differential.py) proves results are
bit-identical; these tests pin down the mechanics — compilation on first
use, chain layout, engagement on the paper's kernels, code caching,
digests, the window predicate, tier selection.
"""

import inspect

import numpy as np
import pytest

from repro.cli import build_parser
from repro.compiler.options import OptConfig
from repro.compiler.pipeline import compile_version
from repro.core.engine import EngineSpec
from repro.core.peak import PeakTuner, evaluate_speedup, measure_whole_program
from repro.experiments.figure7 import figure7_experiment, methods_for
from repro.ir import ArrayRef, FunctionBuilder, Type, Var
from repro.ir.block import BasicBlock
from repro.ir.stmt import Assign, CondBranch, Return
from repro.machine import (
    EXEC_TIERS,
    AddressMap,
    Executor,
    PENTIUM4,
    SPARC2,
    TieredExecutor,
    code_key,
    compile_function,
    create_executor,
    executable_digest,
    global_executable_cache,
)
from repro.machine.jit import WholeFunction, _chain_heads
from repro.machine.profiler import profile_tuning_section
from repro.runtime.instrument import TimedExecutor
from repro.store import Store
from repro.workloads import WORKLOAD_NAMES, get_workload

from .test_executor_differential import cost_twin, run_differential, tier0_only


def loop_fn(name="loop"):
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


def envs(n=48, count=8):
    out = []
    for i in range(count):
        rng = np.random.default_rng(i)
        out.append({"n": n, "x": rng.normal(size=n), "y": rng.normal(size=n)})
    return out


class TestTierSelection:
    def test_create_executor_tiers(self):
        assert type(create_executor(SPARC2, 0)) is Executor
        assert isinstance(create_executor(SPARC2, 1), TieredExecutor)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown execution tier"):
            create_executor(SPARC2, 7)

    def test_exec_tiers_constant(self):
        assert EXEC_TIERS == (0, 1)

    def test_every_entry_point_defaults_to_tier_1(self):
        """Tier 1 is the default everywhere; Tier 0 only on request."""
        entry_points = {
            create_executor: "tier",
            TimedExecutor.__init__: "exec_tier",
            profile_tuning_section: "exec_tier",
            methods_for: "exec_tier",
            figure7_experiment: "exec_tier",
            PeakTuner.__init__: "exec_tier",
            measure_whole_program: "exec_tier",
            evaluate_speedup: "exec_tier",
            EngineSpec: "exec_tier",
        }
        for fn, param in entry_points.items():
            assert inspect.signature(fn).parameters[param].default == 1, fn
        parser = build_parser()
        assert parser.parse_args(["tune", "swim"]).exec_tier == 1
        assert parser.parse_args(["fig7"]).exec_tier == 1

    def test_default_code_cache_is_global(self):
        ex = TieredExecutor(SPARC2)
        assert ex.code_cache is global_executable_cache()


class TestWholeFunctionCompilation:
    def test_first_invocation_runs_compiled(self):
        ex = TieredExecutor(SPARC2, code_cache=Store())
        exe = compile_function(loop_fn(), SPARC2)
        ex.run(exe, envs()[0])
        assert exe._jit_fn is not None
        assert ex.compiled_frames == 1
        assert ex.interpreted_blocks == 0
        # no Tier-0 closures: only the dispatch loop needs them
        assert not exe._closures
        assert all(b.steps is None and b.term is None for b in exe.blocks.values())
        # the loop header heads its own chain, which runs as a while loop
        assert exe._jit_fn.heads == ("entry", "loop_header1")
        src = exe._jit_fn.source(counting=False, windowed=False)
        assert "while True:" in src

    def test_straight_line_function_compiles(self):
        b = FunctionBuilder("once", [("x", Type.FLOAT)], return_type=Type.FLOAT)
        b.ret(b.var("x") * 2.0)
        exe = compile_function(b.build(), SPARC2)
        ex = TieredExecutor(SPARC2, code_cache=Store())
        for _ in range(4):
            res = ex.run(exe, {"x": 1.5})
        assert res.return_value == 3.0
        assert exe._jit_fn.heads == ("entry",)
        assert ex.compiled_frames == 4
        assert ex.interpreted_blocks == 0

    @pytest.mark.parametrize("machine", (SPARC2, PENTIUM4), ids=lambda m: m.name)
    def test_name_clash_declines(self, machine):
        """An array the IR also reads as a scalar gets no promoted base, so
        its accesses could not be checked inline: the function declines
        and runs at Tier 0."""
        b = FunctionBuilder(
            "clash", [("n", Type.INT), ("x", Type.FLOAT_ARRAY)],
            return_type=Type.FLOAT_ARRAY,
        )
        with b.for_("i", 0, b.var("n")) as i:
            b.store("x", i, ArrayRef("x", i) * 2.0)
        b.ret(b.var("x"))

        def env_fn(i):
            return {"n": 6, "x": [1.0 + i] * 6}

        ex1, _ = run_differential(b.build(), env_fn, machine, invocations=4)
        assert tier0_only(ex1)
        (wf,) = ex1.code_cache._entries.values()
        assert wf.compiles is False

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_paper_kernels_never_interpret(self, name):
        """Every workload's tuning section compiles at Tier 1 on both
        machines: no block goes through the dispatch loop from the first
        invocation on.  A workload whose arrays could not all be checked
        inline would fail here rather than silently run at Tier 0."""
        w = get_workload(name)
        ds = w.dataset("train")
        for machine in (SPARC2, PENTIUM4):
            version = compile_version(w.ts, OptConfig.o3(), machine)
            rng = np.random.default_rng(0)
            ex = TieredExecutor(machine, code_cache=Store())
            for i in range(8):
                ex.run(version.exe, ds.env(rng, i), factors=version.factors,
                       count_blocks=i % 2 == 1)
            assert version.exe._jit_fn.compiles
            assert ex.compiled_frames == 8
            assert ex.interpreted_blocks == 0


class TestLayout:
    def test_irreducible_cycle_gets_a_head(self):
        # entry branches into the middle of a two-block cycle from both
        # sides: no natural loop, but every path must still end
        b = FunctionBuilder("irr", [("n", Type.INT)], return_type=Type.INT)
        b.local("i", Type.INT)
        fn = b.build()
        cfg = fn.cfg
        cfg.blocks.clear()
        i = Var("i")
        cfg.blocks["entry"] = BasicBlock(
            "entry", [], CondBranch(Var("n") > 0, "p", "q"))
        cfg.blocks["p"] = BasicBlock(
            "p", [Assign(i, i + 1)], CondBranch(i < 10, "q", "out"))
        cfg.blocks["q"] = BasicBlock(
            "q", [Assign(i, i + 2)], CondBranch(i < 10, "p", "out"))
        cfg.blocks["out"] = BasicBlock("out", [], Return(i))
        cfg.entry = "entry"
        heads = _chain_heads(cfg)
        assert heads[0] == "entry"
        assert {"p", "q"} & set(heads)
        exe0 = compile_function(fn, SPARC2)
        exe1 = compile_function(fn, SPARC2)
        ex0 = Executor(SPARC2)
        ex1 = TieredExecutor(SPARC2, code_cache=Store())
        for n in (0, 1):
            r0 = ex0.run(exe0, {"n": n})
            r1 = ex1.run(exe1, {"n": n})
            assert (r0.cycles, r0.return_value) == (r1.cycles, r1.return_value)
        assert ex1.interpreted_blocks == 0

    def test_join_blocks_are_duplicated_up_to_the_copy_bound(self):
        # a chain of diamonds: join k is reached by 2**k paths, so joins
        # past the copy bound head chains of their own
        b = FunctionBuilder("dia", [("x", Type.INT)], return_type=Type.INT)
        b.local("y", Type.INT)
        for k in range(6):
            with b.if_(b.var("x") > k):
                b.assign("y", b.var("y") + 1)
            with b.orelse():
                b.assign("y", b.var("y") - 1)
        b.ret(b.var("y"))
        fn = b.build()
        heads = _chain_heads(fn.cfg)
        assert 1 < len(heads) < len(fn.cfg.blocks)
        exe0 = compile_function(fn, SPARC2)
        exe1 = compile_function(fn, SPARC2)
        ex0 = Executor(SPARC2)
        ex1 = TieredExecutor(SPARC2, code_cache=Store())
        for x in range(-1, 8):
            r0 = ex0.run(exe0, {"x": x})
            r1 = ex1.run(exe1, {"x": x})
            assert (r0.cycles, r0.return_value) == (r1.cycles, r1.return_value)


class TestExecutableCache:
    def test_cache_hit_on_same_ir_and_costs(self):
        cache = Store()
        fn = loop_fn()
        for _ in range(2):
            exe = compile_function(fn, SPARC2)
            ex = TieredExecutor(SPARC2, code_cache=cache)
            for env in envs(count=4):
                ex.run(exe, env)
        assert len(cache) == 1
        assert cache.hits >= 1
        assert cache.misses == 1

    def test_digest_differs_across_machines(self):
        fn = loop_fn()
        d_sparc = executable_digest(compile_function(fn, SPARC2), SPARC2)
        d_p4 = executable_digest(compile_function(fn, PENTIUM4), PENTIUM4)
        assert d_sparc != d_p4

    def test_digest_differs_across_functions(self):
        d1 = executable_digest(compile_function(loop_fn("f1"), SPARC2), SPARC2)
        d2 = executable_digest(compile_function(loop_fn("f2"), SPARC2), SPARC2)
        assert d1 != d2

    def test_digest_stable(self):
        exe = compile_function(loop_fn(), SPARC2)
        assert executable_digest(exe, SPARC2) == executable_digest(exe, SPARC2)

    def test_code_key_covers_ir_and_machine_not_costs(self):
        fn = loop_fn()
        exe = compile_function(fn, SPARC2)
        other = cost_twin(exe, SPARC2, 1.5)
        assert code_key(exe, SPARC2) == code_key(other, SPARC2)
        assert executable_digest(exe, SPARC2) != executable_digest(other, SPARC2)
        assert code_key(exe, SPARC2) != code_key(exe, PENTIUM4)
        assert code_key(exe, SPARC2) != code_key(
            compile_function(loop_fn("f2"), SPARC2), SPARC2
        )

    def test_max_entries_evicts(self):
        """The executor regenerates code its store has evicted."""
        cache = Store(max_entries=1)
        ex = TieredExecutor(SPARC2, code_cache=cache)
        for name in ("f1", "f2", "f1"):
            exe = compile_function(loop_fn(name), SPARC2)
            ex.run(exe, envs(count=1)[0])
            assert exe._jit_fn is cache.get(code_key(exe, SPARC2))
        assert len(cache) == 1
        assert cache.evictions == 2

    @pytest.mark.parametrize("machine", (SPARC2, PENTIUM4), ids=lambda m: m.name)
    def test_versions_differing_only_in_cost_share_code(self, machine):
        """Two executables of one IR with different block costs run one
        WholeFunction, generated once; each times exactly as Tier 0 times
        that same executable."""
        cache = Store()
        fn = loop_fn()
        exe_a = compile_function(fn, machine)
        exe_b = cost_twin(exe_a, machine, 1.5)
        ex = TieredExecutor(machine, code_cache=cache)
        cycles = {}
        for exe in (exe_a, exe_b):
            ex0 = Executor(machine)
            ex.reset()
            for count in (False, True):
                for env in envs(count=3):
                    r1 = ex.run(exe, dict(env), count_blocks=count)
                    r0 = ex0.run(exe, dict(env), count_blocks=count)
                    assert (r1.cycles, r1.mem_cycles, r1.branch_miss_cycles) == (
                        r0.cycles, r0.mem_cycles, r0.branch_miss_cycles,
                    )
                    assert r1.block_counts == r0.block_counts
            cycles[id(exe)] = r1.cycles
        assert exe_a._jit_fn is exe_b._jit_fn
        assert len(cache) == 1
        assert cache.misses == 1
        assert exe_a._jit_costs != exe_b._jit_costs
        assert cycles[id(exe_a)] != cycles[id(exe_b)]
        for key in ((False, False), (True, True), (True, False)):
            kw = dict(zip(("counting", "windowed"), key))
            assert WholeFunction(exe_a, machine).source(**kw) == WholeFunction(
                exe_b, machine
            ).source(**kw)


def _fits(sizes: dict, n_sets: int, line: int) -> bool:
    return AddressMap(sizes, line=line).window_lines < n_sets


class TestWindowPredicate:
    def test_small_arrays_fit(self):
        assert _fits({"a": 16}, n_sets=512, line=32)

    def test_large_span_does_not_fit(self):
        # two arrays laid out back to back span more lines than the sets
        assert not _fits({"a": 1024, "b": 1024}, n_sets=512, line=32)

    def test_no_arrays_fits_trivially(self):
        assert _fits({}, n_sets=32, line=64)

    def test_negative_wrap_margin_counts(self):
        # array alone spans < the cache (8.6 KB < 16 KB), but the
        # negative-index wrap range doubles it past the window
        assert not _fits({"a": 1100}, n_sets=512, line=32)


class TestAddressMapCache:
    def test_one_map_per_dataset_shape(self):
        """Fresh arrays every invocation still reuse one map per shape."""
        w = get_workload("swim")
        exe = compile_function(w.ts, PENTIUM4)
        ds = w.dataset("train")
        rng = np.random.default_rng(0)
        ex = TieredExecutor(PENTIUM4, code_cache=Store())
        shapes = set()
        for i in range(600):
            env = ds.env(rng, i)
            shapes.add(tuple(sorted(
                (k, len(v)) for k, v in env.items() if hasattr(v, "__len__")
            )))
            ex.run(exe, env)
        assert len(ex._amap_cache) == len(shapes)

    def test_aliasing_pattern_is_part_of_the_key(self):
        exe = compile_function(loop_fn(), SPARC2)
        ex = Executor(SPARC2)
        x = np.zeros(8)
        ex.run(exe, {"n": 8, "x": x, "y": np.zeros(8)})
        ex.run(exe, {"n": 8, "x": x, "y": x})
        assert len(ex._amap_cache) == 2

    def test_array_layout_follows_names_and_value_types(self):
        ex = Executor(SPARC2)
        a, b = np.zeros(8), np.zeros(4)
        m1 = ex._address_map({"n": 8, "x": a, "y": b})
        m2 = ex._address_map({"n": a, "x": 8, "y": b})  # same names, other types
        assert set(m1.bases) == {"x", "y"}
        assert set(m2.bases) == {"n", "y"}
        # another insertion order is another layout but the same shape
        assert ex._address_map({"y": np.ones(4), "n": 3, "x": np.ones(8)}) is m1
        assert len(ex._amap_cache) == 2


class TestGeneratedCode:
    def test_source_is_regenerated_not_retained(self):
        ex = TieredExecutor(SPARC2, code_cache=Store())
        exe = compile_function(loop_fn(), SPARC2)
        ex.run(exe, envs()[0])
        wf = exe._jit_fn
        src = wf.source(counting=False, windowed=True)
        assert "def _fn(" in src
        assert "while True:" in src  # the loop chain
        assert not hasattr(wf.fn_for(False, True), "__source__")

    def test_variants_are_cached_per_key(self):
        exe = compile_function(loop_fn(), SPARC2)
        wf = WholeFunction(exe, SPARC2)
        assert wf.fn_for(False, True) is wf.fn_for(False, True)
        assert wf.fn_for(False, True) is not wf.fn_for(False, False)
        assert wf.fn_for(True, True) is not wf.fn_for(False, True)
        assert set(wf._fns) == {(False, True), (False, False), (True, True)}
