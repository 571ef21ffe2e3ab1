"""Unit tests for the Tier-1 whole-function compiler itself.

The differential suite (test_executor_differential.py) proves results are
bit-identical; these tests pin down the mechanics — compilation on first
use, chain layout, engagement on the paper's kernels, code caching,
digests, the window predicate, tier selection.
"""

import numpy as np
import pytest

from repro.compiler.options import OptConfig
from repro.compiler.pipeline import compile_version
from repro.ir import ArrayRef, FunctionBuilder, Type, Var
from repro.ir.block import BasicBlock
from repro.ir.stmt import Assign, CondBranch, Return
from repro.machine import (
    EXEC_TIERS,
    AddressMap,
    ExecutableCache,
    Executor,
    PENTIUM4,
    SPARC2,
    TieredExecutor,
    compile_function,
    create_executor,
    executable_digest,
    global_executable_cache,
)
from repro.machine.jit import WholeFunction, _chain_heads
from repro.workloads import get_workload


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

    def test_default_code_cache_is_global(self):
        ex = TieredExecutor(SPARC2)
        assert ex.code_cache is global_executable_cache()


class TestWholeFunctionCompilation:
    def test_first_invocation_runs_compiled(self):
        ex = TieredExecutor(SPARC2, code_cache=ExecutableCache())
        exe = compile_function(loop_fn(), SPARC2)
        ex.run(exe, envs()[0])
        assert exe._jit_fn is not None
        assert ex.compiled_frames == 1
        assert ex.interpreted_blocks == 0
        # the loop header heads its own chain, which runs as a while loop
        assert exe._jit_fn.heads == ("entry", "loop_header1")
        src = exe._jit_fn.source(counting=False, depth0=True, windowed=False)
        assert "while True:" in src

    def test_straight_line_function_compiles(self):
        b = FunctionBuilder("once", [("x", Type.FLOAT)], return_type=Type.FLOAT)
        b.ret(b.var("x") * 2.0)
        exe = compile_function(b.build(), SPARC2)
        ex = TieredExecutor(SPARC2, code_cache=ExecutableCache())
        for _ in range(4):
            res = ex.run(exe, {"x": 1.5})
        assert res.return_value == 3.0
        assert exe._jit_fn.heads == ("entry",)
        assert ex.compiled_frames == 4
        assert ex.interpreted_blocks == 0

    def test_call_blocks_run_compiled(self):
        cal = FunctionBuilder("g", [("v", Type.FLOAT)], return_type=Type.FLOAT)
        cal.ret(cal.var("v") + 1.0)
        b = FunctionBuilder("f", [("n", Type.INT)], return_type=Type.FLOAT)
        b.local("acc", Type.FLOAT)
        with b.for_("i", 0, b.var("n")):
            b.call("g", [b.var("acc")], target="acc")
        b.ret(b.var("acc"))
        callees = {"g": compile_function(cal.build(), SPARC2)}
        exe = compile_function(b.build(), SPARC2, callees=callees)
        ex = TieredExecutor(SPARC2, code_cache=ExecutableCache())
        res = ex.run(exe, {"n": 5})
        assert res.return_value == 5.0
        # the caller's frame plus one callee frame per call, all compiled
        assert ex.compiled_frames == 6
        assert ex.interpreted_blocks == 0

    @pytest.mark.parametrize("name", ["gzip", "bzip2", "swim"])
    def test_paper_kernels_never_interpret(self, name):
        """Tier 1 engages from the first invocation on: no block of the
        call-free tuning sections goes through the dispatch loop."""
        w = get_workload(name)
        for machine in (SPARC2, PENTIUM4):
            version = compile_version(
                w.ts, OptConfig.o3(), machine, program=w.program
            )
            ds = w.dataset("train")
            rng = np.random.default_rng(0)
            ex = TieredExecutor(machine, code_cache=ExecutableCache())
            for i in range(20):
                ex.run(version.exe, ds.env(rng, i), factors=version.factors,
                       count_blocks=i % 2 == 1)
            assert ex.compiled_frames == 20
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
        ex1 = TieredExecutor(SPARC2, code_cache=ExecutableCache())
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
        ex1 = TieredExecutor(SPARC2, code_cache=ExecutableCache())
        for x in range(-1, 8):
            r0 = ex0.run(exe0, {"x": x})
            r1 = ex1.run(exe1, {"x": x})
            assert (r0.cycles, r0.return_value) == (r1.cycles, r1.return_value)


class TestExecutableCache:
    def test_cache_hit_on_same_ir_and_costs(self):
        cache = ExecutableCache()
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

    def test_max_entries_evicts(self):
        cache = ExecutableCache(max_entries=1)
        cache.put("k1", WholeFunction(compile_function(loop_fn("f1"), SPARC2), SPARC2))
        cache.put("k2", WholeFunction(compile_function(loop_fn("f2"), SPARC2), SPARC2))
        assert len(cache) == 1
        assert cache.get("k1") is None
        assert cache.get("k2") is not None


def _fits(sizes: dict, n_sets: int, line: int) -> bool:
    window = AddressMap(sizes, line=line).window_lines
    return window is not None and window < n_sets


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
        ex = TieredExecutor(PENTIUM4, code_cache=ExecutableCache())
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
        ex = TieredExecutor(SPARC2, code_cache=ExecutableCache())
        exe = compile_function(loop_fn(), SPARC2)
        ex.run(exe, envs()[0])
        wf = exe._jit_fn
        src = wf.source(counting=False, depth0=True, windowed=True)
        assert "def _fn(" in src
        assert "while True:" in src  # the loop chain
        assert not hasattr(wf.fn_for(False, True, True), "__source__")

    def test_variants_are_cached_per_key(self):
        exe = compile_function(loop_fn(), SPARC2)
        wf = WholeFunction(exe, SPARC2)
        assert wf.fn_for(False, True, True) is wf.fn_for(False, True, True)
        assert wf.fn_for(False, True, True) is not wf.fn_for(False, True, False)
        # depth only matters for counting variants (it picks the count keys)
        assert wf.fn_for(False, True, False) is wf.fn_for(False, False, False)
