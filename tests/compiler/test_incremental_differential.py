"""Differential tests for incremental compilation.

The pass-prefix cache's contract is *bit-identical* compiles: resuming the
pipeline from a memoized IR snapshot — with whatever warm analyses rode
along — must produce exactly the Version a cold compile produces, for any
flag subset, on any kernel.  These tests enforce that contract on the
hand-written pipeline kernels, on random flag subsets (Hypothesis), and on
random IR programs, and additionally check the AnalysisManager's
preservation contract: an analysis a pass claims to preserve must equal a
fresh recomputation after the pass ran.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.manager import ANALYSES, AnalysisManager
from repro.compiler import (
    ALL_FLAGS,
    N_FLAGS,
    PREFIX_CACHE_MAX,
    OptConfig,
    PrefixStats,
    compile_version,
    effective_steps,
    ir_digest,
)
from repro.compiler.pipeline import _STEP_TRAITS, _apply_step
from repro.compiler.prefix import PRISTINE, _ir_digests, cached_ir_digest
from repro.core.peak import PeakTuner
from repro.ir import Type
from repro.machine import Executor, PENTIUM4, SPARC2
from repro.store import Store
from repro.workloads import WORKLOAD_NAMES, get_workload

from ..strategies import kernel_inputs, kernels
from .test_pipeline import KERNELS

#: an Iterative-Elimination-shaped sweep: -O3 plus each one-flag-off config
IE_SWEEP = (OptConfig.o3(),) + tuple(
    OptConfig.o3().without(f.name) for f in ALL_FLAGS
)

flag_subsets = st.sets(
    st.sampled_from([f.name for f in ALL_FLAGS]), min_size=0, max_size=N_FLAGS
)


def block_costs(version):
    """Every executable block's priced costs, in block order."""
    return [
        (b.label, b.compute_cycles, b.spill_cycles, b.is_branch)
        for b in version.exe.blocks.values()
    ]


def assert_versions_identical(cold, warm, context=""):
    """The full bit-identity bar: IR text, costing, code size, spills and
    every block's costs."""
    assert str(cold.ir) == str(warm.ir), context
    assert ir_digest(cold.ir) == ir_digest(warm.ir), context
    assert cold.factors == warm.factors, context
    assert cold.code_size == warm.code_size, context
    assert cold.block_spill == warm.block_spill, context
    assert cold.label == warm.label, context
    assert block_costs(cold) == block_costs(warm), context


def run_version(version, env, machine):
    env = {
        k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()
    }
    res = Executor(machine).run(version.exe, env)
    arrays = {k: v for k, v in env.items() if isinstance(v, np.ndarray)}
    return res, arrays


def assert_execution_identical(cold, warm, env, machine):
    r0, a0 = run_version(cold, env, machine)
    r1, a1 = run_version(warm, env, machine)
    assert r0.cycles == r1.cycles
    assert r0.mem_cycles == r1.mem_cycles
    assert repr(r0.return_value) == repr(r1.return_value)
    for name in a0:
        assert np.array_equal(a0[name], a1[name]), name


# --------------------------------------------------------------------------- #
# cold vs warm: the search-space sweep


class TestSweepBitIdentity:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_ie_sweep_cold_vs_warm(self, kernel):
        """Every config of an IE sweep: the warm compile (shared prefix
        cache across the whole sweep) is bit-identical to the cold one."""
        fn_factory, _ = KERNELS[kernel]
        fn = fn_factory()
        cache = Store(PREFIX_CACHE_MAX)
        stats = PrefixStats()
        for config in IE_SWEEP:
            cold = compile_version(fn, config, PENTIUM4)
            warm = compile_version(
                fn, config, PENTIUM4, prefix_cache=cache, prefix_stats=stats
            )
            assert_versions_identical(cold, warm, context=config.describe())
        assert stats.compiles == len(IE_SWEEP)
        assert stats.steps_saved > 0, "a sweep must share pass prefixes"
        assert stats.full_hits > 0, (
            "effect-only flags leave the step chain unchanged; dropped "
            "no-op passes re-converge — some compiles must be fully memoized"
        )
        assert stats.steps_saved + stats.steps_run == stats.steps_total

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_warm_sweep_executes_identically(self, kernel):
        """Spot-check that warm versions also *run* identically."""
        fn_factory, inputs_factory = KERNELS[kernel]
        fn = fn_factory()
        cache = Store(PREFIX_CACHE_MAX)
        rng = np.random.default_rng(7)
        env = inputs_factory(rng)
        for config in (OptConfig.o3(), OptConfig.o3().without("loop-optimize")):
            cold = compile_version(fn, config, SPARC2)
            warm = compile_version(fn, config, SPARC2, prefix_cache=cache)
            assert_execution_identical(cold, warm, env, SPARC2)

    def test_identical_config_is_a_full_hit(self):
        fn = KERNELS["regular"][0]()
        cache = Store(PREFIX_CACHE_MAX)
        first, second = PrefixStats(), PrefixStats()
        v1 = compile_version(
            fn, OptConfig.o3(), PENTIUM4, prefix_cache=cache, prefix_stats=first
        )
        v2 = compile_version(
            fn, OptConfig.o3(), PENTIUM4, prefix_cache=cache, prefix_stats=second
        )
        assert_versions_identical(v1, v2)
        assert first.full_hits == 0 and first.steps_run > 0
        assert second.full_hits == 1 and second.steps_run == 0
        assert second.steps_saved == len(effective_steps(OptConfig.o3()))

    def test_checked_compile_resumes_bit_identically(self):
        """``checked=True`` through the cache: validation must neither
        change the result nor reject a resumed snapshot."""
        fn = KERNELS["mixed"][0]()
        cache = Store(PREFIX_CACHE_MAX)
        for config in IE_SWEEP[:8]:
            cold = compile_version(fn, config, PENTIUM4, checked=True)
            warm = compile_version(
                fn, config, PENTIUM4, checked=True, prefix_cache=cache
            )
            assert_versions_identical(cold, warm, context=config.describe())

    def test_machines_share_one_prefix_cache(self):
        """Machine parameters never reach the pass pipeline, so one cache
        serves both machines and the second machine's sweep is fully warm."""
        fn = KERNELS["branchy"][0]()
        cache = Store(PREFIX_CACHE_MAX)
        p4_stats, sparc_stats = PrefixStats(), PrefixStats()
        compile_version(
            fn, OptConfig.o3(), PENTIUM4, prefix_cache=cache,
            prefix_stats=p4_stats,
        )
        warm = compile_version(
            fn, OptConfig.o3(), SPARC2, prefix_cache=cache,
            prefix_stats=sparc_stats,
        )
        cold = compile_version(fn, OptConfig.o3(), SPARC2)
        assert_versions_identical(cold, warm)
        assert sparc_stats.full_hits == 1 and sparc_stats.steps_run == 0


# --------------------------------------------------------------------------- #
# memoized cost facts and shared snapshots


class _CapturingTuner(PeakTuner):
    """A tuner that keeps the engine of its last tune."""

    def _search(self, *args):
        result, self.engine = super()._search(*args)
        return result, self.engine


class TestCostFactsAndSharedSnapshots:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_ie_sweep_equals_cold_on_every_workload(self, name):
        """The IE sweep of every workload's tuning section on both machines,
        through one prefix store, in sweep order: each version (block costs
        included) equals a compile with no store."""
        fn = get_workload(name).ts
        cache = Store(PREFIX_CACHE_MAX)
        for machine in (PENTIUM4, SPARC2):
            for config in IE_SWEEP:
                cold = compile_version(fn, config, machine)
                warm = compile_version(fn, config, machine, prefix_cache=cache)
                assert_versions_identical(
                    cold, warm, context=(machine.name, config.describe())
                )
        priced = [row for row in cache._entries.values() if row.costs]
        assert priced and all(len(row.costs) == 2 for row in priced)

    def test_pristine_section_has_its_own_row(self):
        """A compile no step changes prices the pristine section once and
        shares one snapshot of it."""
        fn = KERNELS["regular"][0]()
        cache = Store(PREFIX_CACHE_MAX)
        v1 = compile_version(fn, OptConfig.o0(), PENTIUM4, prefix_cache=cache)
        v2 = compile_version(fn, OptConfig.of("schedule-insns"), PENTIUM4, prefix_cache=cache)
        row = cache.get((ir_digest(fn), PRISTINE))
        assert row is not None and row.snapshot is v1.ir is v2.ir is not fn
        assert [m for m, _ in row.costs] == [PENTIUM4]
        for v in (v1, v2):
            assert_versions_identical(compile_version(fn, v.config, PENTIUM4), v)

    @pytest.mark.parametrize("name,method", [("swim", "CBR"), ("gzip", "RBR")])
    def test_a_tune_shares_snapshots_and_never_mutates_them(self, name, method):
        """After a full tune every snapshot of the prefix store still has
        the digest it was stored under, and the versions of one IR share
        one Function (which is also their executable's source)."""
        tuner = _CapturingTuner(PENTIUM4, seed=1)
        tuner.tune(get_workload(name), method=method)
        ctx = tuner.engine.ctx
        rows = [row for row in ctx.prefix_cache._entries.values() if row.snapshot is not None]
        assert rows
        for row in rows:
            assert ir_digest(row.snapshot) == row.out_digest
        by_ir: dict[str, set[int]] = {}
        versions = list(ctx.cache._entries.values())
        for v in versions:
            assert v.exe.source is v.ir
            by_ir.setdefault(ir_digest(v.ir), set()).add(id(v.ir))
        assert all(len(ids) == 1 for ids in by_ir.values())
        assert len(by_ir) < len(versions), "a tune lands on known IRs"


# --------------------------------------------------------------------------- #
# property-based: random flag subsets and random kernels


class TestRandomizedBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(flags=flag_subsets)
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_random_flag_subsets(self, kernel, flags):
        fn = KERNELS[kernel][0]()
        cache = Store(PREFIX_CACHE_MAX)
        config = OptConfig(frozenset(flags))
        cold = compile_version(fn, config, PENTIUM4)
        # twice through the same cache: the store path and the resume path
        warm1 = compile_version(fn, config, PENTIUM4, prefix_cache=cache)
        warm2 = compile_version(fn, config, PENTIUM4, prefix_cache=cache)
        assert_versions_identical(cold, warm1)
        assert_versions_identical(cold, warm2)

    @settings(max_examples=20, deadline=None)
    @given(fn=kernels(), env=kernel_inputs(), flags=flag_subsets)
    def test_random_kernels(self, fn, env, flags):
        cache = Store(PREFIX_CACHE_MAX)
        config = OptConfig(frozenset(flags))
        # warm the cache with -O3 first so the random config resumes from a
        # genuinely foreign chain, then compare against a cold compile
        compile_version(fn, OptConfig.o3(), SPARC2, prefix_cache=cache)
        cold = compile_version(fn, config, SPARC2)
        warm = compile_version(fn, config, SPARC2, prefix_cache=cache)
        assert_versions_identical(cold, warm)
        assert_execution_identical(cold, warm, env, SPARC2)


# --------------------------------------------------------------------------- #
# the AnalysisManager preservation contract


def _warm_all(am: AnalysisManager) -> None:
    for name in ANALYSES:
        am.get(name)


class TestPreservedAnalyses:
    """An analysis a pass *preserves* must equal a fresh recomputation —
    the exact-equality contract that makes re-stamping sound."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_preserved_entries_match_fresh_through_o3(self, kernel):
        fn = KERNELS[kernel][0]().copy()
        am = AnalysisManager(fn)
        _warm_all(am)
        for step in effective_steps(OptConfig.o3()):
            before = fn.ir_stamp
            changed = _apply_step(step, fn, am)
            if changed and fn.ir_stamp == before:
                traits = _STEP_TRAITS[step]
                am.commit(traits.mutates, traits.preserves)
            for name in am.cached_names():
                fresh = ANALYSES[name].compute(fn)
                assert repr(am.get(name)) == repr(fresh), (step, name)
            _warm_all(am)

    @settings(max_examples=15, deadline=None)
    @given(fn=kernels())
    def test_preserved_entries_match_fresh_random(self, fn):
        out = fn.copy()
        am = AnalysisManager(out)
        _warm_all(am)
        for step in effective_steps(OptConfig.o3()):
            before = out.ir_stamp
            changed = _apply_step(step, out, am)
            if changed and out.ir_stamp == before:
                traits = _STEP_TRAITS[step]
                am.commit(traits.mutates, traits.preserves)
            for name in am.cached_names():
                fresh = ANALYSES[name].compute(out)
                assert repr(am.get(name)) == repr(fresh), (step, name)
            _warm_all(am)


# --------------------------------------------------------------------------- #
# ir_digest fidelity


class TestIrDigest:
    def test_digest_is_stable(self):
        fn = KERNELS["regular"][0]()
        assert ir_digest(fn) == ir_digest(fn)
        assert ir_digest(fn) == ir_digest(fn.copy())

    def test_digest_separates_kernels_and_transforms(self):
        regular = KERNELS["regular"][0]()
        branchy = KERNELS["branchy"][0]()
        assert ir_digest(regular) != ir_digest(branchy)
        from repro.compiler import run_passes

        optimized = run_passes(regular, OptConfig.o3())
        assert ir_digest(optimized) != ir_digest(regular)

    def test_digest_sees_local_declaration_order(self):
        """``str(fn)`` sorts locals; the digest must not — passes observe
        insertion order through ``fresh_name``."""
        from repro.ir import FunctionBuilder, Type

        def build(order):
            b = FunctionBuilder("f", [("n", Type.INT)], return_type=Type.INT)
            for name in order:
                b.local(name, Type.INT)
            b.ret(b.var("n"))
            return b.build()

        a = build(["u", "v"])
        b = build(["v", "u"])
        assert str(a) == str(b), "precondition: str() masks declaration order"
        assert ir_digest(a) != ir_digest(b)


# --------------------------------------------------------------------------- #
# the pass-prefix store and the IR digest memo


class _RacingStore(Store):
    """A prefix store whose chain walk never hits, as for a compile that
    walked the chain before a concurrent compile's rows landed."""

    def get(self, key):
        super().get(key)
        return None


class TestPassPrefixCache:
    def test_lookup_counts_hits_and_misses(self):
        """A cold compile misses once, where its chain walk stops, and
        stores one row per step; the warm compile hits every row."""
        fn = KERNELS["regular"][0]()
        steps = len(effective_steps(OptConfig.o3()))
        cache = Store(PREFIX_CACHE_MAX)
        compile_version(fn, OptConfig.o3(), PENTIUM4, prefix_cache=cache)
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, steps)
        compile_version(fn, OptConfig.o3(), PENTIUM4, prefix_cache=cache)
        assert (cache.hits, cache.misses, len(cache)) == (steps, 1, steps)

    def test_store_keeps_first_entry(self):
        """A racing compile's rows never replace the rows the first compile
        stored — the owner row carries its analyses and validated mark."""
        fn = KERNELS["mixed"][0]()
        cache = _RacingStore(PREFIX_CACHE_MAX)
        compile_version(fn, OptConfig.o3(), PENTIUM4, checked=True, prefix_cache=cache)
        rows = dict(cache._entries)
        assert any(row.validated for row in rows.values())
        compile_version(fn, OptConfig.o3(), PENTIUM4, checked=True, prefix_cache=cache)
        assert len(cache._entries) == len(rows)
        assert all(cache._entries[key] is row for key, row in rows.items())

    def test_clear_resets_everything(self):
        """Clearing a thrashed prefix cache drops its rows and resets the
        hit, miss and eviction counters; the next compile starts cold."""
        fn = KERNELS["mixed"][0]()
        cache = Store(max_entries=1)
        compile_version(fn, OptConfig.o3(), PENTIUM4, prefix_cache=cache)
        compile_version(fn, OptConfig.o3(), PENTIUM4, prefix_cache=cache)
        assert cache.evictions > 0 and cache.misses > 0
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
        compile_version(fn, OptConfig.o3(), PENTIUM4, prefix_cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)

    def test_bounded_cache_still_compiles_correctly(self):
        """A pathologically tiny cache thrashes but must stay correct."""
        fn = KERNELS["mixed"][0]()
        cache = Store(max_entries=3)
        for config in IE_SWEEP[:6]:
            cold = compile_version(fn, config, PENTIUM4)
            warm = compile_version(fn, config, PENTIUM4, prefix_cache=cache)
            assert_versions_identical(cold, warm, context=config.describe())
        assert cache.evictions > 0


class TestCachedIrDigest:
    def test_redigests_after_a_mutation_stamp_bump(self):
        fn = KERNELS["regular"][0]()
        before = cached_ir_digest(fn)
        fn.locals["extra"] = Type.INT
        fn.bump_stmts()
        assert cached_ir_digest(fn) == ir_digest(fn) != before

    def test_never_serves_a_dead_objects_entry(self):
        class _Husk:
            pass

        fn = KERNELS["regular"][0]()
        husk = _Husk()
        dead = weakref.ref(husk)
        del husk
        # simulate id reuse: a dead object's entry squatting on fn's key
        _ir_digests.clear()
        _ir_digests.put((id(fn), *fn.ir_stamp), (dead, "stale"))
        assert cached_ir_digest(fn) == ir_digest(fn)


# --------------------------------------------------------------------------- #
# effective_steps invariants


class TestEffectiveSteps:
    def test_o3_includes_every_gated_pass(self):
        steps = effective_steps(OptConfig.o3())
        assert "gcse" in steps and "licm" in steps and "dce" in steps
        assert "cse-local" not in steps, "gcse subsumes local CSE"
        assert "cse-rerun:g" in steps

    def test_cse_rerun_variant_tracks_the_cse_family(self):
        no_gcse = OptConfig.o3().without("gcse")
        assert "cse-rerun:l" in effective_steps(no_gcse)
        assert "cse-local" in effective_steps(no_gcse)
        neither = no_gcse.without("cse-follow-jumps")
        assert not any(
            s.startswith("cse-rerun") for s in effective_steps(neither)
        )

    def test_effect_only_flags_do_not_change_the_chain(self):
        base = effective_steps(OptConfig.o3())
        for flag in ("strict-aliasing", "schedule-insns", "omit-frame-pointer"):
            assert effective_steps(OptConfig.o3().without(flag)) == base

    def test_empty_config_runs_nothing(self):
        assert effective_steps(OptConfig(frozenset())) == ()
