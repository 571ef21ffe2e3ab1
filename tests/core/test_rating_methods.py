"""Tests for CBR, MBR, RBR, WHL, and AVG on controlled workloads."""

import numpy as np
import pytest

from repro.analysis import analyze_context, build_components
from repro.compiler import OptConfig, compile_version
from repro.core.rating import (
    AverageRating,
    ContextBasedRating,
    InvocationFeed,
    ModelBasedRating,
    RatingSettings,
    ReExecutionRating,
    WholeProgramRating,
    regression_var,
    solve_component_times,
)
from repro.ir import ArrayRef, FunctionBuilder, Type, Var
from repro.machine import NoiseModel, SPARC2, profile_tuning_section
from repro.runtime import SaveRestorePlan, TimedExecutor, TuningLedger, instrument_counters


# --------------------------------------------------------------------------- #
# a controllable TS: time scales with scalar context n


def scaled_kernel():
    b = FunctionBuilder(
        "kern", [("n", Type.INT), ("a", Type.FLOAT_ARRAY)]
    )
    with b.for_("i", 0, b.var("n")) as i:
        b.store("a", i, ArrayRef("a", i) * 1.01 + 0.5)
    b.ret()
    return b.build()


def two_context_gen(rng, i):
    n = 16 if i % 2 == 0 else 48
    return {"n": n, "a": rng.standard_normal(64)}


def make_feed(gen, seed=0, n_per_run=64):
    ledger = TuningLedger()
    return InvocationFeed(gen, n_per_run, 10_000.0, ledger, seed=seed), ledger


def make_timed(seed=0, noise=None, ledger=None):
    return TimedExecutor(SPARC2, seed=seed, noise=noise, ledger=ledger)


def version(fn, config=None):
    return compile_version(fn, config if config is not None else OptConfig.o3(), SPARC2)


SETTINGS = RatingSettings(window=12, max_invocations=400)


class TestCBR:
    def test_groups_by_context(self):
        fn = scaled_kernel()
        analysis = analyze_context(fn)
        feed, ledger = make_feed(two_context_gen)
        timed = make_timed(ledger=ledger)
        cbr = ContextBasedRating(analysis, SETTINGS, timed)
        res = cbr.rate(version(fn), feed)
        assert res.method == "CBR"
        assert len(res.per_context) == 2
        evals = {k: v[0] for k, v in res.per_context.items()}
        (k_small,) = [k for k in evals if 16 in k]
        (k_big,) = [k for k in evals if 48 in k]
        assert evals[k_big] > 2 * evals[k_small]

    def test_dominant_context_is_most_time(self):
        fn = scaled_kernel()
        analysis = analyze_context(fn)
        feed, ledger = make_feed(two_context_gen)
        cbr = ContextBasedRating(analysis, SETTINGS, make_timed(ledger=ledger))
        res = cbr.rate(version(fn), feed)
        # n=48 contexts dominate total time, so EVAL must reflect them
        assert "48" in res.notes or res.eval > 1000

    def test_converges_without_noise(self):
        fn = scaled_kernel()
        analysis = analyze_context(fn)
        feed, ledger = make_feed(two_context_gen)
        timed = make_timed(noise=NoiseModel.disabled(), ledger=ledger)
        res = ContextBasedRating(analysis, SETTINGS, timed).rate(version(fn), feed)
        assert res.converged
        assert res.var <= SETTINGS.var_threshold

    def test_detects_faster_version(self):
        fn = scaled_kernel()
        analysis = analyze_context(fn)
        timed = make_timed(seed=3)
        slow = version(fn, OptConfig.o0())
        fast = version(fn, OptConfig.o3())
        feed, _ = make_feed(two_context_gen, seed=1)
        r_slow = ContextBasedRating(analysis, SETTINGS, timed).rate(slow, feed)
        feed2, _ = make_feed(two_context_gen, seed=1)
        r_fast = ContextBasedRating(analysis, SETTINGS, timed).rate(fast, feed2)
        assert r_fast.speed_vs(r_slow) > 1.05

    def test_rejects_inapplicable_analysis(self):
        b = FunctionBuilder("f", [("a", Type.INT_ARRAY)], return_type=Type.INT)
        b.local("i", Type.INT)
        with b.while_(ArrayRef("a", Var("i")) > 0):
            b.assign("i", b.var("i") + 1)
        b.ret(b.var("i"))
        analysis = analyze_context(b.build())
        with pytest.raises(ValueError):
            ContextBasedRating(analysis, SETTINGS, make_timed())


class TestMBRUnits:
    def test_paper_figure2_example(self):
        """The worked example of Fig. 2: Y, C -> T = [110.05, 3.75]."""
        Y = np.array([11015.0, 5508.0, 6626.0, 6044.0, 8793.0])
        C = np.array(
            [
                [100.0, 50.0, 60.0, 55.0, 80.0],
                [1.0, 1.0, 1.0, 1.0, 1.0],
            ]
        )
        T = solve_component_times(Y, C)
        assert T[0] == pytest.approx(110.05, abs=0.5)
        assert T[1] == pytest.approx(3.75, abs=15.0)  # small, noise-sensitive
        # the reconstruction must be close
        assert regression_var(Y, C, T) < 1e-4

    def test_exact_model_recovers_times(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(10, 100, size=30).astype(float)
        C = np.vstack([counts, np.ones(30)])
        T_true = np.array([42.0, 300.0])
        Y = T_true @ C
        T = solve_component_times(Y, C)
        np.testing.assert_allclose(T, T_true, rtol=1e-10)
        assert regression_var(Y, C, T) < 1e-20


class TestMBREndToEnd:
    def _setup(self, seed=0, noise=None):
        fn = scaled_kernel()

        def gen(rng, i):
            n = int(10 + 10 * (i % 5))  # many contexts -> MBR territory
            return {"n": n, "a": rng.standard_normal(64)}

        prof = profile_tuning_section(
            fn, ({"n": int(10 + 10 * (i % 5)), "a": np.zeros(64)} for i in range(30)),
            SPARC2,
        )
        model = build_components(prof.block_counts)
        instr = instrument_counters(fn, model.counter_blocks())
        rep_counts = {r: prof.block_counts[r] for r in model.counter_blocks()}
        avg = model.average_counts(rep_counts)
        feed, ledger = make_feed(gen, seed=seed)
        timed = make_timed(seed=seed, noise=noise, ledger=ledger)
        return instr, model, avg, feed, timed

    def test_rates_instrumented_version(self):
        instr, model, avg, feed, timed = self._setup(noise=NoiseModel.disabled())
        mbr = ModelBasedRating(model, avg, SETTINGS, timed)
        res = mbr.rate(version(instr), feed)
        assert res.converged
        assert res.eval > 0
        assert res.method == "MBR"

    def test_requires_instrumented_version(self):
        instr, model, avg, feed, timed = self._setup()
        mbr = ModelBasedRating(model, avg, SETTINGS, timed)
        with pytest.raises(ValueError, match="instrumented"):
            mbr.rate(version(scaled_kernel()), feed)

    def test_detects_faster_version(self):
        instr, model, avg, feed, timed = self._setup(seed=5)
        mbr = ModelBasedRating(model, avg, SETTINGS, timed)
        r_slow = mbr.rate(version(instr, OptConfig.o0()), feed)
        r_fast = mbr.rate(version(instr, OptConfig.o3()), feed)
        assert r_fast.speed_vs(r_slow) > 1.05

    def test_fixed_dominant_mode(self):
        instr, model, avg, feed, timed = self._setup(noise=NoiseModel.disabled())
        mbr = ModelBasedRating(model, avg, SETTINGS, timed, dominant=0)
        res = mbr.rate(version(instr), feed)
        assert "dominant component 0" in res.notes
        # per-iteration time of the loop body: a few dozen cycles
        assert 0 < res.eval < 500


class TestRBR:
    def _plan(self, fn):
        return SaveRestorePlan(fn, SPARC2)

    def test_same_version_rates_one(self):
        fn = scaled_kernel()
        feed, ledger = make_feed(two_context_gen)
        timed = make_timed(seed=2, ledger=ledger)
        rbr = ReExecutionRating(self._plan(fn), SETTINGS, timed)
        v = version(fn)
        res = rbr.rate_pair(v, v, feed)
        assert res.method == "RBR"
        assert res.eval == pytest.approx(1.0, abs=0.05)

    def test_detects_faster_version(self):
        fn = scaled_kernel()
        feed, ledger = make_feed(two_context_gen)
        timed = make_timed(seed=2, ledger=ledger)
        rbr = ReExecutionRating(self._plan(fn), SETTINGS, timed)
        res = rbr.rate_pair(version(fn, OptConfig.o3()), version(fn, OptConfig.o0()), feed)
        assert res.eval > 1.05  # O3 faster than O0

    def test_restores_inputs_between_executions(self):
        # the TS mutates a; RBR must restore so both versions see equal work
        fn = scaled_kernel()
        feed, ledger = make_feed(two_context_gen)
        timed = make_timed(noise=NoiseModel.disabled(), ledger=ledger)
        rbr = ReExecutionRating(self._plan(fn), SETTINGS, timed)
        v = version(fn)
        res = rbr.rate_pair(v, v, feed)
        # identical versions under identical inputs: ratio ~exactly 1
        assert res.eval == pytest.approx(1.0, abs=0.02)

    def test_overheads_charged(self):
        fn = scaled_kernel()
        feed, ledger = make_feed(two_context_gen)
        timed = make_timed(ledger=ledger)
        rbr = ReExecutionRating(self._plan(fn), SETTINGS, timed)
        v = version(fn)
        rbr.rate_pair(v, v, feed)
        assert ledger.by_category["save_restore"] > 0
        assert ledger.by_category["precondition"] > 0

    def test_basic_mode_has_no_precondition(self):
        fn = scaled_kernel()
        feed, ledger = make_feed(two_context_gen)
        timed = make_timed(ledger=ledger)
        rbr = ReExecutionRating(self._plan(fn), SETTINGS, timed, improved=False)
        v = version(fn)
        res = rbr.rate_pair(v, v, feed)
        assert "precondition" not in ledger.by_category
        assert res.notes == "basic"

    def test_swap_alternates(self):
        fn = scaled_kernel()
        feed, _ = make_feed(two_context_gen)
        timed = make_timed()
        rbr = ReExecutionRating(self._plan(fn), SETTINGS, timed)
        v = version(fn)
        env = feed.next_env().env
        rbr._one_invocation(v, v, dict(env))
        first = rbr._swap
        rbr._one_invocation(v, v, dict(env))
        assert rbr._swap != first


class TestWHL:
    def test_consumes_full_runs(self):
        fn = scaled_kernel()
        feed, ledger = make_feed(two_context_gen, n_per_run=20)
        timed = make_timed(ledger=ledger)
        whl = WholeProgramRating(SETTINGS, timed, runs_per_rating=2)
        res = whl.rate(version(fn), feed)
        assert res.n_invocations == 40
        assert ledger.program_runs == 2
        assert res.converged

    def test_includes_non_ts_time(self):
        fn = scaled_kernel()
        feed, ledger = make_feed(two_context_gen, n_per_run=10)
        timed = make_timed(noise=NoiseModel.disabled(), ledger=ledger)
        whl = WholeProgramRating(SETTINGS, timed, runs_per_rating=1)
        res = whl.rate(version(fn), feed)
        assert res.eval > 10_000.0  # non-TS cycles included


class TestAVG:
    def test_fixed_window(self):
        fn = scaled_kernel()
        feed, ledger = make_feed(two_context_gen)
        timed = make_timed(ledger=ledger)
        avg = AverageRating(SETTINGS, timed)
        res = avg.rate(version(fn), feed)
        assert res.n_invocations == SETTINGS.window
        assert res.converged

    def test_blends_contexts(self):
        # AVG's eval sits between the two contexts' true times
        fn = scaled_kernel()
        analysis = analyze_context(fn)
        feed, _ = make_feed(two_context_gen, seed=1)
        timed = make_timed(noise=NoiseModel.disabled())
        cbr_res = ContextBasedRating(analysis, SETTINGS, timed).rate(version(fn), feed)
        evals = sorted(v[0] for v in cbr_res.per_context.values())
        feed2, _ = make_feed(two_context_gen, seed=1)
        avg_res = AverageRating(SETTINGS, timed).rate(version(fn), feed2)
        assert evals[0] < avg_res.eval < evals[1]
