"""Regression tests for the rating-pipeline correctness fixes.

Covers the four bugs fixed alongside the observability layer:

* RBR: a non-positive measured time used to return ``inf`` and poison the
  whole window (mean/MAD went NaN/inf, convergence impossible).
* MBR: unconstrained ``lstsq`` on collinear count matrices produced
  negative component times.
* outliers: the degenerate-MAD fallback was one-sided (low outliers never
  removed) and the half-the-data guard was off by one for odd sizes.
* CBR: empty context buckets emitted NumPy RuntimeWarnings mid-run.

Plus the RBR improved-mode invariants: A/B order alternation, precondition
accounting, and the env-state contract of ``_one_invocation``.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import analyze_context
from repro.compiler import OptConfig, compile_version
from repro.core.rating import (
    ContextBasedRating,
    InvocationFeed,
    ModelBasedRating,
    RatingSettings,
    ReExecutionRating,
    solve_component_times,
)
from repro.core.rating.cbr import _Bucket
from repro.core.rating.mbr import _nnls
from repro.core.rating.outliers import filter_outliers
from repro.ir import ArrayRef, FunctionBuilder, Type
from repro.machine import NoiseModel, SPARC2
from repro.obs import Obs
from repro.runtime import SaveRestorePlan, TimedExecutor, TuningLedger
from repro.runtime.save_restore import copy_array

SETTINGS = RatingSettings(window=12, max_invocations=400)


def scaled_kernel():
    b = FunctionBuilder("kern", [("n", Type.INT), ("a", Type.FLOAT_ARRAY)])
    with b.for_("i", 0, b.var("n")) as i:
        b.store("a", i, ArrayRef("a", i) * 1.01 + 0.5)
    b.ret()
    return b.build()


def two_context_gen(rng, i):
    n = 16 if i % 2 == 0 else 48
    return {"n": n, "a": rng.standard_normal(64)}


def make_feed(seed=0):
    ledger = TuningLedger()
    return InvocationFeed(two_context_gen, 64, 10_000.0, ledger, seed=seed), ledger


def version(fn, config=None):
    return compile_version(fn, config or OptConfig.o3(), SPARC2)


# --------------------------------------------------------------------------- #
# RBR: degenerate (non-positive) measurements are dropped, not returned as inf


class _ZeroingExecutor(TimedExecutor):
    """Deterministically zeroes the measured time of every Nth timed invoke."""

    def __init__(self, *args, every=5, **kwargs):
        super().__init__(*args, **kwargs)
        self._every = every
        self._timed_calls = 0

    def invoke(self, version, env, *, timed=True, **kwargs):
        sample = super().invoke(version, env, timed=timed, **kwargs)
        if timed:
            self._timed_calls += 1
            if self._timed_calls % self._every == 0:
                sample = replace(sample, measured_cycles=0.0)
        return sample


class TestRBRDegenerateSamples:
    def _rate(self, obs=None, every=5):
        fn = scaled_kernel()
        feed, ledger = make_feed()
        timed = _ZeroingExecutor(
            SPARC2, seed=2, ledger=ledger, obs=obs, every=every
        )
        rbr = ReExecutionRating(SaveRestorePlan(fn, SPARC2), SETTINGS, timed)
        v = version(fn)
        return rbr.rate_pair(v, v, feed)

    def test_window_stays_finite_and_converges(self):
        res = self._rate()
        assert np.isfinite(res.eval)
        assert np.isfinite(res.var)
        assert np.all(np.isfinite(res.samples))
        # identical versions still rate ~1 despite the zeroed measurements
        assert res.eval == pytest.approx(1.0, abs=0.05)
        assert res.converged

    def test_degenerate_samples_are_counted_in_notes(self):
        res = self._rate()
        assert "degenerate_samples=" in res.notes
        n = int(res.notes.rsplit("=", 1)[1])
        assert n >= 1
        # dropped samples still consumed invocations
        assert res.n_invocations > res.n_samples

    def test_degenerate_counter_reaches_the_metrics_registry(self):
        obs = Obs.create()
        res = self._rate(obs=obs)
        n = int(res.notes.rsplit("=", 1)[1])
        assert obs.metrics.counter_value(
            "rating.degenerate_samples", method="RBR"
        ) == n

    def test_clean_run_reports_no_degenerates(self):
        fn = scaled_kernel()
        feed, ledger = make_feed()
        timed = TimedExecutor(SPARC2, seed=2, ledger=ledger)
        rbr = ReExecutionRating(SaveRestorePlan(fn, SPARC2), SETTINGS, timed)
        v = version(fn)
        res = rbr.rate_pair(v, v, feed)
        assert "degenerate" not in res.notes


# --------------------------------------------------------------------------- #
# MBR: non-negative least squares on ill-conditioned count matrices


class TestMBRNonNegativeSolve:
    # component 2's counts are ~2x component 1's (collinear columns); the
    # perturbation pushes the unconstrained fit to a large negative T[0]
    C_COLLINEAR = np.array([
        [10.0, 20.0, 30.0, 40.0, 50.0],
        [20.1, 39.9, 60.2, 79.8, 100.1],
    ])
    Y_COLLINEAR = (
        np.array([5.0, 2.0]) @ C_COLLINEAR
        + np.array([30.0, -40.0, 35.0, -30.0, 20.0])
    )

    def test_collinear_counts_yield_nonnegative_times(self):
        T_unc, *_ = np.linalg.lstsq(
            self.C_COLLINEAR.T, self.Y_COLLINEAR, rcond=None
        )
        assert T_unc.min() < 0  # the bug this guards against
        T = solve_component_times(self.Y_COLLINEAR, self.C_COLLINEAR)
        assert np.all(T >= 0)
        # the constrained fit still explains the data (T_avg is sane)
        T_avg = T @ self.C_COLLINEAR.mean(axis=1)
        assert T_avg > 0

    def test_well_conditioned_solution_is_unchanged(self):
        C = np.array([[4.0, 1.0, 3.0, 2.0, 5.0], [1.0, 3.0, 2.0, 5.0, 4.0]])
        Y = np.array([110.0, 30.0, 80.0, 60.0, 130.0])
        T = solve_component_times(Y, C)
        T_unc, *_ = np.linalg.lstsq(C.T, Y, rcond=None)
        assert np.allclose(T, T_unc)
        assert np.all(T >= 0)

    def test_paper_figure2_example_still_exact(self):
        Y = np.array([11015.0, 5508.0, 6626.0, 6044.0, 8793.0])
        C = np.array([
            [100.0, 50.0, 60.0, 54.0, 79.0],
            [4.0, 2.0, 6.0, 28.0, 26.0],
        ])
        T = solve_component_times(Y, C)
        assert T == pytest.approx([110.05, 3.75], abs=0.1)

    def test_nnls_clamps_to_the_boundary(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.array([-3.0, 2.0, 0.0])
        x = _nnls(A, b)
        assert x == pytest.approx([0.0, 1.0])

    def test_nnls_matches_lstsq_when_interior(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(1, 2, size=(12, 3))
        x_true = np.array([3.0, 1.0, 2.0])
        b = A @ x_true
        assert _nnls(A, b) == pytest.approx(x_true, abs=1e-8)

    def test_nnls_never_beats_itself_with_sign_flips(self):
        # KKT spot check: zeroing any active coordinate of a random problem
        # cannot improve the residual over the nnls solution
        rng = np.random.default_rng(11)
        for _ in range(10):
            A = rng.standard_normal((8, 3)) + 1.0
            b = rng.standard_normal(8) * 5.0
            x = _nnls(A, b)
            assert np.all(x >= 0)
            base = np.linalg.norm(A @ x - b)
            for j in range(3):
                for delta in (0.01, -0.01):
                    cand = x.copy()
                    cand[j] = max(0.0, cand[j] + delta)
                    assert np.linalg.norm(A @ cand - b) >= base - 1e-9


# --------------------------------------------------------------------------- #
# outlier filter: symmetric degenerate-MAD fallback, exact-half guard


class TestOutlierFilter:
    def test_low_outlier_removed_in_degenerate_fallback(self):
        # many equal samples -> MAD == 0; a 0-cycle mismeasurement must go
        x = np.array([100.0] * 10 + [1.0])
        out = filter_outliers(x)
        assert 1.0 not in out
        assert out.size == 10

    def test_high_outlier_still_removed(self):
        x = np.array([100.0] * 10 + [1000.0])
        out = filter_outliers(x)
        assert 1000.0 not in out
        assert out.size == 10

    def test_fallback_bounds_are_symmetric(self):
        # med=90: keep exactly [30, 270]
        x = np.array([90.0] * 8 + [30.0, 270.0, 29.9, 270.1])
        out = filter_outliers(x)
        assert 30.0 in out and 270.0 in out
        assert 29.9 not in out and 270.1 not in out

    def test_never_removes_half_for_odd_sizes(self):
        # k=0.5 keeps only the two exact-median samples (2 of 5); removing
        # 3 of 5 would contradict the never-more-than-half contract
        x = np.array([1.0, 3.0, 3.0, 100.0, 101.0])
        out = filter_outliers(x, k=0.5)
        assert out.size == x.size

    def test_never_removes_half_for_even_sizes(self):
        # keeping exactly half of an even-size sample (2 of 4) now also
        # triggers the guard: genuinely spread data is kept whole
        x = np.array([1.0, 3.0, 3.0, 100.0])
        out = filter_outliers(x, k=0.5)
        assert out.size == x.size

    def test_all_zero_samples_pass_through(self):
        x = np.zeros(8)
        assert filter_outliers(x).size == 8

    def test_small_samples_untouched(self):
        x = np.array([1.0, 50.0, 5000.0])
        assert filter_outliers(x).size == 3


# --------------------------------------------------------------------------- #
# CBR: empty context buckets must not emit RuntimeWarnings


class TestCBREmptyContexts:
    def _cbr(self):
        fn = scaled_kernel()
        analysis = analyze_context(fn)
        ledger = TuningLedger()
        timed = TimedExecutor(SPARC2, seed=0, ledger=ledger)
        return ContextBasedRating(analysis, SETTINGS, timed)

    def test_stats_of_empty_array_is_nan_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, var = ContextBasedRating._stats(np.array([]))
        assert np.isnan(mean)
        assert var == float("inf")

    def test_result_with_empty_bucket_is_warning_free(self):
        cbr = self._cbr()
        full = _Bucket()
        for t in [100.0, 101.0, 99.0, 100.0]:
            full.window.append(t)
        full.total_time = float(full.window.samples.sum())
        empty = _Bucket()  # all samples filtered out / never populated
        buckets = {("ctx", 48): full, ("ctx", 16): empty}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = cbr._result(
                buckets, ("ctx", 48), full.window.clean(), 4, True
            )
        assert np.isfinite(res.eval)
        mean, var, size = res.per_context[("ctx", 16)]
        assert np.isnan(mean) and var == float("inf") and size == 0

    def test_full_rate_is_warning_free(self):
        fn = scaled_kernel()
        feed, ledger = make_feed()
        analysis = analyze_context(fn)
        timed = TimedExecutor(SPARC2, seed=0, ledger=ledger)
        cbr = ContextBasedRating(analysis, SETTINGS, timed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = cbr.rate(version(fn), feed)
        assert res.converged


# --------------------------------------------------------------------------- #
# RBR improved-mode invariants (Fig. 4)


class _OrderRecordingExecutor(TimedExecutor):
    """Records the versions passed to timed invokes, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.timed_versions = []

    def invoke(self, version, env, *, timed=True, **kwargs):
        if timed:
            self.timed_versions.append(version)
        return super().invoke(version, env, timed=timed, **kwargs)


class TestRBRImprovedInvariants:
    def _setup(self, noise=None, executor_cls=_OrderRecordingExecutor):
        fn = scaled_kernel()
        feed, ledger = make_feed()
        timed = executor_cls(SPARC2, seed=2, noise=noise, ledger=ledger)
        rbr = ReExecutionRating(SaveRestorePlan(fn, SPARC2), SETTINGS, timed)
        return fn, feed, ledger, timed, rbr

    def test_ab_order_alternates_every_invocation(self):
        fn, feed, ledger, timed, rbr = self._setup()
        exp = version(fn, OptConfig.o3())
        base = version(fn, OptConfig.o0())
        for _ in range(6):
            rbr._one_invocation(exp, base, feed.next_env())
        firsts = timed.timed_versions[0::2]
        seconds = timed.timed_versions[1::2]
        # _swap starts False and toggles on entry: exp leads odd invocations
        assert firsts == [exp, base, exp, base, exp, base]
        assert seconds == [base, exp, base, exp, base, exp]

    def test_precondition_charged_to_ledger_not_eval(self):
        fn, feed, ledger, timed, rbr = self._setup(noise=NoiseModel.disabled())
        v = version(fn)
        res = rbr.rate_pair(v, v, feed)
        # the precondition run was charged...
        assert ledger.by_category["precondition"] > 0
        # ...but is invisible in EVAL: identical versions, noise-free,
        # preconditioned equally -> every ratio is exactly 1
        assert res.eval == 1.0
        assert res.var == 0.0

    def test_env_state_equals_plain_invocation_of_second_version(self):
        fn, feed, ledger, timed, rbr = self._setup()
        exp = version(fn, OptConfig.o3())
        base = version(fn, OptConfig.o0())
        proto = feed.next_env().env

        env_rbr = {k: copy_array(v) if hasattr(v, "__len__") else v
                   for k, v in proto.items()}
        rbr._one_invocation(exp, base, env_rbr)
        # after the toggle inside _one_invocation, the second-run version is
        second = base if rbr._swap else exp

        env_plain = {k: copy_array(v) if hasattr(v, "__len__") else v
                     for k, v in proto.items()}
        plain = TimedExecutor(SPARC2, seed=99, ledger=TuningLedger())
        plain.run_untimed(second, env_plain)

        assert any(isinstance(v, list) for v in proto.values())
        for name, value in env_plain.items():
            if hasattr(value, "__len__"):
                assert env_rbr[name] is not value, name
                assert env_rbr[name] is not proto[name], name
                np.testing.assert_array_equal(np.asarray(env_rbr[name]), np.asarray(value))
            else:
                assert env_rbr[name] == value
