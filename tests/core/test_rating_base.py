"""Tests for the rating framework: EVAL/VAR semantics, outliers, feeds."""

import numpy as np
import pytest

from repro.core.rating import (
    Direction,
    InvocationFeed,
    RatingResult,
    filter_outliers,
    rating_var,
    relative_var,
)
from repro.runtime import TuningLedger


class TestVariance:
    def test_relative_var_scale_free(self):
        x = np.array([1.0, 1.1, 0.9, 1.05])
        assert relative_var(x) == pytest.approx(relative_var(x * 1000))

    def test_rating_var_decreases_with_window(self):
        rng = np.random.default_rng(0)
        small = rng.normal(100, 5, size=10)
        large = rng.normal(100, 5, size=160)
        # the paper's Section 3/Table 1 property: VAR shrinks as w grows
        assert rating_var(large) < rating_var(small)

    def test_single_sample_is_infinite(self):
        assert rating_var(np.array([1.0])) == float("inf")
        assert relative_var(np.array([1.0])) == float("inf")

    def test_zero_mean_is_infinite(self):
        assert relative_var(np.array([1.0, -1.0])) == float("inf")


class TestSpeedVs:
    def _r(self, eval_, direction):
        return RatingResult("X", eval_, 0.0, direction, 10, 10, True)

    def test_time_valued_ratio(self):
        base = self._r(200.0, Direction.LOWER_IS_BETTER)
        cand = self._r(100.0, Direction.LOWER_IS_BETTER)
        assert cand.speed_vs(base) == 2.0

    def test_rbr_speed_is_direct(self):
        cand = self._r(1.25, Direction.HIGHER_IS_BETTER)
        assert cand.speed_vs(None) == 1.25

    def test_time_valued_needs_base(self):
        cand = self._r(100.0, Direction.LOWER_IS_BETTER)
        with pytest.raises(ValueError):
            cand.speed_vs(None)

    def test_base_must_be_time_valued(self):
        cand = self._r(100.0, Direction.LOWER_IS_BETTER)
        base = self._r(1.1, Direction.HIGHER_IS_BETTER)
        with pytest.raises(ValueError):
            cand.speed_vs(base)


class TestOutliers:
    def test_interrupt_spike_removed(self):
        x = np.array([100.0, 101.0, 99.0, 100.5, 99.5, 700.0, 100.2, 99.8])
        clean = filter_outliers(x)
        assert 700.0 not in clean
        assert clean.size == 7

    def test_clean_data_untouched(self):
        rng = np.random.default_rng(1)
        x = rng.normal(100, 2, size=50)
        clean = filter_outliers(x)
        assert clean.size == 50

    def test_small_samples_passthrough(self):
        x = np.array([1.0, 100.0])
        assert filter_outliers(x).size == 2

    def test_never_removes_majority(self):
        # genuinely bimodal data is spread, not contaminated
        x = np.array([1.0] * 10 + [100.0] * 10)
        assert filter_outliers(x).size == 20

    def test_constant_data_with_spike(self):
        x = np.array([10.0] * 20 + [500.0])
        clean = filter_outliers(x)
        assert 500.0 not in clean

    def test_order_preserved(self):
        x = np.array([5.0, 6.0, 5.5, 5.2, 6.1, 5.9])
        np.testing.assert_array_equal(filter_outliers(x), x)


class TestInvocationFeed:
    def _feed(self, n_per_run=5, seed=0):
        ledger = TuningLedger()
        gen = lambda rng, i: {"i": i, "r": float(rng.random())}
        return InvocationFeed(gen, n_per_run, 1000.0, ledger, seed=seed), ledger

    def test_program_run_boundaries_charged(self):
        feed, ledger = self._feed(n_per_run=5)
        for _ in range(12):
            feed.next_env()
        assert ledger.program_runs == 3  # 5 + 5 + 2
        assert ledger.by_category["non_ts"] == 3000.0

    def test_runs_replay_identically(self):
        feed, _ = self._feed(n_per_run=3)
        first_run = [feed.next_env().env["r"] for _ in range(3)]
        second_run = [feed.next_env().env["r"] for _ in range(3)]
        assert first_run == second_run  # same input file every run

    def test_position_within_run_cycles(self):
        feed, _ = self._feed(n_per_run=4)
        idx = [feed.next_env().env["i"] for _ in range(10)]
        assert idx == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_invalid_run_length_rejected(self):
        ledger = TuningLedger()
        with pytest.raises(ValueError):
            InvocationFeed(lambda rng, i: {}, 0, 0.0, ledger)

    def test_iter_helper(self):
        feed, _ = self._feed()
        envs = list(feed.iter(7))
        assert len(envs) == 7
        assert feed.invocations_consumed == 7
