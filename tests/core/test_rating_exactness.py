"""Exactness of the rating-window statistics.

``filter_outliers``, ``relative_var``, ``rating_var`` and
:class:`SampleWindow` compute the outlier rule from a sorted copy and VAR
with ``np.add.reduce``.  Their contract is bit-identity with the plain numpy
formulation, which this file keeps frozen as the reference: the same
samples survive, in the same order, and VAR has the same bits, for any
window (ties, MAD = 0, zeros, negatives, fewer than four samples, ±inf,
NaN) and any ``k``.
"""

from __future__ import annotations

import struct
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rating import SampleWindow, filter_outliers, rating_var, relative_var

# --------------------------------------------------------------------------- #
# the reference: the numpy formulation, frozen


def ref_filter_outliers(samples, k=8.0):
    x = np.asarray(samples, dtype=float)
    if x.size < 4:
        return x
    med = float(np.median(x))
    mad = float(np.median(np.abs(x - med))) * 1.4826
    if mad > 0:
        keep = np.abs(x - med) <= k * mad
    elif med > 0:
        keep = (x <= 3.0 * med) & (x >= med / 3.0)
    else:
        return x
    if keep.sum() <= x.size // 2:
        return x
    return x[keep]


def ref_relative_var(samples):
    if samples.size < 2:
        return float("inf")
    mean = float(np.mean(samples))
    if mean == 0.0:
        return float("inf")
    return float(np.var(samples, ddof=1)) / (mean * mean)


def ref_rating_var(samples):
    rv = ref_relative_var(samples)
    if not np.isfinite(rv):
        return rv
    return rv / samples.size


# --------------------------------------------------------------------------- #
# helpers


def bits(value: float) -> bytes:
    """The IEEE bits of a float, NaN payloads folded to one NaN."""
    return b"nan" if value != value else struct.pack("<d", value)


def outcome(fn, x):
    """``fn(x)`` as bits, or the exception it raises: a squared mean that
    underflows to zero divides by zero in both formulations."""
    try:
        return bits(fn(x))
    except ZeroDivisionError as exc:
        return type(exc)


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@contextmanager
def quiet():
    """numpy warns on inf - inf; both formulations do it alike."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        yield


SPECIAL = [0.0, -0.0, 1.0, 2.0, 3.0, -1.0, 0.5, 1e-300, 1.7e308, -1.7e308,
           float("inf"), float("-inf"), float("nan")]

samples_st = st.one_of(
    # ties, zeros, negatives and non-finite values from a small pool
    st.lists(st.sampled_from(SPECIAL), max_size=12),
    # a timing-like window with a few spikes and repeats
    st.lists(
        st.one_of(
            st.floats(90.0, 110.0),
            st.sampled_from([100.0, 100.0, 0.0, 1000.0, -5.0]),
        ),
        max_size=80,
    ),
    # anything
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=24),
    # integers-as-floats: many exact ties
    st.lists(st.integers(-3, 3).map(float), max_size=30),
)
#: k = 1 / 1.4826 puts the threshold exactly on a deviation (k * MAD equals
#: the unscaled median deviation) in many small integer windows
K_ON_DEVIATION = 1 / 1.4826
k_st = st.sampled_from([8.0, 8, 3.0, 1.0, 0.5, 0.0, 100.0, -1.0, K_ON_DEVIATION])


# --------------------------------------------------------------------------- #


class TestFilterOutliers:
    @settings(max_examples=400, deadline=None)
    @given(samples_st, k_st)
    def test_matches_reference(self, xs, k):
        x = np.asarray(xs, dtype=float)
        with quiet():
            want = ref_filter_outliers(x, k)
            got = filter_outliers(x, k)
        assert_same_array(got, want)

    @pytest.mark.parametrize("xs", [
        [5.0, 5.0, 5.0, 5.0, 5.0],            # MAD = 0, med > 0, nothing out
        [5.0, 5.0, 5.0, 5.0, 50.0],           # MAD = 0 fallback drops 50
        [5.0, 5.0, 5.0, 5.0, 0.0],            # ... and a 0-cycle sample
        [0.0, 0.0, 0.0, 0.0, 7.0],            # MAD = 0, med = 0: keep all
        [-2.0, -2.0, -2.0, -2.0, -90.0],      # MAD = 0, med < 0: keep all
        [1.0, 2.0, 3.0],                      # fewer than four
        [1.0, 1.0, 1e9, 1e9],                 # would drop half: keep all
        [1.0, float("inf"), float("inf"), float("inf")],
        [float("-inf"), 1.0, 2.0, float("inf")],
        [1.7e308, 1.7e308, 1.7e308, 1.7e308],  # the median overflows
        [1.0, 2.0, float("nan"), 3.0, 4.0],
    ])
    @pytest.mark.parametrize("k", [8.0, 0.0, 0.5])
    def test_edge_windows(self, xs, k):
        x = np.asarray(xs)
        with quiet():
            assert_same_array(filter_outliers(x, k), ref_filter_outliers(x, k))

    @pytest.mark.parametrize("xs", [
        [3.0, 4.0, 5.0, 0.0, 0.0, 4.0, 5.0, 1.0],
        [5.0, 2.0, 1.0, 4.0, 1.0, 2.0, 3.0],
        [0.0, 0.0, 5.0, 4.0, 5.0, 3.0, 4.0, 1.0],
    ])
    def test_sample_exactly_on_the_threshold_is_kept(self, xs):
        x = np.asarray(xs)
        want = ref_filter_outliers(x, K_ON_DEVIATION)
        assert 0 < x.size - want.size  # the rule drops something here
        assert_same_array(filter_outliers(x, K_ON_DEVIATION), want)
        w = SampleWindow(K_ON_DEVIATION)
        for value in xs:
            w.append(value)
        assert_same_array(w.clean(), want)

    def test_input_returned_when_nothing_dropped(self):
        x = np.array([5.0, 6.0, 5.5, 5.2, 6.1, 5.9])
        assert filter_outliers(x) is x

    def test_integer_input(self):
        x = [100, 101, 99, 100, 5000, 100]
        assert_same_array(filter_outliers(x), ref_filter_outliers(x))


class TestVar:
    @settings(max_examples=400, deadline=None)
    @given(samples_st)
    def test_relative_and_rating_var_match_reference(self, xs):
        x = np.asarray(xs, dtype=float)
        with quiet():
            assert outcome(relative_var, x) == outcome(ref_relative_var, x)
            assert outcome(rating_var, x) == outcome(ref_rating_var, x)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1.0, 1e6), min_size=2, max_size=700))
    def test_long_windows(self, xs):
        # past numpy's 8-way unrolled pairwise-summation block
        x = np.asarray(xs)
        assert bits(rating_var(x)) == bits(ref_rating_var(x))


class TestSampleWindow:
    @settings(max_examples=300, deadline=None)
    @given(samples_st, k_st)
    def test_every_prefix_equals_a_full_recompute(self, xs, k):
        w = SampleWindow(k)
        with quiet():
            for i, value in enumerate(xs, start=1):
                w.append(value)
                assert len(w) == i
                want = ref_filter_outliers(np.asarray(xs[:i], dtype=float), k)
                clean = w.clean()
                assert_same_array(clean, want)
                assert outcome(rating_var, clean) == outcome(ref_rating_var, want)
                assert_same_array(w.samples, np.asarray(xs[:i], dtype=float))

    def test_long_timing_window(self):
        rng = np.random.default_rng(7)
        xs = 1000.0 + rng.normal(0, 5, 700)
        xs[rng.integers(0, 700, 20)] *= 12.0  # interrupt spikes
        w = SampleWindow()
        for i, value in enumerate(xs, start=1):
            w.append(value)
            if i % 37 == 0 or i == xs.size:
                want = ref_filter_outliers(xs[:i])
                assert_same_array(w.clean(), want)
                assert bits(rating_var(w.clean())) == bits(ref_rating_var(want))
