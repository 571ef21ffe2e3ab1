"""Property-based tests of the numeric primitives: component merging,
trip counts (cross-validated against the executor), outlier filtering,
and the cache simulator's accounting identities."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import analyze_trip_counts, build_components
from repro.core.rating import filter_outliers
from repro.ir import FunctionBuilder, Type
from repro.machine import CacheSim, Executor, SPARC2, compile_function

RELAXED = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestComponentProperties:
    @RELAXED
    @given(
        seed=st.integers(0, 2**31 - 1),
        alpha=st.integers(1, 5),
        beta=st.integers(-3, 9),
    )
    def test_affine_family_always_merged(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        base = rng.integers(1, 200, size=12).astype(float)
        if np.ptp(base) == 0:
            base[0] += 1
        counts = {"rep": base, "member": alpha * base + beta}
        model = build_components(counts)
        assert len(model.components) == 1
        comp = model.components[0]
        rep_counts = counts[comp.representative]
        # every member must be exactly reconstructible from the representative
        for name, (a, b) in comp.members:
            np.testing.assert_allclose(
                a * rep_counts + b, counts[name], rtol=1e-9, atol=1e-6
            )

    @RELAXED
    @given(seed=st.integers(0, 2**31 - 1), n_blocks=st.integers(1, 6))
    def test_every_block_accounted_exactly_once(self, seed, n_blocks):
        rng = np.random.default_rng(seed)
        counts = {
            f"b{i}": rng.integers(0, 50, size=10).astype(float)
            for i in range(n_blocks)
        }
        model = build_components(counts)
        placed = list(model.constant_blocks)
        for comp in model.components:
            placed.extend(comp.block_labels())
        assert sorted(placed) == sorted(counts)

    @RELAXED
    @given(seed=st.integers(0, 2**31 - 1))
    def test_design_matrix_reconstructs_exact_model(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 100, size=20).astype(float)
        if np.ptp(counts) == 0:
            counts[0] += 1
        model = build_components({"body": counts, "tail": np.ones(20)})
        C = model.design_matrix({"body": counts})
        T_true = np.array([7.0, 120.0])
        Y = T_true @ C
        T, *_ = np.linalg.lstsq(C.T, Y, rcond=None)
        np.testing.assert_allclose(T, T_true, rtol=1e-8)


class TestTripCountCrossValidation:
    @RELAXED
    @given(
        start=st.integers(0, 6),
        stop=st.integers(0, 24),
        step=st.integers(1, 4),
    )
    def test_symbolic_count_matches_execution(self, start, stop, step):
        b = FunctionBuilder("f", [("lo", Type.INT), ("hi", Type.INT),
                                  ("a", Type.INT_ARRAY)])
        with b.for_("i", b.var("lo"), b.var("hi"), step=step) as i:
            b.store("a", i % 32, 1)
        b.ret()
        fn = b.build()
        tcs = analyze_trip_counts(fn)
        assert len(tcs) == 1
        tc = next(iter(tcs.values()))
        predicted = tc.evaluate({"lo": start, "hi": stop})

        exe = compile_function(fn, SPARC2)
        env = {"lo": start, "hi": stop, "a": np.zeros(32, dtype=np.int64)}
        res = Executor(SPARC2).run(exe, env, count_blocks=True)
        executed = sum(
            c for l, c in res.block_counts.items() if l.startswith("loop_body")
        )
        assert predicted == executed


class TestOutlierProperties:
    @RELAXED
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 100))
    def test_idempotent(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.lognormal(3.0, 0.3, size=n)
        once = filter_outliers(x)
        twice = filter_outliers(once)
        np.testing.assert_array_equal(once, twice)

    @RELAXED
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 100))
    def test_output_is_subsequence(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.normal(100, 10, size=n)
        out = filter_outliers(x)
        assert out.size <= x.size
        assert out.size >= x.size // 2
        # every kept sample existed in the input
        assert set(np.round(out, 9)) <= set(np.round(x, 9))


class TestCacheAccounting:
    @RELAXED
    @given(
        seed=st.integers(0, 2**31 - 1),
        assoc=st.sampled_from([1, 2, 4]),
        n_accesses=st.integers(1, 300),
    )
    def test_hits_plus_misses_equals_accesses(self, seed, assoc, n_accesses):
        rng = np.random.default_rng(seed)
        cache = CacheSim(1024, 64, assoc, 1.0, 30.0)
        addrs = rng.integers(0, 1 << 16, size=n_accesses)
        total = sum(cache.access(int(a)) for a in addrs)
        assert cache.hits + cache.misses == n_accesses
        assert total == pytest.approx(cache.hits * 1.0 + cache.misses * 30.0)

    @RELAXED
    @given(seed=st.integers(0, 2**31 - 1), assoc=st.sampled_from([1, 2, 4]))
    def test_immediate_rereference_always_hits(self, seed, assoc):
        rng = np.random.default_rng(seed)
        cache = CacheSim(1024, 64, assoc, 1.0, 30.0)
        for _ in range(50):
            addr = int(rng.integers(0, 1 << 16))
            cache.access(addr)
            assert cache.access(addr) == 1.0  # MRU line cannot have been evicted
