"""Tests for the runtime substrate: ledger, timed executor, save/restore."""

import numpy as np
import pytest

from repro.compiler import OptConfig, compile_version
from repro.ir import ArrayRef, FunctionBuilder, Type, Var
from repro.machine import NoiseModel, SPARC2
from repro.runtime import (
    SaveRestorePlan,
    TIMER_COST_CYCLES,
    TimedExecutor,
    TuningLedger,
    VersionTable,
)


def saxpy_version(config=None):
    b = FunctionBuilder(
        "saxpy",
        [
            ("n", Type.INT),
            ("a", Type.FLOAT),
            ("x", Type.FLOAT_ARRAY),
            ("y", Type.FLOAT_ARRAY),
        ],
    )
    with b.for_("i", 0, b.var("n")) as i:
        b.store("y", i, Var("a") * ArrayRef("x", i) + ArrayRef("y", i))
    b.ret()
    if config is None:
        config = OptConfig.o3()
    return compile_version(b.build(), config, SPARC2)


def scatter_fn():
    b = FunctionBuilder(
        "scatter",
        [("n", Type.INT), ("idx", Type.INT_ARRAY), ("out", Type.FLOAT_ARRAY)],
    )
    with b.for_("i", 0, b.var("n")) as i:
        b.store("out", ArrayRef("idx", i), 1.0)
    b.ret()
    return b.build()


class TestLedger:
    def test_charges_accumulate(self):
        led = TuningLedger()
        led.charge("ts", 100.0)
        led.charge("ts", 50.0)
        led.charge("save_restore", 25.0)
        assert led.total_cycles == 175.0
        assert led.by_category["ts"] == 150.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            TuningLedger().charge("ts", -1.0)

    def test_program_runs_counted(self):
        led = TuningLedger()
        led.start_program_run(1000.0)
        led.start_program_run(1000.0)
        assert led.program_runs == 2
        assert led.by_category["non_ts"] == 2000.0

    def test_summary_renders(self):
        led = TuningLedger()
        led.charge("ts", 10.0)
        assert "ts=" in led.summary()


class TestTimedExecutor:
    def _env(self, n=16):
        return {"n": n, "a": 2.0, "x": np.ones(n), "y": np.zeros(n)}

    def test_noiseless_measurement_matches_true_plus_timer(self):
        v = saxpy_version()
        tex = TimedExecutor(SPARC2, noise=NoiseModel.disabled())
        s = tex.invoke(v, self._env())
        assert s.measured_cycles == pytest.approx(s.true_cycles + TIMER_COST_CYCLES)

    def test_noise_perturbs_measurement(self):
        v = saxpy_version()
        tex = TimedExecutor(SPARC2, seed=7)
        samples = [tex.invoke(v, self._env()).measured_cycles for _ in range(20)]
        assert len(set(samples)) > 1

    def test_noise_is_seed_deterministic(self):
        v = saxpy_version()
        a = [
            TimedExecutor(SPARC2, seed=3).invoke(v, self._env()).measured_cycles
        ]
        b = [
            TimedExecutor(SPARC2, seed=3).invoke(v, self._env()).measured_cycles
        ]
        assert a == b

    def test_ledger_charged_per_invocation(self):
        v = saxpy_version()
        tex = TimedExecutor(SPARC2, noise=NoiseModel.disabled())
        tex.invoke(v, self._env())
        tex.invoke(v, self._env())
        assert tex.ledger.invocations == 2
        assert tex.ledger.by_category["ts"] > 0

    def test_counter_overhead_charged(self):
        # -O0 keeps the canonical loop shape (O3 unrolls it, halving the
        # body-block entry count)
        v = saxpy_version(OptConfig.o0())
        tex = TimedExecutor(SPARC2, noise=NoiseModel.disabled())
        body = [l for l in v.exe.blocks if l.startswith("loop_body")][0]
        s = tex.invoke(v, self._env(8), counter_blocks=(body,))
        # 8 increments * 2 cycles
        assert s.measured_cycles == pytest.approx(
            s.true_cycles + 16.0 + TIMER_COST_CYCLES
        )
        assert tex.ledger.by_category["instrumentation"] >= 16.0

    def test_untimed_run_returns_true_cycles(self):
        v = saxpy_version()
        tex = TimedExecutor(SPARC2)
        res = tex.run_untimed(v, self._env())
        assert res.cycles > 0


class TestSaveRestore:
    def test_plan_classifies_saxpy_full(self):
        v = saxpy_version()
        plan = SaveRestorePlan(v.ir, SPARC2)
        assert plan.modified_input == {"y"}
        assert plan.full_arrays == ("y",)
        assert plan.inspector_arrays == ()

    def test_plan_classifies_scatter_inspector(self):
        plan = SaveRestorePlan(scatter_fn(), SPARC2)
        assert "out" in plan.inspector_arrays

    def test_full_save_restore_roundtrip(self):
        v = saxpy_version()
        plan = SaveRestorePlan(v.ir, SPARC2)
        led = TuningLedger()
        env = {"n": 4, "a": 2.0, "x": np.ones(4), "y": np.arange(4.0)}
        snap = plan.save(env, led)
        env["y"][:] = 99.0
        plan.restore(env, snap, led)
        np.testing.assert_array_equal(env["y"], np.arange(4.0))
        assert led.by_category["save_restore"] > 0

    def test_inspector_restores_only_written_elements(self):
        fn = scatter_fn()
        plan = SaveRestorePlan(fn, SPARC2)
        led = TuningLedger()
        out = np.arange(10.0)
        env = {"n": 2, "idx": np.array([3, 7]), "out": out}
        snap = plan.save(env, led)
        before = {"out": out.copy()}
        out[3] = 1.0
        out[7] = 1.0  # simulate the precondition run's writes
        plan.observe_writes(before, env, snap, led)
        idx, vals = snap.sparse_arrays["out"]
        np.testing.assert_array_equal(idx, [3, 7])
        out[3] = 42.0
        plan.restore(env, snap, led)
        np.testing.assert_array_equal(out, np.arange(10.0))

    def test_save_restore_on_float_lists(self):
        """Float arrays reach the machine as lists: a full snapshot is a
        list slice, the inspector restores element by element, and both
        charge what the ndarray path charges."""
        charged = []
        for as_list in (False, True):
            led = TuningLedger()
            y = np.arange(4.0).tolist() if as_list else np.arange(4.0)
            env = {"n": 4, "a": 2.0, "x": np.ones(4), "y": y}
            plan = SaveRestorePlan(saxpy_version().ir, SPARC2)
            snap = plan.save(env, led)
            env["y"][1] = 99.0
            plan.restore(env, snap, led)
            assert env["y"] is y and list(y) == [0.0, 1.0, 2.0, 3.0]

            out = np.arange(10.0).tolist() if as_list else np.arange(10.0)
            env = {"n": 2, "idx": np.array([3, 7]), "out": out}
            plan = SaveRestorePlan(scatter_fn(), SPARC2)
            snap = plan.save(env, led)
            before = {"out": out[:] if as_list else out.copy()}
            out[3] = out[7] = 1.0  # the precondition run's writes
            plan.observe_writes(before, env, snap, led)
            out[3] = 42.0
            plan.restore(env, snap, led)
            assert env["out"] is out and list(out) == np.arange(10.0).tolist()
            if as_list:
                assert all(type(v) is float for v in out)
            assert snap.elements == 2
            charged.append(dict(led.by_category))
        assert charged[0] == charged[1]

    def test_snapshot_elements_counts(self):
        fn = scatter_fn()
        plan = SaveRestorePlan(fn, SPARC2)
        out = np.zeros(10)
        env = {"n": 1, "idx": np.array([5]), "out": out}
        snap = plan.save(env)
        before = {"out": out.copy()}
        out[5] = 1.0
        plan.observe_writes(before, env, snap)
        assert snap.elements == 1  # only the single written element

    def test_scalar_modified_input(self):
        b = FunctionBuilder("f", [("k", Type.INT)], return_type=Type.INT)
        b.assign("k", b.var("k") + 1)
        b.ret(b.var("k"))
        fn = b.build()
        plan = SaveRestorePlan(fn, SPARC2)
        assert plan.scalar_names == ["k"]
        env = {"k": 10}
        snap = plan.save(env)
        env["k"] = 11
        plan.restore(env, snap)
        assert env["k"] == 10


class TestVersionTable:
    def test_promote(self):
        best = saxpy_version()
        exp = saxpy_version(OptConfig.o3().without("gcse"))
        table = VersionTable("saxpy", best=best)
        table.install_experimental(exp)
        table.promote()
        assert table.best is exp
        assert table.experimental is None
        assert table.promotions == [exp.label]

    def test_promote_without_experimental_raises(self):
        table = VersionTable("saxpy", best=saxpy_version())
        with pytest.raises(RuntimeError):
            table.promote()

    def test_wrong_ts_rejected(self):
        table = VersionTable("other", best=saxpy_version())
        with pytest.raises(ValueError):
            table.install_experimental(saxpy_version())

    def test_discard(self):
        table = VersionTable("saxpy", best=saxpy_version())
        table.install_experimental(saxpy_version(OptConfig.o0()))
        table.discard_experimental()
        assert table.experimental is None
