"""Tests for the experiment harness (small-scale runs of each experiment)."""

import math

import numpy as np
import pytest

from repro.compiler import OptConfig
from repro.core import peak
from repro.core.peak import PeakTuner, measure_whole_program
from repro.experiments import (
    consistency_experiment,
    figure7_experiment,
    render_table,
    summarize,
)
from repro.experiments.consistency import _window_stats
from repro.experiments import figure7
from repro.experiments.figure7 import Figure7Entry, methods_for
from repro.machine import PENTIUM4, SPARC2, Executor, TieredExecutor, create_executor
from repro.runtime import instrument
from repro.workloads import get_workload


class TestRenderTable:
    def test_renders_title_and_rows(self):
        out = render_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "333" in lines[-1]

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["1", "2"]])

    def test_empty_rows_ok(self):
        out = render_table(["a"], [])
        assert "a" in out


class TestWindowStats:
    def test_cbr_errors_relative_to_mean(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(100.0, 2.0, size=200)
        stats = _window_stats(samples, (10, 40), rbr=False, outlier_k=8.0)
        assert set(stats) == {10, 40}
        for w, (mu, sigma) in stats.items():
            assert abs(mu) < 1.0
        assert stats[40][1] < stats[10][1]

    def test_rbr_errors_relative_to_one(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(1.02, 0.01, size=100)
        stats = _window_stats(samples, (10,), rbr=True, outlier_k=8.0)
        mu, _ = stats[10]
        assert mu == pytest.approx(2.0, abs=0.5)  # +2% bias visible

    def test_insufficient_samples_skipped(self):
        stats = _window_stats(np.ones(15), (10, 160), rbr=False, outlier_k=8.0)
        assert 160 not in stats


class TestConsistencyExperiment:
    def test_cbr_benchmark_rows(self):
        rows = consistency_experiment(
            get_workload("swim"), SPARC2, samples_per_window=3,
            windows=(10, 20), seed=1,
        )
        assert len(rows) == 1
        r = rows[0]
        assert r.method == "CBR"
        assert set(r.stats) == {10, 20}
        assert r.stats[20][1] <= r.stats[10][1] * 1.5

    def test_multi_context_benchmark_gets_context_rows(self):
        rows = consistency_experiment(
            get_workload("wupwise"), SPARC2, samples_per_window=3,
            windows=(10, 20), seed=1,
        )
        assert len(rows) == 2
        assert rows[0].context_label == "Context 1"
        assert rows[1].context_label == "Context 2"

    def test_rbr_benchmark_row(self):
        rows = consistency_experiment(
            get_workload("mesa"), SPARC2, samples_per_window=3,
            windows=(10, 20), seed=1,
        )
        (r,) = rows
        assert r.method == "RBR"
        assert abs(r.stats[10][0]) < 3.0  # mean near the ideal 1.0

    def test_mbr_benchmark_row(self):
        rows = consistency_experiment(
            get_workload("mgrid"), SPARC2, samples_per_window=3,
            windows=(10, 20), seed=1,
        )
        (r,) = rows
        assert r.method == "MBR"
        assert r.stats[10][1] > 0

    @pytest.mark.parametrize("bench", ("gzip", "applu", "swim"))
    def test_rows_are_equal_at_both_tiers(self, bench, monkeypatch):
        """Table 1 runs at TimedExecutor's default tier; the reference
        interpreter must give the same rows (RBR, CBR with contexts, CBR)."""
        rows, executors = [], []
        for tier in (0, 1):
            def at_tier(machine, _default=None, tier=tier):
                ex = create_executor(machine, tier)
                executors.append(type(ex))
                return ex

            monkeypatch.setattr(instrument, "create_executor", at_tier)
            rows.append(consistency_experiment(
                get_workload(bench), SPARC2, samples_per_window=3, seed=1,
            ))
        assert executors == [Executor, TieredExecutor]
        assert rows[0] == rows[1]


class TestFigure7Harness:
    def test_single_benchmark_single_dataset(self, monkeypatch):
        measured = []

        def measure(workload, config, *args, **kwargs):
            measured.append(config)
            return measure_whole_program(workload, config, *args, **kwargs)

        monkeypatch.setattr(peak, "measure_whole_program", measure)
        entries = figure7_experiment(
            PENTIUM4, benchmarks=("swim",), datasets=("train",), seed=1,
            exec_tier=1,
        )
        # each distinct configuration is measured on ref once: -O3 and the
        # configurations the methods chose
        assert len(measured) == len(set(measured))
        assert set(measured) == {OptConfig.o3()} | {e.best_config for e in entries}
        methods = {e.method for e in entries}
        assert {"CBR", "RBR", "WHL", "AVG"} <= methods
        whl = next(e for e in entries if e.method == "WHL")
        assert whl.normalized_tuning_time == pytest.approx(1.0)
        suggested = [e for e in entries if e.suggested]
        assert len(suggested) == 1
        assert suggested[0].method == "CBR"
        assert suggested[0].normalized_tuning_time < 1.0
        for e in entries:
            assert math.isfinite(e.improvement_pct)


class TestMethodsFor:
    @pytest.mark.parametrize("machine", (PENTIUM4, SPARC2), ids=lambda m: m.name)
    def test_methods_and_notes_are_equal_at_both_tiers(self, machine):
        for bench in figure7.TUNED:
            workload = get_workload(bench)
            got = []
            for tier in (0, 1):
                tuner = PeakTuner(machine, seed=1, profile_limit=60, exec_tier=tier)
                plan = tuner.plan(workload, tuner.profile(workload))
                got.append((
                    methods_for(workload, machine, seed=1, exec_tier=tier),
                    plan.notes,
                ))
            assert got[0] == got[1], bench

    def test_figure7_passes_its_tier_on(self, monkeypatch):
        seen = []

        class Stop(Exception):
            pass

        def record(workload, machine, **kwargs):
            seen.append(kwargs)
            raise Stop

        monkeypatch.setattr(figure7, "methods_for", record)
        with pytest.raises(Stop):
            figure7_experiment(PENTIUM4, benchmarks=("swim",), seed=3, exec_tier=0)
        assert seen == [{"seed": 3, "exec_tier": 0}]


class TestSummarize:
    def _entry(self, bench, machine, method, imp, norm, suggested):
        return Figure7Entry(
            benchmark=bench, machine=machine, method=method, dataset="train",
            improvement_pct=imp, tuning_cycles=1.0,
            normalized_tuning_time=norm, suggested=suggested,
        )

    def test_aggregates_suggested_methods_only(self):
        entries = [
            self._entry("swim", "p4", "CBR", 10.0, 0.05, True),
            self._entry("swim", "p4", "RBR", 11.0, 0.2, False),
            self._entry("swim", "p4", "WHL", 12.0, 1.0, False),
            self._entry("art", "p4", "RBR", 170.0, 0.3, True),
        ]
        s = summarize(entries)
        assert s.n_cases == 2
        assert s.max_improvement_pct == 170.0
        assert s.mean_improvement_pct == pytest.approx(90.0)
        assert s.max_tuning_time_reduction_pct == pytest.approx(95.0)

    def test_explicit_suggestion_map(self):
        entries = [
            self._entry("swim", "p4", "CBR", 10.0, 0.05, False),
            self._entry("swim", "p4", "RBR", 20.0, 0.2, False),
        ]
        s = summarize(entries, suggested={("swim", "p4"): "RBR"})
        assert s.mean_improvement_pct == 20.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_render(self):
        entries = [self._entry("swim", "p4", "CBR", 10.0, 0.1, True)]
        text = summarize(entries).render()
        assert "up to 10%" in text
        assert "90%" in text  # tuning time reduction
