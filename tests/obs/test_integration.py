"""End-to-end observability: full tuning runs with tracing enabled.

The acceptance bar from the issue: a CBR+MBR+RBR tuning run with tracing
enabled emits a span tree covering >= 95% of ledger-charged cycles (no
unattributed time), across the serial, thread, and process engines; and
observability must not change the tuning outcome.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.core.peak import PeakTuner
from repro.machine import PENTIUM4
from repro.obs import Obs, validate_metrics_file, validate_trace_file
from repro.workloads import get_workload

FLAGS = ("schedule-insns", "strength-reduce")


def tune_with_obs(workload="swim", method=None, **tuner_kw):
    obs = Obs.create()
    tuner = PeakTuner(PENTIUM4, seed=1, obs=obs, **tuner_kw)
    result = tuner.tune(get_workload(workload), method=method, flags=FLAGS)
    return obs, result


class TestCoverage:
    @pytest.mark.parametrize(
        "workload, method",
        [("mgrid", "CBR"), ("mgrid", "MBR"), ("mgrid", "RBR")],
    )
    def test_each_method_covers_95_percent(self, workload, method):
        obs, result = tune_with_obs(workload, method=method)
        total = result.ledger.total_cycles
        assert total > 0
        assert obs.tracer.coverage(total) >= 0.95
        assert obs.tracer.unattributed == {}
        names = {s.name for r in obs.tracer.roots for s in r.walk()}
        assert f"{method.lower()}.rate" in names
        assert "invoke" in names and "compile" in names

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_engines_cover_95_percent(self, backend):
        obs, result = tune_with_obs(jobs=2, parallel_backend=backend)
        assert obs.tracer.coverage(result.ledger.total_cycles) >= 0.95
        assert obs.tracer.unattributed == {}
        # worker task spans were adopted under the engine's batch spans
        root = obs.tracer.roots[0]
        batches = [s for s in root.walk() if s.name == "batch"]
        assert batches
        assert any(c.name == "task" for b in batches for c in b.children)

    def test_rating_windows_carry_eval_var(self):
        obs, _ = tune_with_obs()
        windows = [
            s for r in obs.tracer.roots for s in r.walk()
            if s.name == "cbr.window"
        ]
        assert windows
        converged = [w for w in windows if w.attrs.get("converged")]
        assert converged
        for w in converged:
            assert w.attrs["eval"] > 0
            assert w.attrs["var"] >= 0
            assert w.attrs["size"] > 0

    def test_compile_spans_record_prefix_resume_depth(self):
        obs, _ = tune_with_obs(jobs=1, parallel_backend="serial")
        compiles = [
            s for r in obs.tracer.roots for s in r.walk() if s.name == "compile"
        ]
        assert compiles
        for sp in compiles:
            assert 0 <= sp.attrs["resumed"] <= sp.attrs["steps"]
        # prefix reuse must show up as resumed pass work at least once
        assert any(sp.attrs["resumed"] > 0 for sp in compiles)


class TestDeterminism:
    def test_observability_does_not_change_the_outcome(self):
        _, with_obs = tune_with_obs()
        plain = PeakTuner(PENTIUM4, seed=1).tune(get_workload("swim"), flags=FLAGS)
        assert with_obs.best_config.key() == plain.best_config.key()
        assert with_obs.ledger.total_cycles == plain.ledger.total_cycles

    def test_parallel_obs_outcome_matches_serial(self):
        _, serial = tune_with_obs()
        _, parallel = tune_with_obs(jobs=2, parallel_backend="thread")
        assert serial.best_config.key() == parallel.best_config.key()


class TestMetricsDocument:
    def test_run_metrics_absorb_ledger_and_caches(self):
        obs, result = tune_with_obs(jobs=2, parallel_backend="thread")
        m = obs.metrics
        assert m.gauge_value("ledger.total_cycles") == result.ledger.total_cycles
        assert m.gauge_value("trace.coverage") >= 0.95
        charged = sum(
            e["value"]
            for e in m.to_dict()["counters"]
            if e["name"] == "ledger.cycles"
        )
        assert charged == pytest.approx(result.ledger.total_cycles)
        # the version cache saw traffic in a 3-rating IE run
        hits = m.counter_value("cache.version.local.hits")
        misses = m.counter_value("cache.version.local.misses")
        assert hits + misses > 0

    def test_serial_tune_reports_its_prefix_store(self):
        obs, _ = tune_with_obs()
        m = obs.metrics
        assert m.counter_value("cache.prefix.local.hits") > 0
        assert m.gauge_value("cache.prefix.local.size") > 0
        assert m.counter_value("cache.prefix.local.evictions") == 0

    def test_whl_tune_reports_its_run_memo(self):
        # IE candidates that compile to their base's executable repeat a
        # program run the memo already holds
        obs, _ = tune_with_obs(method="WHL")
        m = obs.metrics
        assert m.counter_value("cache.run.local.hits") > 0
        assert m.gauge_value("cache.run.local.size") > 0

    def test_swim_tune_reports_replayed_invocations(self):
        # swim's tuning section is data-oblivious: repeats of an invocation
        # (same executable, scalars, shapes and entry state) are replayed
        obs, _ = tune_with_obs(exec_tier=1)
        m = obs.metrics
        assert m.counter_value("cache.invocation.local.hits") > 0
        assert m.gauge_value("cache.invocation.local.size") > 0
        # Tier 1 ran every simulated frame compiled
        assert m.counter_value("exec.compiled_frames") > 0
        assert m.counter_value("exec.interpreted_blocks") == 0

    def test_executable_cache_counts_only_this_tune(self):
        # the JIT's executable cache is process-wide: the second, identical
        # tune finds every function compiled, and must not report the first
        # tune's traffic as its own
        first, _ = tune_with_obs(exec_tier=1)
        second, _ = tune_with_obs(exec_tier=1)

        def traffic(obs):
            m = obs.metrics
            return (m.counter_value("cache.executable.hits"),
                    m.counter_value("cache.executable.misses"))

        hits, misses = traffic(second)
        assert hits > 0 and misses == 0
        assert hits == sum(traffic(first))


class TestCLI:
    def test_tune_exports_validating_trace_and_metrics(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        metrics = str(tmp_path / "metrics.json")
        code = cli_main([
            "tune", "swim", "--flags", *FLAGS,
            "--trace-out", trace, "--metrics-out", metrics,
        ])
        assert code == 0
        n = validate_trace_file(trace)
        assert n > 0
        doc = validate_metrics_file(metrics)
        assert any(e["name"] == "ledger.cycles" for e in doc["counters"])
        with open(trace) as fh:
            header = json.loads(fh.readline())
        assert header["unattributed"] == {}
        out = capsys.readouterr().out
        assert "observability:" in out
        assert "coverage : 100.0%" in out

    def test_obs_report_without_files(self, capsys):
        code = cli_main(["tune", "swim", "--flags", *FLAGS, "--obs-report"])
        assert code == 0
        out = capsys.readouterr().out
        assert "spans    :" in out
        assert "tune [engine]" in out

    def test_no_obs_flags_no_report(self, capsys):
        code = cli_main(["tune", "swim", "--flags", *FLAGS])
        assert code == 0
        assert "observability:" not in capsys.readouterr().out
