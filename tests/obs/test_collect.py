"""Collector tests: ledger/cache folding and the human report."""

from repro.obs import (
    Obs,
    collect_cache,
    collect_executor,
    collect_ledger,
    collect_run,
    render_report,
)
from repro.runtime import TuningLedger
from repro.store import Store


def make_ledger() -> TuningLedger:
    ledger = TuningLedger()
    ledger.charge("ts", 100.0)
    ledger.charge("save", 10.0)
    ledger.charge_invocation(50.0)
    ledger.record_cache(3, 1)
    ledger.record_prefix(4, 2, 20, 8)
    ledger.record_wall("w0", 1.5)
    return ledger


class _FakeCache:
    hits, misses, evictions = 8, 2, 1

    def __len__(self):
        return 5


class TestCollectors:
    def test_ledger_categories_become_counters(self):
        obs = Obs.create()
        collect_ledger(obs, make_ledger())
        m = obs.metrics
        assert m.counter_value("ledger.cycles", category="ts") == 150.0
        assert m.counter_value("ledger.cycles", category="save") == 10.0
        assert m.counter_value("ledger.invocations") == 1
        assert m.counter_value("cache.version.hits") == 3
        assert m.counter_value("cache.prefix.steps_saved") == 20
        assert m.counter_value("wall.seconds", worker="w0") == 1.5
        assert m.gauge_value("ledger.total_cycles") == 160.0

    def test_collect_cache_layer(self):
        obs = Obs.create()
        collect_cache(obs, "executable", hits=8, misses=2, evictions=1, size=5)
        assert obs.metrics.counter_value("cache.executable.hits") == 8
        assert obs.metrics.gauge_value("cache.executable.size") == 5

    def test_collect_run_records_coverage(self):
        obs = Obs.create()
        ledger = make_ledger()
        ledger.attach_tracer(obs.tracer)
        with obs.span("tune", "engine"):
            ledger.charge("ts", 40.0)
        collect_run(obs, ledger=ledger, version_cache=_FakeCache())
        m = obs.metrics
        # 40 of the 200 charged cycles happened inside a span
        assert m.gauge_value("trace.coverage") == 40.0 / 200.0
        assert m.gauge_value("trace.spans") == 1
        assert m.counter_value("cache.version.local.hits") == 8

    def test_collect_run_reports_version_and_prefix_stores(self):
        version, prefix = Store(), Store(max_entries=1)
        version.get_or_build("v", object)
        version.get_or_build("v", object)
        prefix.put("a", 1)
        prefix.put("b", 2)
        prefix.get("a")
        obs = Obs.create()
        collect_run(obs, version_cache=version, prefix_cache=prefix)
        m = obs.metrics
        assert [m.counter_value(f"cache.version.local.{c}")
                for c in ("hits", "misses", "evictions")] == [1, 1, 0]
        assert [m.counter_value(f"cache.prefix.local.{c}")
                for c in ("hits", "misses", "evictions")] == [0, 1, 1]
        assert m.gauge_value("cache.prefix.local.size") == 1

    def test_collect_run_reports_the_run_memo(self):
        memo = Store(max_entries=2)
        for key in ("a", "b", "c"):
            memo.put(key, key)
        memo.get("c")
        memo.get("a")
        obs = Obs.create()
        collect_run(obs, run_memo=memo)
        m = obs.metrics
        assert [m.counter_value(f"cache.run.local.{c}")
                for c in ("hits", "misses", "evictions")] == [1, 1, 1]
        assert m.gauge_value("cache.run.local.size") == 2

    def test_collect_run_reports_the_replay_memo(self):
        memo = Store(max_entries=1)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.get("b")
        memo.get("a")
        obs = Obs.create()
        collect_run(obs, replay_memo=memo)
        m = obs.metrics
        assert [m.counter_value(f"cache.invocation.local.{c}")
                for c in ("hits", "misses", "evictions")] == [1, 1, 1]
        assert m.gauge_value("cache.invocation.local.size") == 1

    def test_collect_executor_reports_tier_engagement(self):
        class Tier0:
            interpreted_blocks = 7

        class Tier1(Tier0):
            compiled_frames = 3

        obs = Obs.create()
        collect_executor(obs, Tier0())
        m = obs.metrics
        assert m.counter_value("exec.interpreted_blocks") == 7
        assert "exec.compiled_frames" not in {
            e["name"] for e in m.to_dict()["counters"]
        }
        collect_executor(obs, Tier1())
        assert m.counter_value("exec.interpreted_blocks") == 14
        assert m.counter_value("exec.compiled_frames") == 3

    def test_disabled_obs_collects_nothing(self):
        obs = Obs.disabled()
        collect_run(obs, ledger=make_ledger(), version_cache=_FakeCache())
        assert obs.metrics.to_dict()["counters"] == []


class TestReport:
    def test_report_mentions_spans_coverage_and_metrics(self):
        obs = Obs.create()
        ledger = make_ledger()
        ledger.attach_tracer(obs.tracer)
        with obs.span("tune", "engine"):
            with obs.span("invoke", "exec"):
                ledger.charge("ts", 40.0)
        collect_run(obs, ledger=ledger)
        text = render_report(obs, ledger)
        assert "spans    : 2 recorded" in text
        assert "coverage :" in text
        assert "tune [engine]" in text
        assert "invoke [exec]" in text
        assert "ledger.cycles{category=ts}" in text

    def test_orphaned_cycles_are_reported_not_silent(self):
        obs = Obs.create()
        ledger = make_ledger()
        ledger.attach_tracer(obs.tracer)
        ledger.charge("ts", 5.0)  # no span open
        text = render_report(obs, ledger)
        assert "orphaned : ts=5" in text

    def test_disabled_obs_renders_empty(self):
        assert render_report(Obs.disabled()) == ""

    def test_max_depth_truncates_the_tree(self):
        obs = Obs.create()
        with obs.span("alpha"):
            with obs.span("bravo"):
                with obs.span("charlie"):
                    pass
        text = render_report(obs, max_depth=1)
        assert "alpha" in text and "bravo" in text and "charlie" not in text
