"""Tests for the parallel batch engine, the compiled-version cache, and
the ``--jobs`` / ``--no-cache`` CLI surface.

The central property is the determinism contract: the same tuning run must
produce bit-identical results for any ``jobs`` count and any backend,
because every rating task derives its RNG stream from ``(base_seed,
task_id)`` with task ids assigned in submission order.
"""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main
from repro.compiler import VersionCache, version_key
from repro.compiler.options import OptConfig
from repro.core.peak import PeakTuner
from repro.core.search import IterativeElimination, ParallelEvaluator, resolve_jobs
from repro.machine import PENTIUM4, SPARC2
from repro.runtime.ledger import TuningLedger
from repro.workloads import get_workload

FLAGS = ("strength-reduce", "schedule-insns", "inline-functions")


def _tune(jobs=None, backend="auto", cache=True, prefix=True, flags=FLAGS, seed=1):
    tuner = PeakTuner(
        PENTIUM4,
        seed=seed,
        search=IterativeElimination(),
        jobs=jobs,
        parallel_backend=backend,
        use_version_cache=cache,
        use_prefix_cache=prefix,
    )
    return tuner.tune(get_workload("swim"), dataset="train", flags=flags)


def _signature(result):
    return (
        result.best_config.key(),
        result.method_used,
        tuple(result.methods_tried),
        [
            (m.candidate.key(), m.reference.key(), m.speed)
            for m in result.search.measurements
        ],
    )


# --------------------------------------------------------------------------- #
# ParallelEvaluator


class TestParallelEvaluator:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ParallelEvaluator(jobs=2, backend="mpi")

    def test_jobs_one_is_serial(self):
        for backend in ("auto", "thread", "process"):
            assert ParallelEvaluator(jobs=1, backend=backend).backend == "serial"

    def test_auto_prefers_process_for_many_jobs(self):
        assert ParallelEvaluator(jobs=2, backend="auto").backend == "process"

    def test_map_preserves_submission_order_serial(self):
        with ParallelEvaluator(jobs=1) as ev:
            assert ev.map(lambda x: x * x, range(7)) == [n * n for n in range(7)]

    def test_map_preserves_submission_order_threads(self):
        import time

        def slow_square(x):
            # earlier tasks sleep longer, so completion order is reversed
            time.sleep((4 - x) * 0.01)
            return x * x

        with ParallelEvaluator(jobs=4, backend="thread") as ev:
            assert ev.map(slow_square, range(5)) == [n * n for n in range(5)]

    def test_empty_batch(self):
        with ParallelEvaluator(jobs=2, backend="thread") as ev:
            assert ev.map(lambda x: x, []) == []

    def test_close_is_idempotent(self):
        ev = ParallelEvaluator(jobs=2, backend="thread")
        ev.map(lambda x: x, [1])
        ev.close()
        ev.close()


# --------------------------------------------------------------------------- #
# VersionCache


class TestVersionCache:
    def test_miss_then_hit(self):
        cache = VersionCache()
        built = []

        def build():
            built.append(1)
            return object()

        v1, hit1 = cache.get_or_compile("k", build)
        v2, hit2 = cache.get_or_compile("k", build)
        assert (hit1, hit2) == (False, True)
        assert v1 is v2
        assert built == [1]
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_distinct_keys_do_not_collide(self):
        cache = VersionCache()
        va, _ = cache.get_or_compile("a", lambda: "A")
        vb, _ = cache.get_or_compile("b", lambda: "B")
        assert (va, vb) == ("A", "B")
        assert cache.misses == 2 and cache.hits == 0

    def test_failed_build_is_not_cached(self):
        cache = VersionCache()
        with pytest.raises(RuntimeError):
            cache.get_or_compile("k", self._boom)
        # the key must not be poisoned: a later build succeeds
        v, hit = cache.get_or_compile("k", lambda: "ok")
        assert v == "ok" and hit is False

    @staticmethod
    def _boom():
        raise RuntimeError("pass pipeline exploded")

    def test_clear_resets_counters(self):
        cache = VersionCache()
        cache.get_or_compile("k", object)
        cache.get_or_compile("k", object)
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_key_separates_config_machine_and_checked(self):
        fn = get_workload("swim").ts
        o3 = OptConfig.o3()
        keys = {
            version_key(fn, o3, PENTIUM4),
            version_key(fn, o3.without("strength-reduce"), PENTIUM4),
            version_key(fn, o3, SPARC2),
            version_key(fn, o3, PENTIUM4, checked=False),
        }
        assert len(keys) == 4
        # and the key is a pure function of its inputs
        assert version_key(fn, o3, PENTIUM4) == version_key(fn, o3, PENTIUM4)

    def test_key_separates_functions(self):
        swim, mgrid = get_workload("swim").ts, get_workload("mgrid").ts
        o3 = OptConfig.o3()
        assert version_key(swim, o3, PENTIUM4) != version_key(mgrid, o3, PENTIUM4)

    def test_lru_eviction_respects_recency(self):
        cache = VersionCache(max_entries=2)
        cache.get_or_compile("a", lambda: "A")
        cache.get_or_compile("b", lambda: "B")
        cache.get_or_compile("a", lambda: "A")  # refresh: b is now the LRU
        cache.get_or_compile("c", lambda: "C")
        assert len(cache) == 2
        assert cache.evictions == 1
        _, hit_a = cache.get_or_compile("a", lambda: "A2")
        _, hit_b = cache.get_or_compile("b", lambda: "B2")
        assert hit_a is True, "the refreshed entry must survive eviction"
        assert hit_b is False, "the least recently used entry was dropped"

    def test_unbounded_cache_never_evicts(self):
        cache = VersionCache()
        for i in range(50):
            cache.get_or_compile(str(i), object)
        assert len(cache) == 50 and cache.evictions == 0

    def test_clear_resets_eviction_counter_and_program_memo(self):
        from repro.ir import Program

        cache = VersionCache(max_entries=1)
        fn = get_workload("swim").ts
        program = Program("p", functions={fn.name: fn})
        cache.key_for(fn, OptConfig.o3(), PENTIUM4, program=program)
        cache.get_or_compile("a", object)
        cache.get_or_compile("b", object)
        assert cache.evictions == 1
        assert len(cache._program_hashes) == 1
        cache.clear()
        assert cache.evictions == 0
        assert len(cache._program_hashes) == 0, (
            "clear() must drop memoized program digests (id-keyed entries "
            "would otherwise go stale across cache generations)"
        )

    def test_program_digest_memoized_by_identity(self):
        from repro.ir import Program

        cache = VersionCache()
        fn = get_workload("swim").ts
        program = Program("p", functions={fn.name: fn})
        k1 = cache.key_for(fn, OptConfig.o3(), PENTIUM4, program=program)
        k2 = cache.key_for(fn, OptConfig.o3(), PENTIUM4, program=program)
        assert k1 == k2
        assert len(cache._program_hashes) == 1
        # the memo is an optimisation, not part of the key: an equal-content
        # program yields the same key through a fresh digest
        clone = Program("p", functions={fn.name: fn})
        assert cache.key_for(fn, OptConfig.o3(), PENTIUM4, program=clone) == k1
        assert len(cache._program_hashes) == 2

    def test_concurrent_same_key_deduplicates(self):
        import threading
        import time

        cache = VersionCache()
        built = []

        def build():
            time.sleep(0.02)
            built.append(1)
            return "V"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_compile("k", build))
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert built == [1], "only one thread may run the pass pipeline"
        assert {v for v, _ in results} == {"V"}
        assert cache.misses == 1 and cache.hits == 3


# --------------------------------------------------------------------------- #
# program-digest memo (id-keyed, weakref-validated, bounded)


class TestProgramDigestMemo:
    def _memo(self, **kw):
        from repro.compiler.pipeline import _ProgramDigestMemo

        return _ProgramDigestMemo(**kw)

    def _program(self, name="p"):
        from repro.ir import Program

        fn = get_workload("swim").ts
        return Program(name, functions={fn.name: fn})

    def test_none_program_is_a_constant(self):
        memo = self._memo()
        assert memo.digest(None) == "-"
        assert len(memo) == 0

    def test_stale_id_entry_is_not_served(self):
        """An entry whose weak referent died must be recomputed, even if a
        new program lands on the same ``id`` (CPython reuses addresses)."""
        import weakref

        class _Husk:
            pass

        memo = self._memo()
        program = self._program()
        husk = _Husk()
        dead = weakref.ref(husk)
        del husk
        assert dead() is None
        # simulate id reuse: a dead entry squatting on this program's id
        memo._entries[id(program)] = (dead, "stale-digest")
        assert memo.digest(program) != "stale-digest"
        assert memo.digest(program) == memo.digest(program)

    def test_bounded(self):
        memo = self._memo(max_entries=2)
        programs = [self._program(f"p{i}") for i in range(5)]
        for p in programs:
            memo.digest(p)
        assert len(memo) == 2
        memo.clear()
        assert len(memo) == 0


# --------------------------------------------------------------------------- #
# TuningLedger accounting


class TestLedgerAccounting:
    def test_cache_and_wall_recording(self):
        ledger = TuningLedger()
        ledger.record_cache(3, 1)
        ledger.record_wall("w0", 1.5)
        ledger.record_wall("w1", 0.5)
        ledger.record_wall("w0", 0.5)
        assert (ledger.cache_hits, ledger.cache_misses) == (3, 1)
        assert ledger.cache_hit_rate == pytest.approx(0.75)
        assert ledger.wall_seconds == pytest.approx(2.5)
        assert ledger.wall_by_worker == {"w0": 2.0, "w1": 0.5}

    def test_absorb_merges_everything(self):
        a, b = TuningLedger(), TuningLedger()
        a.record_cache(1, 2)
        a.record_wall("w0", 1.0)
        b.record_cache(4, 0)
        b.record_wall("w0", 1.0)
        b.record_wall("w1", 3.0)
        a.absorb(b)
        assert (a.cache_hits, a.cache_misses) == (5, 2)
        assert a.wall_by_worker == {"w0": 2.0, "w1": 3.0}

    def test_summary_mentions_cache_and_wall(self):
        ledger = TuningLedger()
        ledger.record_cache(1, 1)
        ledger.record_wall("main", 0.25)
        text = ledger.summary()
        assert "cache 1h/1m" in text
        assert "wall" in text

    def test_prefix_recording_and_save_rate(self):
        ledger = TuningLedger()
        ledger.record_prefix(10, 4, 90, 30)
        ledger.record_prefix(2, 1, 10, 5)
        assert ledger.prefix_compiles == 12
        assert ledger.prefix_full_hits == 5
        assert ledger.prefix_steps_saved == 100
        assert ledger.prefix_steps_run == 35
        assert ledger.prefix_save_rate == pytest.approx(100 / 135)
        with pytest.raises(ValueError):
            ledger.record_prefix(1, -1, 0, 0)

    def test_prefix_save_rate_empty_is_zero(self):
        assert TuningLedger().prefix_save_rate == 0.0

    def test_absorb_merges_prefix_counters(self):
        a, b = TuningLedger(), TuningLedger()
        a.record_prefix(3, 1, 20, 10)
        b.record_prefix(5, 2, 40, 15)
        a.absorb(b)
        assert a.prefix_compiles == 8
        assert a.prefix_full_hits == 3
        assert a.prefix_steps_saved == 60
        assert a.prefix_steps_run == 25

    def test_summary_mentions_prefix_only_when_used(self):
        ledger = TuningLedger()
        assert "prefix" not in ledger.summary()
        ledger.record_prefix(4, 2, 30, 10)
        text = ledger.summary()
        assert "prefix 2/4 full" in text
        assert "30 steps saved" in text


# --------------------------------------------------------------------------- #
# Serial/parallel determinism, end to end


class TestDeterminism:
    def test_thread_backend_matches_serial(self):
        assert _signature(_tune(jobs=4, backend="thread")) == _signature(
            _tune(jobs=1)
        )

    def test_process_backend_matches_serial(self):
        assert _signature(_tune(jobs=2, backend="process")) == _signature(
            _tune(jobs=1)
        )

    @pytest.mark.xfail(
        strict=True,
        reason="the batch engine runs a different experiment: each hermetic "
        "task replays the dataset from invocation 0 with its own noise "
        "stream, where the serial engine continues one feed and one stream "
        "(ROADMAP, 'One rating engine')",
    )
    def test_batch_engine_matches_serial_engine(self):
        def signature(result):
            ledger = result.ledger
            return _signature(result), (
                ledger.by_category, ledger.invocations, ledger.program_runs
            )

        assert signature(_tune(jobs=1)) == signature(_tune(jobs=None))

    @pytest.mark.parametrize("jobs", [None, 2], ids=["serial", "batch"])
    def test_no_cache_does_not_change_the_answer(self, jobs):
        cached = _tune(jobs=jobs, backend="thread", cache=True)
        uncached = _tune(jobs=jobs, backend="thread", cache=False)
        assert _signature(cached) == _signature(uncached)
        assert cached.ledger.cache_misses > 0
        if jobs is not None:
            # batch tasks re-probe the reference; the serial engine's
            # rating memo answers those without a cache lookup
            assert cached.ledger.cache_hits > 0
        assert uncached.ledger.cache_hits == 0
        assert uncached.ledger.cache_misses == 0

    def test_cache_counters_match_rating_volume(self):
        result = _tune(jobs=1)
        ledger = result.ledger
        # every compile either hit or missed, and IE's repeated references
        # guarantee at least one hit on a shared-cache run
        assert ledger.cache_hits > 0
        assert ledger.cache_misses > 0
        assert ledger.cache_hit_rate == pytest.approx(
            ledger.cache_hits / (ledger.cache_hits + ledger.cache_misses)
        )

    def test_wall_clock_recorded_per_worker(self):
        result = _tune(jobs=2, backend="thread")
        assert result.ledger.wall_seconds > 0
        assert len(result.ledger.wall_by_worker) >= 1

    def test_no_prefix_cache_does_not_change_the_answer(self):
        with_prefix = _tune(jobs=2, backend="thread", prefix=True)
        without = _tune(jobs=2, backend="thread", prefix=False)
        assert _signature(with_prefix) == _signature(without)
        assert with_prefix.ledger.prefix_compiles > 0
        assert with_prefix.ledger.prefix_steps_saved > 0
        assert without.ledger.prefix_compiles == 0

    @pytest.mark.parametrize("jobs", [None, 1], ids=["serial", "batch"])
    def test_prefix_counters_are_consistent(self, jobs):
        ledger = _tune(jobs=jobs).ledger
        # compiles routed through the prefix cache are exactly the version-
        # cache misses (hits never reach the pipeline)
        assert ledger.prefix_compiles == ledger.cache_misses
        assert ledger.prefix_full_hits <= ledger.prefix_compiles
        assert ledger.prefix_steps_saved > 0, (
            "an IE sweep shares pass prefixes across its probe configs"
        )


# --------------------------------------------------------------------------- #
# CLI surface


class TestCli:
    def test_parser_round_trip(self):
        args = build_parser().parse_args(
            ["tune", "swim", "--jobs", "4", "--backend", "thread", "--no-cache",
             "--no-prefix-cache"]
        )
        assert args.jobs == 4
        assert args.backend == "thread"
        assert args.no_cache is True
        assert args.no_prefix_cache is True

    def test_parser_defaults_stay_serial(self):
        args = build_parser().parse_args(["tune", "swim"])
        assert args.jobs is None
        assert args.backend == "auto"
        assert args.no_cache is False
        assert args.no_prefix_cache is False

    def test_bad_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["tune", "swim", "--jobs", "2", "--backend", "gpu"]
            )

    def test_negative_jobs_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "swim", "--jobs", "-1"])

    def test_tune_reports_parallel_line(self):
        out = io.StringIO()
        code = main(
            [
                "tune", "swim",
                "--flags", "schedule-insns", "strength-reduce",
                "--jobs", "2", "--backend", "thread",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "parallel : jobs=2 backend=thread" in text
        assert "cache" in text and "wall" in text
        assert "prefix   :" in text
        assert "compiles fully memoized" in text

    def test_tune_no_prefix_cache_omits_prefix_line(self):
        out = io.StringIO()
        code = main(
            [
                "tune", "swim",
                "--flags", "schedule-insns", "strength-reduce",
                "--jobs", "2", "--backend", "thread", "--no-prefix-cache",
            ],
            out=out,
        )
        assert code == 0
        assert "prefix   :" not in out.getvalue()

    def test_tune_serial_omits_parallel_line(self):
        out = io.StringIO()
        code = main(
            ["tune", "swim", "--flags", "schedule-insns"],
            out=out,
        )
        assert code == 0
        assert "parallel :" not in out.getvalue()
