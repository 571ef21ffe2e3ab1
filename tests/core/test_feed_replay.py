"""Exactness of replayed program inputs (:class:`InputReplay`).

Every program run replays the same input file, so a feed generates one run
and hands out copies of it.  The reference is the generating feed kept
frozen below: it calls the generator for every invocation of every run.
Replayed inputs must be indistinguishable from it, including what a
consumer's writes do to later inputs.
"""

from __future__ import annotations

import struct
import sys
import threading
from dataclasses import astuple, replace

import numpy as np
import pytest

from repro.analysis import analyze_context, build_components
from repro.analysis.context import ContextAnalysis, ContextVarSpec, context_key
from repro.compiler import OptConfig, compile_version
from repro.core import engine as engine_mod
from repro.core.peak import PeakTuner
from repro.core.rating import (
    AverageRating,
    ContextBasedRating,
    InputReplay,
    InvocationFeed,
    ModelBasedRating,
    RatingSettings,
    ReExecutionRating,
    WholeProgramRating,
)
from repro.core.search import IterativeElimination
from repro.machine import PENTIUM4, SPARC2, profile_tuning_section
from repro.machine.executor import REPLAY_MEMO_MAX, input_facts, is_float_vector, unbox
from repro.runtime import SaveRestorePlan, TimedExecutor, TuningLedger, instrument_counters
from repro.store import Store
from repro.workloads import WORKLOAD_NAMES, get_workload

# --------------------------------------------------------------------------- #
# the reference: a feed that generates every invocation, frozen


class GeneratingFeed:
    def __init__(self, generator, n_per_run, non_ts_cycles, ledger, seed=0):
        self.generator = generator
        self.n_per_run = n_per_run
        self.non_ts_cycles = non_ts_cycles
        self.ledger = ledger
        self.seed = seed
        self._index = 0
        self._rng = None

    def next_env(self):
        pos = self._index % self.n_per_run
        if pos == 0:
            self.ledger.start_program_run(self.non_ts_cycles)
            self._rng = np.random.default_rng(self.seed)
        env = self.generator(self._rng, pos)
        self._index += 1
        return env


def mixed_gen(rng, i):
    return {
        "n": 4 + i % 3,
        "x": float(rng.random()),
        "s": np.float64(rng.random()),
        "a": rng.standard_normal(6),
        "b": rng.integers(0, 9, size=5),
        "tag": f"inv{i}",
        "lst": [int(v) for v in rng.integers(0, 5, size=3)],
    }


def arrays_gen(rng, i):
    return {"n": 4 + i % 3, "a": rng.standard_normal(6), "b": rng.integers(0, 9, size=5)}


def assert_same_env(got: dict, want: dict, kept: tuple[str, ...] = ()) -> None:
    """*got* equals the generator's output *want* as the machine binds it:
    unboxed, except the *kept* names a replay hands out as they are."""
    assert list(got) == list(want)  # same names, same order
    unboxed = unbox(want)
    for name in want:
        g, w = got[name], want[name] if name in kept else unboxed[name]
        assert type(g) is type(w), name
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes(), name
        elif is_float_vector(want[name]) and name not in kept:
            assert all(type(v) is float for v in g), name
            assert [v.hex() for v in g] == [v.hex() for v in w], name
        else:
            assert g == w, name


def pair(gen, n_per_run, seed=3):
    ref_ledger, new_ledger = TuningLedger(), TuningLedger()
    ref = GeneratingFeed(gen, n_per_run, 500.0, ref_ledger, seed=seed)
    new = InvocationFeed(gen, n_per_run, 500.0, new_ledger, seed=seed)
    return ref, new


# --------------------------------------------------------------------------- #


class TestReplay:
    def test_replayed_envs_equal_generated_envs(self):
        ref, new = pair(mixed_gen, 5)
        for _ in range(3 * 5 + 2):  # three full runs and part of a fourth
            assert_same_env(new.next_env().env, ref.next_env())
        assert new.ledger.program_runs == ref.ledger.program_runs == 4
        assert new.ledger.by_category == ref.ledger.by_category

    def test_generator_runs_for_one_program_run_only(self):
        calls = []

        def gen(rng, i):
            calls.append(i)
            return mixed_gen(rng, i)

        feed = InvocationFeed(gen, 4, 0.0, TuningLedger())
        for _ in range(13):
            feed.next_env()
        assert calls == [0, 1, 2, 3]

    @pytest.mark.parametrize("gen", [mixed_gen, arrays_gen])
    def test_mutated_env_does_not_leak_into_the_next_run(self, gen):
        ref, new = pair(gen, 3)
        for _ in range(3 * 3):
            got, want = new.next_env().env, ref.next_env()
            assert_same_env(got, want)
            got["a"][:] = [-1.0] * len(got["a"])  # a TS writing its inputs
            got["b"] += 7
            if "lst" in got:
                got["lst"].append(99)
            got["n"] = 0

    def test_aliasing_within_one_env_is_preserved(self):
        def gen(rng, i):
            x = rng.random(4)
            return {"p": x, "q": x, "r": rng.random(4)}

        feed = InvocationFeed(gen, 2, 0.0, TuningLedger())
        first = [feed.next_env().env for _ in range(2)]
        second = [feed.next_env().env for _ in range(2)]
        for env in first + second:
            assert env["p"] is env["q"]
            assert env["p"] is not env["r"]
        assert first[0]["p"] is not second[0]["p"]  # fresh per hand-out

    def test_shared_writable_array_carries_over_as_before(self):
        def make_gen():
            table = np.zeros(3)  # one object at every position, like crafty's dirs

            def gen(rng, i):
                return {"t": table, "v": rng.random(2)}

            return gen

        ref_gen, new_gen = make_gen(), make_gen()
        ref = GeneratingFeed(ref_gen, 4, 0.0, TuningLedger())
        new = InvocationFeed(new_gen, 4, 0.0, TuningLedger())
        for k in range(11):
            got, want = new.next_env().env, ref.next_env()
            assert_same_env(got, want, kept=("t",))
            got["t"][k % 3] += k  # writes carry over to every later env
            want["t"][k % 3] += k
        env = new.next_env().env
        assert env["t"] is new.replay.env(0)["t"]

    def test_ratings_and_ledger_are_unchanged(self):
        """Every rater, at both tiers and with a replay store, rates a
        replay's handles as it rates the generating feed's plain dicts."""
        from tests.core.test_rating_fixes import scaled_kernel, two_context_gen

        fn = scaled_kernel()
        v = compile_version(fn, OptConfig.o3(), SPARC2)
        prof = profile_tuning_section(
            fn, (two_context_gen(np.random.default_rng(i), i) for i in range(20)), SPARC2
        )
        model = build_components(prof.block_counts)
        avg_counts = model.average_counts(
            {r: prof.block_counts[r] for r in model.counter_blocks()}
        )
        iv = compile_version(
            instrument_counters(fn, model.counter_blocks()), OptConfig.o3(), SPARC2
        )
        settings = RatingSettings(window=12, max_invocations=400)
        for tier in (0, 1):
            results = []
            for feed_cls in (GeneratingFeed, InvocationFeed):
                ledger = TuningLedger()
                feed = feed_cls(two_context_gen, 7, 10_000.0, ledger, seed=5)
                store = Store(REPLAY_MEMO_MAX)
                timed = TimedExecutor(
                    SPARC2, seed=0, ledger=ledger, exec_tier=tier, replay=store
                )
                cbr = ContextBasedRating(analyze_context(fn), settings, timed)
                rbr = ReExecutionRating(SaveRestorePlan(fn, SPARC2), settings, timed)
                whl = WholeProgramRating(settings, timed)
                avg = AverageRating(settings, timed)
                mbr = ModelBasedRating(model, avg_counts, settings, timed)
                ratings = [
                    cbr.rate(v, feed), rbr.rate_pair(v, v, feed), whl.rate(v, feed),
                    avg.rate(v, feed), mbr.rate(iv, feed), cbr.rate(v, feed),
                ]
                results.append((
                    [(r.eval, r.var, r.n_samples, r.n_invocations, r.converged,
                      r.samples.tobytes(), r.per_context, r.notes) for r in ratings],
                    ledger.program_runs, ledger.invocations,
                    dict(ledger.by_category), astuple(timed.executor.machine_state()),
                    store.hits, store.misses,
                ))
            assert results[0] == results[1], tier
            assert results[1][1] > 3  # the ratings crossed several runs
            assert results[1][-2] > 0  # and replayed invocations

    @pytest.mark.parametrize("name", ["crafty", "gzip", "swim"])
    def test_workload_datasets_replay_exactly(self, name):
        ds = get_workload(name).dataset("train")
        ref = GeneratingFeed(ds.generator, ds.n_invocations, 0.0, TuningLedger())
        new = InvocationFeed(ds.generator, ds.n_invocations, 0.0, TuningLedger())
        for _ in range(ds.n_invocations + 3):
            got, want = new.next_env().env, ref.next_env()
            assert_same_env(got, want)
            if name == "crafty":
                assert got["dirs"] is want["dirs"]  # the generator's own table

    def test_feed_rejects_a_replay_of_another_dataset(self):
        replay = InputReplay(mixed_gen, 5, seed=1)
        InvocationFeed(mixed_gen, 5, 0.0, TuningLedger(), seed=1, replay=replay)
        with pytest.raises(ValueError, match="different dataset"):
            InvocationFeed(mixed_gen, 5, 0.0, TuningLedger(), seed=2, replay=replay)

    def test_concurrent_first_use_generates_once(self):
        calls = []

        def gen(rng, i):
            calls.append(i)
            return mixed_gen(rng, i)

        replay = InputReplay(gen, 50, seed=0)
        barrier = threading.Barrier(4)
        out = []

        def worker():
            feed = InvocationFeed(gen, 50, 0.0, TuningLedger(), replay=replay)
            barrier.wait()
            seq = []
            for _ in range(60):
                inputs = feed.next_env()  # racing threads compute equal facts
                seq.append((_facts(inputs.facts), [v.hex() for v in inputs.env["a"]]))
            out.append(seq)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert calls == list(range(50))  # a lost check-then-act generates twice
        assert len(out) == 4 and all(seq == out[0] for seq in out)


# --------------------------------------------------------------------------- #
# handles: facts once per position, an env only when one is needed


def _facts(facts):
    return facts.names, facts.sig, facts.shape, facts.key


class TestInputsHandles:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_position_facts_equal_those_of_a_hand_out(self, name):
        ds = get_workload(name).dataset("train")
        replay = InputReplay(ds.generator, ds.n_invocations)
        sigs = {}
        for pos in range(ds.n_invocations):
            inputs = replay.inputs(pos)
            want = input_facts(replay.env(pos), {})
            assert _facts(inputs.facts) == _facts(want), pos
            assert _facts(input_facts(inputs.env, {})) == _facts(want), pos
            # a later hand-out of the position shares the facts; a live
            # replay derives them per hand-out
            again = replay.inputs(pos)
            assert (again.facts is inputs.facts) is not replay.live
            assert again.env is not inputs.env
            if not replay.live:  # equal sigs across positions are one object
                assert sigs.setdefault(inputs.facts.sig, inputs.facts.sig) is inputs.facts.sig

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_peek_reads_as_the_env_reads(self, name):
        w = get_workload(name)
        ds = w.dataset("train")
        replay = InputReplay(ds.generator, ds.n_invocations)
        analysis = analyze_context(w.ts, pointer_seeds=w.pointer_seeds)
        for pos in range(ds.n_invocations):
            peek, env = replay.peek(pos), replay.env(pos)
            assert list(peek) == list(env)
            for k, v in env.items():
                if isinstance(v, list):
                    assert [peek[k][i].hex() for i in range(len(v))] == [x.hex() for x in v]
            if analysis.applicable:
                want = context_key(analysis, env)
                assert repr(context_key(analysis, peek)) == repr(want)
                assert repr(context_key(analysis, replay.inputs(pos).peek())) == repr(want)

    def test_peek_binds_array_elements_as_a_hand_out_does(self):
        # a pseudo-scalar context variable: a float as in the float list, an
        # np.int64 as in the int array
        analysis = ContextAnalysis(
            True, (ContextVarSpec("n"), ContextVarSpec("a", 2), ContextVarSpec("b", 1))
        )
        replay = InputReplay(mixed_gen, 4, seed=3)
        for pos in range(4):
            want = context_key(analysis, replay.env(pos))
            assert type(want[1]) is float
            assert repr(context_key(analysis, replay.peek(pos))) == repr(want)

    @pytest.mark.parametrize("method", ["CBR", "WHL", "AVG"])
    def test_only_a_store_miss_builds_an_env(self, monkeypatch, method):
        from tests.core.test_rating_fixes import scaled_kernel, two_context_gen

        fn = scaled_kernel()
        v = compile_version(fn, OptConfig.o3(), SPARC2)
        replay = InputReplay(two_context_gen, 7, seed=5)
        built = []
        env = replay.env
        monkeypatch.setattr(replay, "env", lambda pos: built.append(pos) or env(pos))
        ledger = TuningLedger()
        feed = InvocationFeed(two_context_gen, 7, 0.0, ledger, seed=5, replay=replay)
        store = Store()
        timed = TimedExecutor(SPARC2, seed=0, ledger=ledger, exec_tier=1, replay=store)
        settings = RatingSettings(window=12, max_invocations=200)
        rater = {
            "CBR": lambda: ContextBasedRating(analyze_context(fn), settings, timed),
            "WHL": lambda: WholeProgramRating(settings, timed),
            "AVG": lambda: AverageRating(settings, timed),
        }[method]()
        for _ in range(3):
            rater.rate(v, feed)
        assert store.hits > 0
        assert len(built) == store.misses

    def test_an_rbr_invocation_whose_runs_all_hit_builds_no_env(self, monkeypatch):
        from tests.core.test_rating_fixes import scaled_kernel, two_context_gen

        fn = scaled_kernel()
        v = compile_version(fn, OptConfig.o3(), SPARC2)
        replay = InputReplay(two_context_gen, 7, seed=5)
        built = []
        env = replay.env
        monkeypatch.setattr(replay, "env", lambda pos: built.append(pos) or env(pos))
        ledger = TuningLedger()
        feed = InvocationFeed(two_context_gen, 7, 0.0, ledger, seed=5, replay=replay)
        store = Store()
        timed = TimedExecutor(SPARC2, seed=0, ledger=ledger, exec_tier=1, replay=store)
        plan = SaveRestorePlan(fn, SPARC2)
        assert plan.full_arrays and not plan.inspector_arrays
        rater = ReExecutionRating(
            plan, RatingSettings(window=12, max_invocations=200), timed
        )
        rater.rate_pair(v, v, feed)
        runs = []
        for _ in range(14):
            before = len(built), store.hits, store.misses
            rater._one_invocation(v, v, feed.next_env())
            runs.append((len(built) - before[0], store.hits - before[1],
                         store.misses - before[2]))
        # precondition and both timed runs replayed: no env, no copy
        assert (0, 3, 0) in runs
        # each simulated run built its own env, nothing else built one
        assert len(built) == store.misses > 0

    def test_names_and_key_follow_the_env(self):
        facts = input_facts({"n": 3, "s": -0.0, "a": [1.0], "b": [1.0]}, {})
        assert facts.names == {"n", "s", "a", "b"}
        assert facts.shape == (("a", "b"), (1, 1), None)
        assert facts.key[2:] == ((3,), struct.pack("<d", -0.0))
        x = [1.0]
        assert input_facts({"a": x, "b": x}, {}).shape == (("a", "b"), (1, 1), ("a", "a"))
        # a scalar of another type cannot key a replay
        assert input_facts({"n": 3, "t": 1j}, {}).key is None

    def test_hand_outs_are_built_only_when_needed(self, monkeypatch):
        from tests.core.test_rating_fixes import scaled_kernel

        def gen(rng, i):  # a replay key per position
            return {"n": 8 + 4 * i, "a": rng.standard_normal(64)}

        v = compile_version(scaled_kernel(), OptConfig.o3(), SPARC2)
        replay = InputReplay(gen, 4, seed=2)
        built = []
        env = replay.env
        monkeypatch.setattr(replay, "env", lambda pos: built.append(pos) or env(pos))
        store = Store()
        timed = TimedExecutor(SPARC2, seed=0, exec_tier=1, replay=store)
        feed = InvocationFeed(gen, 4, 0.0, TuningLedger(), seed=2, replay=replay)

        def invoke(**kwargs):
            timed.executor.reset()  # the same entry state every time
            timed.invoke(v, feed.next_env(), **kwargs)
            return len(built), store.hits

        # the first run records (misses); its hand-outs also give the facts
        assert [invoke() for _ in range(4)] == [(1, 0), (2, 0), (3, 0), (4, 0)]
        # a hit builds none
        assert [invoke() for _ in range(4)] == [(4, 1), (4, 2), (4, 3), (4, 4)]
        # reads_writes=True simulates: it builds one
        assert invoke(reads_writes=True) == (5, 4)
        # a miss (another entry state) builds one
        timed.executor.reset()
        timed.executor.run(v.exe, gen(np.random.default_rng(0), 0))
        timed.invoke(v, feed.next_env())
        assert (len(built), store.hits) == (6, 4)

    def test_a_live_replay_builds_every_hand_out(self, monkeypatch):
        table = np.zeros(3)
        replay = InputReplay(lambda rng, i: {"t": table, "v": rng.random(2)}, 3)
        assert replay.live
        built = []
        env = replay.env
        monkeypatch.setattr(replay, "env", lambda pos: built.append(pos) or env(pos))
        feed = InvocationFeed(replay.generator, 3, 0.0, TuningLedger(), replay=replay)
        handles = [feed.next_env() for _ in range(7)]
        assert built == [0, 1, 2, 0, 1, 2, 0]
        assert len({id(h.facts) for h in handles}) == 7
        assert all(h.env["t"] is table for h in handles)


# --------------------------------------------------------------------------- #
# the batch engine: one replay and one save/restore plan per worker


def _counting_gzip():
    w = get_workload("gzip")
    ds = w.dataset("train")
    calls = []

    def gen(rng, i):
        calls.append(i)
        return ds.generator(rng, i)

    return replace(w, datasets={"train": replace(ds, generator=gen)}), calls


class TestBatchEngineReuse:
    def test_tasks_of_a_worker_share_one_replay_and_plan(self, monkeypatch):
        built = []

        class CountingPlan(SaveRestorePlan):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "SaveRestorePlan", CountingPlan)
        workload, calls = _counting_gzip()
        tuner = PeakTuner(
            PENTIUM4, seed=1, search=IterativeElimination(),
            jobs=2, parallel_backend="thread",
        )
        result = tuner.tune(
            workload, dataset="train", method="RBR",
            flags=("strength-reduce", "schedule-insns"),
        )
        assert result.method_used == "RBR"
        assert result.ledger.program_runs > 1
        # every task replays the dataset from its start; past the profile
        # run, the inputs were generated once for all of them, and the RBR
        # plan was built once
        n = workload.dataset("train").n_invocations
        assert calls == list(range(n)) * 2
        assert len(built) == 1
