"""Exactness of replayed program inputs (:class:`InputReplay`).

Every program run replays the same input file, so a feed generates one run
and hands out copies of it.  The reference is the generating feed kept
frozen below: it calls the generator for every invocation of every run.
Replayed inputs must be indistinguishable from it, including what a
consumer's writes do to later inputs.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import analyze_context
from repro.compiler import OptConfig, compile_version
from repro.core import engine as engine_mod
from repro.core.peak import PeakTuner
from repro.core.rating import (
    ContextBasedRating,
    InputReplay,
    InvocationFeed,
    RatingSettings,
    ReExecutionRating,
)
from repro.core.search import IterativeElimination
from repro.machine import PENTIUM4, SPARC2
from repro.machine.executor import is_float_vector, unbox
from repro.runtime import SaveRestorePlan, TimedExecutor, TuningLedger
from repro.workloads import get_workload

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
            assert_same_env(new.next_env(), ref.next_env())
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
            got, want = new.next_env(), ref.next_env()
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
        first = [feed.next_env() for _ in range(2)]
        second = [feed.next_env() for _ in range(2)]
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
            got, want = new.next_env(), ref.next_env()
            assert_same_env(got, want, kept=("t",))
            got["t"][k % 3] += k  # writes carry over to every later env
            want["t"][k % 3] += k
        env = new.next_env()
        assert env["t"] is new.replay.env(0)["t"]

    def test_ratings_and_ledger_are_unchanged(self):
        from tests.core.test_rating_fixes import scaled_kernel, two_context_gen

        fn = scaled_kernel()
        v = compile_version(fn, OptConfig.o3(), SPARC2)
        settings = RatingSettings(window=12, max_invocations=400)
        results = []
        for feed_cls in (GeneratingFeed, InvocationFeed):
            ledger = TuningLedger()
            feed = feed_cls(two_context_gen, 7, 10_000.0, ledger, seed=5)
            timed = TimedExecutor(SPARC2, seed=0, ledger=ledger)
            cbr = ContextBasedRating(analyze_context(fn), settings, timed)
            rbr = ReExecutionRating(SaveRestorePlan(fn, SPARC2), settings, timed)
            ratings = [cbr.rate(v, feed), rbr.rate_pair(v, v, feed), cbr.rate(v, feed)]
            results.append((
                [(r.eval, r.var, r.n_samples, r.n_invocations, r.converged,
                  r.samples.tobytes()) for r in ratings],
                ledger.program_runs, ledger.invocations,
                dict(ledger.by_category),
            ))
        assert results[0] == results[1]
        assert results[1][1] > 3  # the ratings crossed several runs

    @pytest.mark.parametrize("name", ["crafty", "gzip", "swim"])
    def test_workload_datasets_replay_exactly(self, name):
        ds = get_workload(name).dataset("train")
        ref = GeneratingFeed(ds.generator, ds.n_invocations, 0.0, TuningLedger())
        new = InvocationFeed(ds.generator, ds.n_invocations, 0.0, TuningLedger())
        for _ in range(ds.n_invocations + 3):
            got, want = new.next_env(), ref.next_env()
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
            out.append([[v.hex() for v in feed.next_env()["a"]] for _ in range(60)])

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
