"""The WHL run memo replays program runs exactly.

A rating context memoizes whole program runs: a repeat of a run (same
executable, cost factors, feed position and entry machine state) charges
the ledger, draws noise and leaves the machine exactly as simulating it
again would.  Each tune below runs twice, once with the memo and once
with every context's memo removed, and must decide and charge the same,
bit for bit.  The unit tests pin the two pieces the replay stands on:
``InvocationFeed.skip`` and the ``MachineState`` round trip.
"""

from __future__ import annotations

import copy
from dataclasses import astuple

import numpy as np
import pytest

from repro.compiler import OptConfig, compile_version
from repro.core import engine as engine_mod
from repro.core.peak import PeakTuner
from repro.core.rating import InputReplay, InvocationFeed, RatingSettings
from repro.core.rating.baselines import WholeProgramRating
from repro.core.search import IterativeElimination
from repro.machine import PENTIUM4, SPARC2, machine_by_name
from repro.machine.executor import MachineState
from repro.machine.jit import create_executor
from repro.obs import Obs
from repro.runtime import TimedExecutor, TuningLedger
from repro.store import Store
from repro.workloads import get_workload

FLAGS = ("strength-reduce", "schedule-insns", "inline-functions")


def fingerprint(result, obs) -> dict:
    """Everything a tune decides and charges, floats as ``float.hex``."""
    ledger = result.ledger
    return {
        "best_config": sorted(result.best_config.enabled),
        "method_used": result.method_used,
        "methods_tried": list(result.methods_tried),
        "n_versions_rated": result.n_versions_rated,
        "measurements": [
            [m.candidate.key(), m.reference.key(), float(m.speed).hex()]
            for m in result.search.measurements
        ],
        "by_category": {
            k: float(v).hex() for k, v in sorted(ledger.by_category.items())
        },
        "invocations": ledger.invocations,
        "program_runs": ledger.program_runs,
        "span_cycles": float(obs.tracer.attributed_cycles()).hex(),
    }


def tune(monkeypatch, bench, machine, tier, *, memo, jobs=None, backend="auto"):
    """A traced forced-WHL tune; returns its fingerprint, its raters and
    the rating contexts they used."""
    raters = []
    init = engine_mod._TaskRater.__init__

    def recording_init(self, ctx, *args, **kwargs):
        if not memo:
            ctx.run_memo = None
        init(self, ctx, *args, **kwargs)
        raters.append(self)

    with monkeypatch.context() as m:
        m.setattr(engine_mod._TaskRater, "__init__", recording_init)
        obs = Obs.create()
        result = PeakTuner(
            machine_by_name(machine), seed=1, search=IterativeElimination(),
            exec_tier=tier, jobs=jobs, parallel_backend=backend, obs=obs,
        ).tune(get_workload(bench), method="WHL", flags=FLAGS)
    contexts = list({id(r.ctx): r.ctx for r in raters}.values())
    return fingerprint(result, obs), raters, contexts


def memo_traffic(contexts) -> tuple[int, int]:
    return (
        sum(c.run_memo.hits for c in contexts),
        sum(c.run_memo.misses for c in contexts),
    )


@pytest.mark.parametrize(
    "bench, machine, tier",
    [
        ("swim", "pentium4", 0),
        ("swim", "pentium4", 1),
        ("swim", "sparc2", 1),  # direct-mapped
        ("art", "pentium4", 1),
    ],
)
def test_serial_tune_is_identical_with_and_without_the_memo(
    monkeypatch, bench, machine, tier
):
    on, on_raters, on_contexts = tune(monkeypatch, bench, machine, tier, memo=True)
    off, off_raters, _ = tune(monkeypatch, bench, machine, tier, memo=False)
    assert on == off
    hits, _ = memo_traffic(on_contexts)
    assert hits > 0
    # the serial engine keeps one rater: its machine ends where the
    # simulated tune's did, cache counters included
    (on_rater,), (off_rater,) = on_raters, off_raters
    on_state = on_rater.timed.executor.machine_state()
    off_state = off_rater.timed.executor.machine_state()
    assert astuple(on_state) == astuple(off_state)
    assert on_rater.timed.rng.bit_generator.state == off_rater.timed.rng.bit_generator.state


def test_live_inputs_bypass_the_memo(monkeypatch):
    # crafty's `dirs` table is written by one invocation and read by a
    # later one: a run's inputs depend on the runs before it
    on, _, contexts = tune(monkeypatch, "crafty", "pentium4", 1, memo=True)
    off, _, _ = tune(monkeypatch, "crafty", "pentium4", 1, memo=False)
    assert on == off
    assert memo_traffic(contexts) == (0, 0)


@pytest.mark.parametrize("jobs, backend", [(1, "thread"), (2, "thread")])
def test_batch_tune_is_identical_with_and_without_the_memo(monkeypatch, jobs, backend):
    on, _, contexts = tune(
        monkeypatch, "swim", "pentium4", 1, memo=True, jobs=jobs, backend=backend
    )
    off, _, _ = tune(
        monkeypatch, "swim", "pentium4", 1, memo=False, jobs=jobs, backend=backend
    )
    assert on == off
    hits, _ = memo_traffic(contexts)
    assert hits > 0


# --------------------------------------------------------------------------- #
# a replay that starts mid-run


def _whl_setup(memo: Store | None, runs_per_rating: int = 1):
    wl = get_workload("swim")
    ds = wl.dataset("train")
    ledger = TuningLedger()
    feed = InvocationFeed(
        ds.generator, 50, ds.non_ts_cycles, ledger, seed=2,
        replay=InputReplay(ds.generator, 50, 2),
    )
    timed = TimedExecutor(PENTIUM4, seed=5, ledger=ledger, exec_tier=1)
    rater = WholeProgramRating(
        RatingSettings(), timed, runs_per_rating=runs_per_rating, run_memo=memo
    )
    version = compile_version(wl.ts, OptConfig.o3(), PENTIUM4, program=wl.program)
    return feed, timed, rater, version


@pytest.mark.parametrize("offset", [0, 1, 37, 49])
@pytest.mark.parametrize("runs_per_rating", [1, 2])
def test_replay_across_a_run_boundary_matches_simulation(offset, runs_per_rating):
    outcomes = []
    for memo in (Store(), None):
        feed, timed, rater, version = _whl_setup(memo, runs_per_rating)
        obs = Obs.create()
        timed.ledger.attach_tracer(obs.tracer)
        for _ in range(offset):
            feed.next_env()
        entry = timed.executor.machine_state()
        with obs.span("first", "test"):
            first = rater.rate(version, feed)
        # the same entry state at the same position of the run: a repeat
        timed.executor.restore_machine_state(entry)
        with obs.span("second", "test"):
            second = rater.rate(version, feed)
        # the same entry state one position later: not a repeat
        timed.executor.restore_machine_state(entry)
        feed.next_env()
        with obs.span("third", "test"):
            third = rater.rate(version, feed)
        outcomes.append((
            [float(x).hex() for x in (*first.samples, *second.samples, *third.samples)],
            [float(root.cycles).hex() for root in obs.tracer.roots],
            {k: float(v).hex() for k, v in timed.ledger.by_category.items()},
            timed.ledger.invocations,
            timed.ledger.program_runs,
            feed.invocations_consumed,
            astuple(timed.executor.machine_state()),
            timed.rng.bit_generator.state,
        ))
        if memo is not None:
            assert (memo.hits, memo.misses) == (runs_per_rating, 2 * runs_per_rating)
    assert outcomes[0] == outcomes[1]


# --------------------------------------------------------------------------- #
# InvocationFeed.skip


def _counting_gen(rng, i):
    return {"i": i, "x": rng.random()}


@pytest.mark.parametrize("start, n", [(0, 7), (3, 4), (3, 9), (5, 2), (4, 0), (2, 17)])
def test_skip_matches_next_env_calls(start, n):
    feeds = []
    for skip in (True, False):
        ledger = TuningLedger()
        feed = InvocationFeed(_counting_gen, 5, 123.0, ledger, seed=4)
        for _ in range(start):
            feed.next_env()
        if skip:
            feed.skip(n)
        else:
            for _ in range(n):
                feed.next_env()
        feeds.append(feed)
    skipped, walked = feeds
    assert skipped.invocations_consumed == walked.invocations_consumed == start + n
    assert skipped.ledger == walked.ledger
    assert skipped.next_env() == walked.next_env()
    assert skipped.ledger == walked.ledger


def test_skip_makes_no_input_copies():
    calls = []

    def gen(rng, i):
        calls.append(i)
        return {"a": np.zeros(4)}

    replay = InputReplay(gen, 3)
    feed = InvocationFeed(gen, 3, 0.0, TuningLedger(), replay=replay)
    feed.skip(7)
    assert calls == [] and feed.ledger.program_runs == 3


def test_live_replays():
    shared = {"t": [0]}
    assert InputReplay(lambda rng, i: {"dirs": shared, "n": 3}, 4).live
    # small ints and other immutables are shared by every position, but
    # carry nothing from one invocation to the next
    assert not InputReplay(lambda rng, i: {"a": np.zeros(2), "n": 3}, 4).live
    ds = get_workload("crafty").dataset("train")
    assert InputReplay(ds.generator, ds.n_invocations).live
    ds = get_workload("swim").dataset("train")
    assert not InputReplay(ds.generator, ds.n_invocations).live


# --------------------------------------------------------------------------- #
# the MachineState round trip


class _ReferenceLRU:
    """Per-set LRU lists written out plainly."""

    def __init__(self, n_sets: int, assoc: int, line: int) -> None:
        self.sets = [[] for _ in range(n_sets)]
        self.assoc = assoc
        self.line = line
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> None:
        line = addr // self.line
        ways = self.sets[line % len(self.sets)]
        if line in ways:
            ways.remove(line)
            self.hits += 1
        else:
            self.misses += 1
            if len(ways) == self.assoc:
                del ways[0]
        ways.append(line)


def _assert_matches(cache, ref: _ReferenceLRU) -> None:
    if cache._direct is not None:
        assert cache._direct == [w[-1] if w else None for w in ref.sets]
    else:
        assert cache._sets == ref.sets
        assert cache._mru == [w[-1] if w else None for w in ref.sets]
    assert (cache.hits, cache.misses) == (ref.hits, ref.misses)


@pytest.mark.parametrize("machine", [PENTIUM4, SPARC2], ids=lambda m: m.name)
@pytest.mark.parametrize("seed", range(3))
def test_machine_state_round_trip_keeps_a_plain_lru(machine, seed):
    rng = np.random.default_rng(seed)
    ex = create_executor(machine, 1)
    cache = ex.cache
    ref = _ReferenceLRU(cache.n_sets, cache.assoc, cache.line)
    span = cache.n_sets * cache.line * (cache.assoc + 2)
    saved = []
    for step in range(300):
        addrs = [int(a) for a in rng.integers(-span // 4, span, size=rng.integers(1, 80))]
        cache.access_many(addrs)
        for a in addrs:
            ref.access(a)
        ex.branch_state[("f", f"b{int(rng.integers(6))}")] = bool(rng.random() < 0.5)
        if step % 37 == 0:
            saved.append((ex.machine_state(), copy.deepcopy(ref), dict(ex.branch_state)))
        if step % 53 == 52:
            state, ref_then, branches = saved[int(rng.integers(len(saved)))]
            tables = (cache._sets, cache._direct, cache._mru, ex.branch_state)
            ex.restore_machine_state(state)
            # in place: compiled code holds these objects
            assert all(
                now is then for now, then in zip(
                    (cache._sets, cache._direct, cache._mru, ex.branch_state), tables
                )
            )
            ref = copy.deepcopy(ref_then)
            assert list(ex.branch_state.items()) == list(branches.items())
            assert astuple(ex.machine_state()) == astuple(state)
        _assert_matches(cache, ref)


def test_machine_state_compares_contents_not_counters():
    ex = create_executor(PENTIUM4, 0)
    ex.cache.access_many([0, 64, 128])
    ex.branch_state[("f", "b")] = True
    a = ex.machine_state()
    ex.cache.access_many([0])  # a hit: counters move, contents do not
    b = ex.machine_state()
    assert a == b and hash(a) == hash(b) and a.hits != b.hits
    ex.branch_state[("f", "b")] = False
    assert ex.machine_state() != b
    assert isinstance(a, MachineState)
