"""A replay hit costs bookkeeping only, and changes no result.

* RBR on input positions: the improved method gives each of its three
  runs a fresh hand-out of the position instead of saving and restoring an
  env, when the handle can be handed out again, the plan has no inspector
  arrays and the executor has a replay store.  Its rating, ledger and
  final machine state must equal those of the copying path, which the
  same rater takes for plain envs, and those of the same ratings with no
  replay store, also when the store replays runs of versions that are
  not oblivious by their input position.
* Ref evaluation through handles: ``measure_whole_program`` on a shared
  :class:`InputReplay` must equal the loop that generated every
  invocation's env afresh (kept below as the oracle).
* Replay keys hash once: a cached hash never crosses a process boundary.
* Version keys hash their configuration-independent part once per
  rating context, and equal :func:`version_key` byte for byte.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from repro.compiler import OptConfig, compile_version
from repro.compiler.pipeline import version_key
from repro.core.engine import EngineSpec, _TaskRater, _WorkerContext
from repro.core.peak import evaluate_speedup, measure_whole_program
from repro.core.rating import InputReplay, InvocationFeed, RatingSettings, ReExecutionRating
from repro.ir import ArrayRef, FunctionBuilder, Type, UnOp, Var
from repro.machine import PENTIUM4, SPARC2
from repro.machine.executor import (
    REPLAY_MEMO_MAX, CostFactors, InputsKey, MachineState, input_facts,
)
from repro.machine.jit import create_executor
from repro.machine.oblivious import oblivious_reason
from repro.obs import NULL_OBS
from repro.runtime import SaveRestorePlan, TimedExecutor, TuningLedger
from repro.store import Store
from repro.workloads import WORKLOAD_NAMES, get_workload

SRC = str(Path(__file__).resolve().parents[2] / "src")

# --------------------------------------------------------------------------- #
# RBR: the handle path equals the env path


class EnvFeed:
    """The hand-outs of *feed* as plain envs: RBR copies, saves and
    restores them."""

    def __init__(self, feed: InvocationFeed) -> None:
        self.feed = feed

    def next_env(self) -> dict:
        return self.feed.next_env().env


def _scatter_fn():
    """An oblivious kernel whose store is not affine: the plan inspects
    its writes."""
    b = FunctionBuilder("scatter", [("n", Type.INT), ("a", Type.FLOAT_ARRAY)])
    with b.for_("i", 0, Var("n")):
        j = UnOp("abs", Var("i") * Var("i") - Var("n")) % 32
        b.store("a", j, ArrayRef("a", j) * 0.5 + 1.0)
    b.ret()
    return b.build()


def _scatter_gen(rng, i):
    return {"n": 6 + i % 3, "a": rng.normal(size=32)}


CONFIGS = (
    OptConfig.o3(),
    OptConfig.o3().without("strength-reduce", "schedule-insns"),
    OptConfig.o3().without("gcse"),
)


def _rbr_run(fn, generator, n_per_run, machine, *, plain, tier=1, replay=True):
    """Three RBR pair ratings on one rater and feed; their fingerprint, how
    often the plan saved, and the replay store (None: no replay)."""
    plan = SaveRestorePlan(fn, machine)
    saves = []
    save = plan.save
    plan.save = lambda env, ledger=None: saves.append(1) or save(env, ledger)
    versions = [compile_version(fn, c, machine) for c in CONFIGS]
    ledger = TuningLedger()
    store = Store(REPLAY_MEMO_MAX) if replay else None
    timed = TimedExecutor(machine, seed=7, ledger=ledger, exec_tier=tier, replay=store)
    feed = InvocationFeed(generator, n_per_run, 1000.0, ledger, seed=3)
    rater = ReExecutionRating(plan, RatingSettings(window=8, max_invocations=60), timed)
    pairs = [(versions[1], versions[0]), (versions[0], versions[2]), (versions[0], versions[0])]
    ratings = [
        rater.rate_pair(exp, base, EnvFeed(feed) if plain else feed) for exp, base in pairs
    ]
    return (
        [
            (r.samples.tobytes(), float(r.eval).hex(), float(r.var).hex(),
             r.n_samples, r.n_invocations, r.converged, r.notes)
            for r in ratings
        ],
        {k: float(v).hex() for k, v in ledger.by_category.items()},
        list(ledger.by_category),
        ledger.invocations, ledger.program_runs,
        astuple(timed.executor.machine_state()),
    ), len(saves), store


def _workload_case(name, machine):
    w = get_workload(name)
    ds = w.dataset("train")
    return w.ts, ds.generator, ds.n_invocations, machine


@pytest.mark.parametrize(
    "case, copies",
    [
        # every version is oblivious: the runs replay, nothing is saved
        ("swim/pentium4", False),
        ("swim/sparc2", False),
        # gzip's versions are not oblivious: runs replay by position
        ("gzip/pentium4", False),
        # a live replay (crafty's shared `dirs` table)
        ("crafty/pentium4", True),
        # a plan with an inspector array
        ("scatter/pentium4", True),
    ],
)
@pytest.mark.parametrize("tier", [0, 1])
def test_rbr_handle_path_equals_the_env_path(case, copies, tier):
    name, machine = case.split("/")
    machine = {"pentium4": PENTIUM4, "sparc2": SPARC2}[machine]
    if name == "scatter":
        args = (_scatter_fn(), _scatter_gen, 12, machine)
    else:
        args = _workload_case(name, machine)
    handles, handle_saves, store = _rbr_run(*args, plain=False, tier=tier)
    envs, env_saves, _ = _rbr_run(*args, plain=True, tier=tier)
    assert handles == envs
    # the copying path saves once per invocation, the handle path never
    assert env_saves == sum(rating[4] for rating in handles[0])
    assert handle_saves == (env_saves if copies else 0)
    if name in ("swim", "gzip"):
        assert store.hits > 0


@pytest.mark.parametrize(
    "case", ["gzip/pentium4", "art/pentium4", "art/sparc2"]
)
@pytest.mark.parametrize("tier", [0, 1])
def test_rbr_replay_by_position_equals_no_replay(case, tier):
    # none of these versions is oblivious: every hit is keyed by position
    name, machine = case.split("/")
    args = _workload_case(name, {"pentium4": PENTIUM4, "sparc2": SPARC2}[machine])
    on, on_saves, store = _rbr_run(*args, plain=False, tier=tier)
    off, off_saves, _ = _rbr_run(*args, plain=False, tier=tier, replay=False)
    assert on == off
    assert on_saves == 0 and off_saves == sum(rating[4] for rating in on[0])
    assert store.hits > 0


def test_a_context_store_holds_one_program_run_of_rbr_records():
    # three runs per input position; art has 600, wupwise 80
    for name, entries in (("art", 2400), ("wupwise", REPLAY_MEMO_MAX)):
        spec = EngineSpec(name, PENTIUM4, "train", RatingSettings(), None, None, 1, True)
        assert _WorkerContext(spec).replay_memo.max_entries == entries


def test_copy_cycles_equal_what_save_and_restore_charge():
    for name in WORKLOAD_NAMES:
        w = get_workload(name)
        ds = w.dataset("train")
        plan = SaveRestorePlan(w.ts, PENTIUM4)
        replay = InputReplay(ds.generator, ds.n_invocations)
        for pos in range(0, ds.n_invocations, 7):
            inputs = replay.inputs(pos)
            ledger = TuningLedger()
            env = inputs.env
            snap = plan.save(env, ledger)
            saved = ledger.by_category["save_restore"]
            assert plan.copy_cycles(inputs.facts) == saved, name
            if not plan.inspector_arrays:
                plan.restore(env, snap, ledger)
                assert ledger.by_category["save_restore"] == saved + saved, name


# --------------------------------------------------------------------------- #
# ref evaluation: through a shared replay, equal to generating every env


def measure_by_generating(workload, config, machine, dataset="ref", *, runs, seed=1234):
    """The ref evaluation loop that generated each invocation's env afresh
    (frozen)."""
    version = compile_version(workload.ts, config, machine)
    ds = workload.dataset(dataset)
    executor = create_executor(machine, 1)
    replay = Store(REPLAY_MEMO_MAX)
    totals = []
    for _ in range(runs):
        rng = np.random.default_rng(seed)
        total = ds.non_ts_cycles
        for i in range(ds.n_invocations):
            env = ds.env(rng, i)
            total += executor.run(
                version.exe, env, factors=version.factors, replay=replay
            ).cycles
        totals.append(total)
    return float(np.mean(totals))


@pytest.mark.parametrize("machine", [SPARC2, PENTIUM4], ids=lambda m: m.name)
def test_ref_evaluation_equals_generating_every_env(machine):
    tuned = OptConfig.o3().without("strength-reduce", "schedule-insns")
    for name in WORKLOAD_NAMES:
        w = get_workload(name)
        ds = w.dataset("ref")
        calls = []

        def generator(rng, i, gen=ds.generator):
            calls.append(i)
            return gen(rng, i)

        inputs = InputReplay(generator, ds.n_invocations, 1234)
        w_counted = replace(w, datasets={**w.datasets, "ref": replace(ds, generator=generator)})
        configs = (OptConfig.o3(), tuned)
        got = [
            measure_whole_program(w_counted, c, machine, runs=2, inputs=inputs)
            for c in configs
        ]
        want = [measure_by_generating(w, c, machine, runs=2) for c in configs]
        assert [v.hex() for v in got] == [v.hex() for v in want], name
        # the measurements of replayable versions share one generated
        # program run; any other version generates each of its runs
        simulated = sum(
            oblivious_reason(compile_version(w.ts, c, machine).exe)
            is not None
            for c in configs
        )
        shared = simulated < len(configs)
        assert Counter(calls) == dict.fromkeys(range(ds.n_invocations), shared + 2 * simulated)
        if name in ("crafty", "gzip", "swim"):
            speedup = evaluate_speedup(w, tuned, machine, runs=2)
            assert speedup.hex() == ((want[0] / want[1] - 1.0) * 100.0).hex(), name


def test_a_replay_of_another_dataset_is_refused():
    w = get_workload("swim")
    ds = w.dataset("train")
    with pytest.raises(ValueError, match="different dataset"):
        measure_whole_program(
            w, OptConfig.o3(), PENTIUM4, runs=1,
            inputs=InputReplay(ds.generator, ds.n_invocations, 1234),
        )


# --------------------------------------------------------------------------- #
# replay keys: a hash computed once, never carried across processes


_MAKE_KEY = """
import base64, pickle, sys
from repro.compiler import OptConfig, compile_version
from repro.machine import PENTIUM4
from repro.machine.jit import create_executor
from repro.machine.oblivious import oblivious_reason
from repro.workloads import get_workload
w = get_workload("swim")
ds = w.dataset("train")
v = compile_version(w.ts, OptConfig.o3().without("gcse"), PENTIUM4)
ex = create_executor(PENTIUM4, 1)
import numpy as np
rng = np.random.default_rng(0)
for i in range(3):
    ex.run(v.exe, ds.env(rng, i), factors=v.factors)
key = (v.factors, ex.machine_state())
assert key[1].branch_keys
sys.stdout.write(base64.b64encode(pickle.dumps(({key: "entry"}, key))).decode())
"""

_FIND_KEY = """
import base64, pickle, sys
from repro.machine.executor import CostFactors, MachineState
table, key = pickle.loads(base64.b64decode(sys.stdin.read()))
factors, state = key
# equal values built in this process
fresh = (
    CostFactors(factors.mem, factors.branch),
    MachineState(tuple(map(tuple, state.lines)), tuple(map(tuple, state.branch_keys)),
                 state.branch_taken, 0, 0),
)
assert hash(fresh) == hash(key), "stale hash"
assert table[fresh] == "entry"
assert table[key] == "entry"
print("found")
"""


def _python(code: str, hash_seed: int, stdin: str = "") -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, text=True,
        env=env, check=True, timeout=300,
    ).stdout


def test_a_pickled_key_finds_its_entry_under_another_hash_seed():
    pickled = _python(_MAKE_KEY, 1)
    assert _python(_FIND_KEY, 12345, pickled).strip() == "found"


_MAKE_INPUTS_KEY = """
import base64, pickle, sys
import numpy as np
from repro.machine.executor import input_facts
from repro.workloads import get_workload
ds = get_workload("swim").dataset("train")
key = input_facts(ds.env(np.random.default_rng(0), 0), {}).key
sys.stdout.write(base64.b64encode(pickle.dumps(({key: "entry"}, key))).decode())
"""

_FIND_INPUTS_KEY = """
import base64, pickle, sys
from repro.machine.executor import InputsKey
table, key = pickle.loads(base64.b64decode(sys.stdin.read()))
assert type(key) is InputsKey
# an equal value built in this process
fresh = InputsKey(tuple(key))
assert hash(fresh) == hash(key) == hash(tuple(key)), "stale hash"
assert table[fresh] == table[key] == table[tuple(key)] == "entry"
print("found")
"""


def test_a_pickled_inputs_key_finds_its_entry_under_another_hash_seed():
    pickled = _python(_MAKE_INPUTS_KEY, 1)
    assert _python(_FIND_INPUTS_KEY, 12345, pickled).strip() == "found"


def test_inputs_key_hashes_once_and_pickles_without_it():
    ds = get_workload("swim").dataset("train")
    key = input_facts(ds.env(np.random.default_rng(0), 0), {}).key
    assert isinstance(key, InputsKey)
    assert key == tuple(key) and hash(key) == hash(tuple(key))
    assert key._hash == hash(tuple(key))
    assert b"_hash" not in pickle.dumps(key)
    assert pickle.loads(pickle.dumps(key)) == key


def test_cached_hashes_follow_the_values():
    a = MachineState(((2,), ()), (("f", "L1"),), b"\x01", 3, 4)
    b = MachineState(((2,), ()), (("f", "L1"),), b"\x01", 9, 9)
    assert a == b and hash(a) == hash(b)  # the counters are statistics
    assert pickle.loads(pickle.dumps(a)) == a
    assert astuple(pickle.loads(pickle.dumps(a))) == astuple(a)
    assert hash(CostFactors(1.5, 2.0)) == hash(CostFactors(1.5, 2.0))
    assert CostFactors(1.5, 2.0) != CostFactors(2.0, 1.5)
    assert pickle.loads(pickle.dumps(CostFactors(1.5))) == CostFactors(1.5)
    # a pickle carries no hash
    assert b"_hash" not in pickle.dumps(a) + pickle.dumps(CostFactors(1.5))


# --------------------------------------------------------------------------- #
# version keys: the prefix hashed once per rating context


def reference_version_key(fn, config, machine, *, checked) -> str:
    """The version key as one hash over every part (frozen)."""
    h = hashlib.sha256()
    h.update(str(fn).encode())
    h.update(b"\x00")
    h.update("\x1f".join(config.key()).encode())
    h.update(b"\x00")
    h.update(repr(machine).encode())
    h.update(b"\x00")
    h.update(b"1" if checked else b"0")
    return h.hexdigest()


@pytest.mark.parametrize("name", ["wupwise", "mgrid"])
def test_context_version_keys_equal_version_key(name):
    spec = EngineSpec(name, PENTIUM4, "train", RatingSettings(), None, None, 1, True)
    ctx = _WorkerContext(spec)
    assert ctx.plan.instrumented_fn is not None
    rater = _TaskRater(ctx, 1, NULL_OBS)
    configs = (
        OptConfig.o3(), OptConfig.o0(), *CONFIGS[1:],
        OptConfig.of("inline-functions"),
    )
    for instrumented in (False, True):
        fn = ctx.plan.instrumented_fn if instrumented else ctx.workload.ts
        for config in configs:
            for checked in (False, True):
                assert version_key(
                    fn, config, PENTIUM4, checked=checked
                ) == reference_version_key(fn, config, PENTIUM4, checked=checked)
            # the rater files each version under the key of its variant
            version = rater.version_for(config.key(), instrumented=instrumented)
            want = reference_version_key(fn, config, PENTIUM4, checked=False)
            assert ctx.version_keys[instrumented](config) == want
            assert ctx.cache.get(want) is version
    assert set(ctx.version_keys) == {False, True}
    # the plain and the instrumented TS key apart
    assert ctx.version_keys[False](OptConfig.o3()) != ctx.version_keys[True](OptConfig.o3())
