"""Invocation replay: a replayed invocation returns, and leaves the machine,
exactly as a simulated one.

``Executor.run(..., replay=store)`` skips simulating an invocation of a
data-oblivious executable (:func:`repro.machine.oblivious.oblivious_reason`)
whose executable content, cost factors, scalars, array shapes and entry
machine state it recorded before; for any other executable, it skips a
re-execution's run on an unbuilt fresh hand-out whose input position it
recorded before.  These tests pin the two halves of that claim:

* the analysis: every kernel it accepts does the same work on any float
  data (random kernels, special values included), and each of its rules
  rejects what it must (hand-written kernels, the 14 workloads);
* the replay: tunes, ratings on the batch engine and ref evaluations are
  bit-identical with the replay on and off, only inputs whose contents are
  exactly a position's are keyed by it, the key covers the executable's
  content, and the executor's known state (which spares a replay the
  entry snapshot) always equals a fresh snapshot.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.compiler import OptConfig, compile_version
from repro.core import engine as engine_mod
from repro.core import peak
from repro.core.peak import PeakTuner, evaluate_speedup
from repro.core.rating import InputReplay, InvocationFeed, RatingSettings
from repro.core.rating.rbr import ReExecutionRating
from repro.core.search import IterativeElimination
from repro.ir import ArrayRef, BinOp, Call, Const, FunctionBuilder, Type, UnOp, Var
from repro.machine import PENTIUM4, SPARC2, ExecutionError, compile_function, machine_by_name
from repro.machine.executor import CostFactors, executable_digest
from repro.machine.jit import TieredExecutor, create_executor
from repro.machine.oblivious import oblivious_reason
from repro.obs import Obs
from repro.runtime import TimedExecutor, TuningLedger
from repro.runtime.save_restore import SaveRestorePlan
from repro.store import Store
from repro.workloads import WORKLOAD_NAMES, get_workload

from ..core.test_run_memo import fingerprint
from ..strategies import ARRAY_SIZE, float_kernels
from .test_executor_differential import bits

MACHINES = (SPARC2, PENTIUM4)

SPECIAL = (0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1e308, -1e308, 5e-324)


def executor(machine, tier):
    if tier == 0:
        return create_executor(machine, 0)
    return TieredExecutor(machine, code_cache=Store())


def outcome(ex, exe, env, **kwargs):
    """Everything an invocation decides, or its error."""
    try:
        r = ex.run(exe, env, count_blocks=True, **kwargs)
    except ExecutionError as e:
        return ("error", type(e.__cause__).__name__, astuple(ex.machine_state()))
    return (
        r.cycles, r.mem_cycles, r.branch_miss_cycles, r.block_counts,
        bits(r.return_value), astuple(ex.machine_state()),
    )


# --------------------------------------------------------------------------- #
# the analysis: accepted kernels do the same work on any data


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    fn=float_kernels(),
    machine=st.sampled_from(MACHINES),
    tier=st.sampled_from((0, 1)),
    n=st.integers(-1, 6),
    k=st.integers(-3, 6),
    s=st.sampled_from((0.0, 1.5, -2.0)),
    seed=st.integers(0, 2**16),
)
def test_accepted_kernels_are_data_oblivious(fn, machine, tier, n, k, s, seed):
    exe = compile_function(fn, machine)
    assume(oblivious_reason(exe) is None)
    rng = np.random.default_rng(seed)
    ex = executor(machine, tier)
    # a warm entry state: one invocation on other data
    scalars = {"n": n, "k": k, "s": s, "t": 0.75}
    try:
        ex.run(exe, {**scalars, "a": rng.normal(size=ARRAY_SIZE).tolist(),
                     "b": rng.normal(size=ARRAY_SIZE).tolist()})
    except ExecutionError:
        pass
    entry = ex.machine_state()
    datasets = [
        (rng.normal(size=ARRAY_SIZE).tolist(), rng.normal(size=ARRAY_SIZE).tolist()),
        (rng.choice(SPECIAL, ARRAY_SIZE).tolist(), rng.choice(SPECIAL, ARRAY_SIZE).tolist()),
    ]
    seen = []
    for a, b in datasets:
        ex.restore_machine_state(entry)
        seen.append(outcome(ex, exe, {**scalars, "a": a, "b": b}))
    assert seen[0] == seen[1]

    # the replay of the first run, on the second run's data
    store = Store()
    for a, b in datasets:
        ex.restore_machine_state(entry)
        replayed = outcome(ex, exe, {**scalars, "a": list(a), "b": list(b)}, replay=store)
        assert replayed == seen[0]
    if seen[0][0] != "error":
        assert (store.hits, store.misses) == (1, 1)


# --------------------------------------------------------------------------- #
# the analysis: each rule rejects


def _kernel(body, *, ret=None, arrays=(("a", Type.FLOAT_ARRAY),), return_type=Type.INT):
    b = FunctionBuilder(
        "k", [("n", Type.INT), ("s", Type.FLOAT), *arrays], return_type=return_type
    )
    b.local("x", Type.FLOAT)
    b.local("j", Type.INT)
    body(b)
    b.ret(ret if ret is not None else Var("n"))
    return compile_function(b.build(), PENTIUM4)


A0 = ArrayRef("a", Const(1))
WITH_INTS = (("a", Type.FLOAT_ARRAY), ("p", Type.INT_ARRAY))


def _store(value):
    return lambda b: b.store("a", Const(0), value)


def test_a_stencil_is_accepted():
    def body(b):
        with b.for_("i", 1, Var("n")):
            b.store(
                "a", Var("i"),
                (ArrayRef("a", Var("i") - 1) + ArrayRef("a", Var("i") + 1)) * 0.5 / Var("s")
                - UnOp("abs", BinOp("max", A0, Var("s"))),
            )
    assert oblivious_reason(_kernel(body)) is None


def _data_branch(b):
    b.assign("x", A0 * 2.0)
    with b.if_(Var("x") > 0.0):
        b.store("a", Const(0), Const(1.0))


def _indirect_subscript(b):
    b.assign("j", ArrayRef("p", Const(0)))
    b.store("a", Var("j"), Const(1.0))


@pytest.mark.parametrize(
    "body, ret, arrays, reason",
    [
        (_data_branch, None, None, "branch in"),
        (_indirect_subscript, None, WITH_INTS, "subscript of a"),
        (_store(Var("s") / A0), None, None, "divides by"),
        (lambda b: b.store("p", Const(0), Const(1)), None, WITH_INTS, "stores to p"),
        (lambda b: b.assign("x", A0), Var("x"), None, "returns"),
        (_store(BinOp("<", A0, Var("s"))), None, None, "'<'"),
        (_store(A0 // Var("s")), None, None, "'//'"),
        (_store(A0 % Var("s")), None, None, "'%'"),
        (_store(ArrayRef("p", Const(0)) + 1), None, WITH_INTS, "'+'"),
        (_store(UnOp("!", A0)), None, None, "'!'"),
    ],
    ids=[
        "data-branch", "indirect-subscript", "data-divisor", "int-array-store",
        "data-return", "comparison", "floor-division", "modulo", "int-arithmetic",
        "logical-not",
    ],
)
def test_each_rule_rejects(body, ret, arrays, reason):
    kwargs = {"arrays": arrays} if arrays else {}
    why = oblivious_reason(_kernel(body, ret=ret, **kwargs))
    assert why is not None and reason in why, why


@pytest.mark.parametrize("fn", ["sqrt", "exp", "log", "sin", "cos", "floor", "int", "float"])
def test_every_intrinsic_on_data_is_rejected(fn):
    why = oblivious_reason(_kernel(_store(Call(fn, (A0,)))))
    assert why == f"applies {fn}() to array data"


def test_intrinsics_of_scalars_are_accepted():
    assert oblivious_reason(_kernel(_store(A0 + Call("sqrt", (Var("s"),))))) is None


def test_the_analysis_runs_once_per_distinct_ir_of_an_executor(monkeypatch):
    from repro.machine import oblivious

    calls = []
    reason = oblivious._reason
    monkeypatch.setattr(oblivious, "_reason", lambda exe: calls.append(exe) or reason(exe))
    fn = _halve_fn()
    env = {"n": 7, "s": 2.0, "a": [1.0] * 4}
    ex = executor(PENTIUM4, 1)
    store = Store()
    # two versions of one IR (different block costs), then another IR
    twins = [compile_function(fn, PENTIUM4), compile_version(fn, OptConfig.o0(), PENTIUM4).exe]
    assert str(twins[0].source) == str(twins[1].source)
    for exe in twins:
        ex.run(exe, dict(env), replay=store)
    assert calls == [twins[0]]
    other = _kernel(_store(A0 * 2.0))
    ex.run(other, {"n": 7, "s": 2.0, "a": [1.0] * 4}, replay=store)
    assert calls == [twins[0], other]
    # the verdicts belong to the executor: another one analyses afresh
    fresh = compile_function(fn, PENTIUM4)
    executor(PENTIUM4, 1).run(fresh, dict(env), replay=Store())
    assert calls == [twins[0], other, fresh]
    assert all(oblivious_reason(e) is None for e in (*twins, other, fresh))


#: the 14 workloads' tuning sections at -O3: five are data-oblivious; the
#: others branch on array data, subscript with it, or do int arithmetic on it
WORKLOAD_TABLE = {
    "bzip2": "branch in while_body2 depends on array data",
    "crafty": "applies '+' to array data",
    "gzip": "branch in while_header1 depends on array data",
    "mcf": "applies '-' to array data",
    "twolf": "subscript of xs depends on array data",
    "vortex": "branch in loop_body2 depends on array data",
    "applu": None,
    "apsi": None,
    "art": "branch in loop_body2 depends on array data",
    "mgrid": None,
    "equake": "subscript of x depends on array data",
    "mesa": "branch in join18 depends on array data",
    "swim": None,
    "wupwise": None,
}


def test_workload_table():
    reasons = {}
    for name in WORKLOAD_NAMES:
        w = get_workload(name)
        exe = compile_version(w.ts, OptConfig.o3(), PENTIUM4).exe
        reasons[name] = oblivious_reason(exe)
    assert reasons == WORKLOAD_TABLE


# --------------------------------------------------------------------------- #
# the replay: on and off decide and charge the same


FLAGS = ("strength-reduce", "schedule-insns", "inline-functions", "gcse", "loop-optimize")


def tune(monkeypatch, bench, machine, tier, method, *, replay, jobs=None):
    """A traced tune; returns its fingerprint and its raters."""
    raters = []
    init = engine_mod._TaskRater.__init__

    def recording_init(self, ctx, *args, **kwargs):
        if not replay:
            ctx.replay_memo = None
        init(self, ctx, *args, **kwargs)
        raters.append(self)

    with monkeypatch.context() as m:
        m.setattr(engine_mod._TaskRater, "__init__", recording_init)
        obs = Obs.create()
        result = PeakTuner(
            machine_by_name(machine), seed=1, search=IterativeElimination(),
            exec_tier=tier, jobs=jobs, parallel_backend="thread", obs=obs,
        ).tune(get_workload(bench), method=method, flags=FLAGS)
    return fingerprint(result, obs), raters


@pytest.mark.parametrize(
    "bench, machine, tier, method",
    [
        *[("swim", "pentium4", t, m) for t in (0, 1) for m in ("CBR", "RBR", "WHL", "AVG")],
        ("mgrid", "pentium4", 1, "WHL"),
        ("wupwise", "pentium4", 1, "CBR"),
        ("applu", "sparc2", 0, None),
        ("applu", "sparc2", 1, None),
    ],
)
def test_serial_tune_is_identical_with_and_without_replay(
    monkeypatch, bench, machine, tier, method
):
    on, (on_rater,) = tune(monkeypatch, bench, machine, tier, method, replay=True)
    off, (off_rater,) = tune(monkeypatch, bench, machine, tier, method, replay=False)
    assert on == off
    assert on_rater.ctx.replay_memo.hits > 0
    # the machines end in the same state, cache counters included
    assert astuple(on_rater.timed.executor.machine_state()) == astuple(
        off_rater.timed.executor.machine_state()
    )


def test_batch_tune_is_identical_with_and_without_replay(monkeypatch):
    on, raters = tune(monkeypatch, "swim", "pentium4", 1, "CBR", replay=True, jobs=2)
    off, _ = tune(monkeypatch, "swim", "pentium4", 1, "CBR", replay=False, jobs=2)
    assert on == off
    # the tasks share their context's store
    (ctx,) = {id(r.ctx): r.ctx for r in raters}.values()
    assert ctx.replay_memo.hits > 0


def _scatter_fn():
    """An oblivious kernel whose store is not affine: RBR's inspector
    records its writes."""
    b = FunctionBuilder("scatter", [("n", Type.INT), ("a", Type.FLOAT_ARRAY)])
    with b.for_("i", 0, Var("n")):
        j = UnOp("abs", Var("i") * Var("i") - Var("n")) % 32
        b.store("a", j, ArrayRef("a", j) * 0.5 + 1.0)
    b.ret()
    return b.build()


def _rbr_rating(replay):
    fn = _scatter_fn()
    plan = SaveRestorePlan(fn, PENTIUM4)
    version = compile_version(fn, OptConfig.o3(), PENTIUM4)
    ledger = TuningLedger()
    timed = TimedExecutor(PENTIUM4, seed=3, ledger=ledger, exec_tier=1, replay=replay)

    def generator(rng, i):
        return {"n": 6 + i % 3, "a": rng.normal(size=32)}

    feed = InvocationFeed(generator, 12, 1000.0, ledger, seed=5)
    result = ReExecutionRating(plan, RatingSettings(), timed).rate_pair(version, version, feed)
    return plan, version, (
        [float(x).hex() for x in result.samples], result.n_invocations,
        {k: float(v).hex() for k, v in sorted(ledger.by_category.items())},
    )


def test_rbr_with_inspector_arrays_simulates_its_precondition():
    # the inspector diffs what the precondition run wrote: that run must
    # write, so it never consults the store; the timed runs may replay
    store = Store()
    plan, version, on = _rbr_rating(store)
    assert plan.inspector_arrays and oblivious_reason(version.exe) is None
    _, _, off = _rbr_rating(None)
    assert on == off
    assert store.hits > 0


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_ref_evaluation_is_identical_with_and_without_replay(monkeypatch, machine):
    tuned = OptConfig.o3().without("strength-reduce", "schedule-insns")
    on = {
        name: evaluate_speedup(get_workload(name), tuned, machine, runs=2, exec_tier=1)
        for name in WORKLOAD_NAMES
    }
    # a store that keeps nothing replays nothing
    monkeypatch.setattr(peak, "REPLAY_MEMO_MAX", 0)
    off = {
        name: evaluate_speedup(get_workload(name), tuned, machine, runs=2, exec_tier=1)
        for name in WORKLOAD_NAMES
    }
    assert {k: float(v).hex() for k, v in on.items()} == {
        k: float(v).hex() for k, v in off.items()
    }


# --------------------------------------------------------------------------- #
# the key


def _halve_fn():
    """An oblivious kernel whose result type follows its scalars' types and
    whose fault follows its arrays' value types."""
    b = FunctionBuilder(
        "halve", [("n", Type.INT), ("s", Type.FLOAT), ("a", Type.FLOAT_ARRAY)],
        return_type=Type.INT,
    )
    b.store("a", Const(0), ArrayRef("a", Const(1)) / Var("s"))
    b.ret(Var("n") // 2)
    return b.build()


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("tier", (0, 1))
def test_scalar_and_array_value_types_key_the_replay(tier):
    # 7, np.int64(7), True-ish and 7.0 are equal but return different
    # types; a float divided by 0.0 raises in a list but not in an ndarray
    exe = compile_function(_halve_fn(), PENTIUM4)
    assert oblivious_reason(exe) is None
    envs = [
        {"n": 7, "s": 0.0, "a": np.ones(4)},
        {"n": 7, "s": 0.0, "a": [1.0] * 4},
        {"n": np.int64(7), "s": 2.0, "a": [1.0] * 4},
        {"n": 7, "s": 2.0, "a": [1.0] * 4},
        {"n": 7.0, "s": 2.0, "a": [1.0] * 4},
        {"n": 1, "s": 2.0, "a": [1.0] * 4},
        {"n": True, "s": 2.0, "a": [1.0] * 4},
    ]
    # -0.0 and 0.0 compare equal but return different bits
    b = FunctionBuilder("scale", [("s", Type.FLOAT), ("a", Type.FLOAT_ARRAY)],
                        return_type=Type.FLOAT)
    b.store("a", Const(0), ArrayRef("a", Const(1)) * Var("s"))
    b.ret(Var("s") * 2.0)
    scale = compile_function(b.build(), PENTIUM4)
    runs = [(exe, env) for env in envs] + [
        (scale, {"s": s, "a": [1.0] * 4}) for s in (0.0, -0.0, float("nan"), 0.0)
    ]
    ex, twin = executor(PENTIUM4, tier), executor(PENTIUM4, tier)
    store = Store()
    for fn, env in runs:
        ex.reset()
        twin.reset()
        copy = {k: list(v) if isinstance(v, list) else v for k, v in env.items()}
        assert outcome(ex, fn, env, replay=store) == outcome(twin, fn, copy)
    # only the last run repeats an earlier one
    assert store.hits == 1


# --------------------------------------------------------------------------- #
# the key of a version that is not oblivious: the input position


def _clip_fn():
    """A kernel that is not oblivious: what it does depends on its data, so
    a second run on the env it wrote differs from the first."""
    b = FunctionBuilder(
        "clip", [("n", Type.INT), ("a", Type.FLOAT_ARRAY), ("b", Type.FLOAT_ARRAY)],
        return_type=Type.INT,
    )
    b.local("c", Type.INT)
    with b.for_("i", 0, Var("n")):
        with b.if_(ArrayRef("a", Var("i")) > 0.0):
            b.store("a", Var("i"), ArrayRef("a", Var("i")) - 1.0)
            b.store("b", Var("i") * 3, ArrayRef("b", Var("i") * 3) + 1.0)
            b.assign("c", Var("c") + 1)
    b.ret(Var("c"))
    return b.build()


def _clip_gen(rng, i):
    return {"n": 12, "a": rng.uniform(-0.5, 1.5, size=40), "b": rng.normal(size=40)}


@pytest.mark.parametrize("tier", (0, 1))
def test_a_built_handle_is_simulated_not_keyed_by_position(tier):
    exe = compile_function(_clip_fn(), PENTIUM4)
    assert oblivious_reason(exe) is not None
    replay = InputReplay(_clip_gen, 4, seed=2)
    ex, twin = executor(PENTIUM4, tier), executor(PENTIUM4, tier)
    store = Store()
    # a feed's own hand-out is never keyed by position
    assert replay.inputs(0).position() is None
    assert outcome(ex, exe, replay.inputs(0), replay=store) == outcome(twin, exe, replay.env(0))
    assert (store.hits, store.misses, len(store)) == (0, 0, 0)
    ex.reset()
    twin.reset()
    handle = replay.inputs(0).fresh()
    assert handle.position() == (replay, 0)
    env = replay.env(0)
    first = outcome(ex, exe, handle, replay=store)
    assert first == outcome(twin, exe, env)
    assert (store.hits, store.misses, len(store)) == (0, 1, 1)
    # its env is built and written: a second run from the same entry state
    # sees the writes, so it is simulated
    assert handle.position() is None
    ex.reset()
    twin.reset()
    again = outcome(ex, exe, handle, replay=store)
    assert again == outcome(twin, exe, env)
    assert again[4] != first[4]
    assert (store.hits, store.misses, len(store)) == (0, 1, 1)
    # another fresh hand-out from that entry state replays the first run
    ex.reset()
    twin.reset()
    replayed = outcome(ex, exe, replay.inputs(0).fresh(), replay=store)
    assert replayed == outcome(twin, exe, replay.env(0))
    assert replayed[:5] == first[:5]
    assert store.hits == 1


@pytest.mark.parametrize("tier", (0, 1))
def test_executables_of_equal_content_share_a_record(tier):
    fn = _clip_fn()
    twins = [compile_function(fn, PENTIUM4) for _ in range(2)]
    costly = compile_function(
        fn, PENTIUM4, block_compute_cycles=dict.fromkeys(fn.cfg.blocks, 7.0)
    )
    digests = [executable_digest(e, PENTIUM4) for e in (*twins, costly)]
    assert digests[0] == digests[1] != digests[2]
    replay = InputReplay(_clip_gen, 4, seed=2)
    store = Store()

    def run(exe, factors=CostFactors.IDENTITY):
        ex = executor(PENTIUM4, tier)
        got = outcome(ex, exe, replay.inputs(1).fresh(), replay=store, factors=factors)
        assert got == outcome(executor(PENTIUM4, tier), exe, replay.env(1), factors=factors)
        return got

    first = run(twins[0])
    assert run(twins[1]) == first
    assert (store.hits, store.misses) == (1, 1)
    # other block costs or other factors are another record
    assert run(costly) != first
    assert run(twins[1], CostFactors(mem=1.5)) != first
    assert (store.hits, store.misses) == (1, 3)


# --------------------------------------------------------------------------- #
# the known state


def _sweep_fn():
    b = FunctionBuilder(
        "sweep", [("n", Type.INT), ("s", Type.FLOAT), ("a", Type.FLOAT_ARRAY),
                  ("b", Type.FLOAT_ARRAY)],
        return_type=Type.INT,
    )
    with b.for_("i", 0, Var("n")):
        with b.if_(Var("i") < 5):
            b.store("a", Var("i") * 3, ArrayRef("b", Var("i") * 7) * Var("s"))
        with b.orelse():
            b.store("b", Var("i"), ArrayRef("a", Var("i") + 2) + 1.0)
    b.ret(Var("n"))
    return b.build()


@pytest.mark.parametrize("tier", (0, 1))
@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("seed", range(3))
def test_known_state_is_always_a_fresh_snapshot(machine, tier, seed):
    """Random replayed runs (of an oblivious kernel by scalars and shapes, of
    another by input position), plain runs, restores and resets: the
    executor's known state always equals a fresh snapshot, and the
    executor stays in lockstep with a twin that simulates everything."""
    exe = compile_function(_sweep_fn(), machine)
    assert oblivious_reason(exe) is None
    clip = compile_function(_clip_fn(), machine)
    replay = InputReplay(_clip_gen, 2, seed=seed)
    rng = np.random.default_rng(seed)
    ex, twin = executor(machine, tier), executor(machine, tier)
    store = Store()
    saved = [ex.machine_state()]
    positional_hits = 0
    for _ in range(160):
        op = int(rng.integers(13))
        if op >= 10:
            pos = int(rng.integers(2))
            hits = store.hits
            got = outcome(ex, clip, replay.inputs(pos).fresh(), replay=store)
            positional_hits += store.hits - hits
            assert got == outcome(twin, clip, replay.env(pos))
        elif op < 6 or op == 9:
            size = 40 if rng.random() < 0.8 else 64
            env = {"n": int(rng.integers(0, 12)), "s": 0.5,
                   "a": rng.normal(size=size).tolist(), "b": rng.normal(size=size).tolist()}
            twin_env = {k: list(v) if isinstance(v, list) else v for k, v in env.items()}
            got = outcome(ex, exe, env, replay=store if op < 6 else None)
            assert got == outcome(twin, exe, twin_env)
        elif op == 6:
            saved.append(ex.machine_state())
        elif op == 7:
            state = saved[int(rng.integers(len(saved)))]
            ex.restore_machine_state(state)
            twin.restore_machine_state(state)
        else:
            ex.reset()
            twin.reset()
        assert ex._known is None or ex._known == ex.machine_state()
        assert astuple(ex.machine_state()) == astuple(twin.machine_state())
    assert store.hits > positional_hits > 0
