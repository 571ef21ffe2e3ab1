"""The rating engines: the paper's serial engine and the parallel batch engine.

Both rate through one rater and one switching loop.  A :class:`_TaskRater`
compiles and rates versions against a :class:`_WorkerContext` (plan,
version and pass-prefix caches, the WHL run memo, the invocation replay
store, the dataset's
:class:`~repro.core.rating.feed.InputReplay`, the RBR save/restore plan),
with its own ledger, invocation feed and noise stream; :func:`_rate_pair`
rates one pair and switches to the next applicable method whenever a
rating does not converge (Section 3 of the paper).

:class:`SerialRatingEngine` is the paper's sequential tuning process: one
long-lived rater, so every rating continues one invocation feed and one
noise stream.  It leaves every core but one idle.
:class:`BatchRatingEngine` is the parallel counterpart: besides the scalar
``rate(candidate, reference)`` it implements the ``rate_many(pairs)`` batch
hook the search algorithms call through
:meth:`SearchAlgorithm._measure_batch`, fanning batches out over a
:class:`~repro.core.search.parallel.ParallelEvaluator`.

* Every rating task is **hermetic**: a fresh rater whose feed replays the
  dataset from the start, like re-running the application, and whose noise
  RNG is seeded from ``(base_seed, task_id)``.  Task ids are assigned at
  submission in batch order, so results are **bit-identical for any
  ``jobs``/backend setting** — ``jobs=1`` is the reference run (not the
  serial engine's: a task does not continue the serial feed).
* Per batch, each distinct reference configuration is rated **once** and
  the result is shared by the batch's candidate tasks (Iterative
  Elimination re-rates its baseline ~n times otherwise).  RBR has no
  separate reference rating: its A/B re-execution pair runs inside one
  task and therefore stays pinned to one worker, preserving the ordering
  alternation that cancels RBR's measurement bias.
* Compiled versions are served from a version store, a
  :class:`~repro.store.Store` keyed by
  :func:`~repro.compiler.pipeline.version_key`, and compiles resume from a
  pass-prefix store (both per engine for the serial/thread backends, per
  worker process for the process backend).  WHL program runs are served
  from the context's run memo the same way; a replayed run charges, draws
  noise and leaves the machine exactly as a simulated one, so results do
  not depend on which task simulated a run first.
  Task ledgers carry cache traffic and per-worker wall-clock time, and
  are absorbed in submission order.

When a reference rating fails to converge the whole batch escalates to the
next applicable method; when an individual candidate fails, its task
escalates locally — re-rating its reference under the new method inside the
same task — and the engine adopts the furthest-along method for subsequent
batches, which is independent of worker scheduling.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from ..compiler.options import OptConfig
from ..compiler.pipeline import compile_version, version_keyer
from ..compiler.prefix import PREFIX_CACHE_MAX, PrefixStats
from ..compiler.version import Version
from ..machine.config import MachineConfig
from ..machine.executor import REPLAY_MEMO_MAX
from ..machine.perturb import NoiseModel
from ..machine.profiler import profile_tuning_section
from ..obs import NULL_OBS, Obs, collect_executor, obs_or_null
from ..runtime.instrument import TimedExecutor
from ..runtime.ledger import TuningLedger
from ..runtime.save_restore import SaveRestorePlan
from ..store import Store
from ..workloads.base import Workload
from .rating.base import RatingResult, RatingSettings
from .rating.baselines import RUN_MEMO_MAX
from .rating.consultant import RatingPlan, consult
from .rating.feed import InputReplay, InvocationFeed
from .rating.rbr import ReExecutionRating
from .search.parallel import ParallelEvaluator

__all__ = ["BatchRatingEngine", "EngineSpec", "SerialRatingEngine"]


# --------------------------------------------------------------------------- #
# worker context


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker needs to rebuild the rating context.

    All fields are picklable; the workload itself is reconstructed from the
    registry by name in each worker process (its dataset generators are
    closures and cannot cross a process boundary).
    """

    workload_name: str
    machine: MachineConfig
    dataset: str
    settings: RatingSettings
    noise: NoiseModel | None
    profile_limit: int | None
    base_seed: int
    use_cache: bool
    #: execution tier for every simulated invocation (1 = whole-function
    #: compilation, 0 = the reference interpreter; results are bit-identical
    #: either way)
    exec_tier: int = 1
    #: share pass-prefix IR snapshots across compiles, so configurations
    #: with overlapping pass chains resume mid-pipeline instead of starting
    #: cold (results are bit-identical either way)
    use_prefix_cache: bool = True
    #: workers build a live Obs (tracer + metrics) per task and ship the
    #: span trees / metric registries back in the outcome; off by default —
    #: the NULL_OBS path costs one attribute check per site
    obs_enabled: bool = False


class _WorkerContext:
    """Worker-local rating state: workload, plan, the version cache, and
    what every task of the worker reuses (the dataset replay, the WHL run
    memo and the RBR save/restore plan)."""

    def __init__(
        self,
        spec: EngineSpec,
        workload: Workload | None = None,
        plan: RatingPlan | None = None,
    ) -> None:
        if workload is None:
            from ..workloads import get_workload

            workload = get_workload(spec.workload_name)
        self.spec = spec
        self.workload = workload
        if plan is None:
            # deterministic: the profile replays the same invocations the
            # parent used (profile RNG is fixed), so every worker derives
            # the identical plan
            profile = profile_tuning_section(
                workload.ts,
                workload.profile_invocations(spec.dataset, limit=spec.profile_limit),
                spec.machine,
                exec_tier=spec.exec_tier,
            )
            plan = consult(
                workload.ts,
                profile,
                spec.machine,
                pointer_seeds=workload.pointer_seeds,
            )
        self.plan = plan
        self.ds = workload.dataset(spec.dataset)
        #: the dataset's inputs, generated once and replayed by every task
        self.replay = InputReplay(
            self.ds.generator, self.ds.n_invocations, spec.base_seed
        )
        self.cache: Store[Version] | None = Store() if spec.use_cache else None
        self.prefix_cache: Store | None = (
            Store(PREFIX_CACHE_MAX) if spec.use_prefix_cache else None
        )
        #: WHL program runs by executable, factors, position and entry
        #: machine state; it lives as long as the context (one tune, or one
        #: worker), never process-wide
        self.run_memo = Store(RUN_MEMO_MAX)
        #: invocations of data-oblivious versions by executable, factors,
        #: scalars, array shapes and entry machine state; like the run
        #: memo, per context.  None simulates every invocation.
        self.replay_memo: Store | None = Store(REPLAY_MEMO_MAX)
        #: the version-store key of a configuration, per TS variant (True:
        #: the instrumented TS); see :func:`version_keyer`.  Tasks that race
        #: on a variant build equal key functions.
        self.version_keys: dict[bool, Callable[[OptConfig], str]] = {}

    @cached_property
    def save_plan(self) -> SaveRestorePlan:
        """The RBR save/restore plan (liveness and store analyses of the TS;
        read-only once built)."""
        return SaveRestorePlan(self.workload.ts, self.spec.machine)


#: process-pool workers keep their context in a module global (set by
#: :func:`_init_worker`); serial/thread execution passes the context
#: explicitly and never touches this.
_WORKER_CTX: _WorkerContext | None = None


def _init_worker(spec: EngineSpec) -> None:
    global _WORKER_CTX
    _WORKER_CTX = _WorkerContext(spec)


def _worker_label() -> str:
    proc = multiprocessing.current_process()
    if proc.name != "MainProcess":
        return proc.name
    thread = threading.current_thread()
    if thread.name != "MainThread":
        return thread.name
    return "main"


def _task_seed(base_seed: int, task_id: int) -> np.random.SeedSequence:
    """The per-task noise seed: a pure function of (base seed, task id)."""
    return np.random.SeedSequence((base_seed % (2**63), task_id))


# --------------------------------------------------------------------------- #
# tasks


@dataclass(frozen=True)
class _Task:
    """One hermetic rating task (configs travel as canonical key tuples)."""

    task_id: int
    kind: str  # "ref" rates one config; "pair" rates candidate vs reference
    method: str
    candidate: tuple[str, ...]
    reference: tuple[str, ...] | None = None
    ref_rating: RatingResult | None = None
    tried: tuple[str, ...] = ()


@dataclass
class _TaskOutcome:
    """What a task sends back to the engine (picklable)."""

    task_id: int
    speed: float | None
    rating: RatingResult | None
    method: str
    methods_tried: tuple[str, ...]
    n_rated: int
    #: the task's cycles, version-cache and prefix-cache traffic, and wall
    #: time on its worker
    ledger: TuningLedger
    #: completed span trees from the task's tracer (empty when obs is off);
    #: the parent grafts these under its batch span in submission order
    spans: tuple = ()
    #: the task's MetricsRegistry (None when obs is off); merged into the
    #: parent registry
    metrics: object | None = None
    #: cycles the task's ledger charged outside any open span
    unattributed: dict | None = None


class _TaskRater:
    """Rates configurations against one context with its own ledger,
    invocation feed and noise stream.

    A batch task owns a fresh rater; the serial engine keeps one for the
    whole search and memoizes its converged ratings (*memo*).
    """

    def __init__(
        self,
        ctx: _WorkerContext,
        seed: int | np.random.SeedSequence,
        obs: Obs,
        *,
        memo: bool = False,
    ) -> None:
        self.ctx = ctx
        self.obs = obs
        self.ledger = TuningLedger()
        self.n_rated = 0
        #: converged ratings by (config key, method)
        self.memo: dict[tuple, RatingResult] | None = {} if memo else None
        spec = ctx.spec
        self.feed = InvocationFeed(
            ctx.ds.generator,
            ctx.ds.n_invocations,
            ctx.ds.non_ts_cycles,
            self.ledger,
            seed=spec.base_seed,
            replay=ctx.replay,
        )
        self.timed = TimedExecutor(
            spec.machine,
            seed=seed,
            noise=spec.noise,
            ledger=self.ledger,
            exec_tier=spec.exec_tier,
            obs=obs,
            # a live replay hands out objects the invocations write
            replay=None if ctx.replay.live else ctx.replay_memo,
        )

    # -- compilation ---------------------------------------------------- #

    def version_for(self, key: tuple[str, ...], *, instrumented: bool) -> Version:
        ctx, spec = self.ctx, self.ctx.spec
        fn = ctx.plan.instrumented_fn if instrumented else ctx.workload.ts
        if fn is None:
            raise RuntimeError("MBR requested but TS was never instrumented")
        config = OptConfig(frozenset(key))

        def build() -> Version:
            stats = PrefixStats()
            version = compile_version(
                fn, config, spec.machine,
                program=ctx.workload.program, checked=False,
                prefix_cache=ctx.prefix_cache, prefix_stats=stats, obs=self.obs,
            )
            self.ledger.record_prefix(
                stats.compiles, stats.full_hits, stats.steps_saved, stats.steps_run
            )
            return version

        if ctx.cache is None:
            return build()
        key_of = ctx.version_keys.get(instrumented)
        if key_of is None:
            key_of = ctx.version_keys[instrumented] = version_keyer(
                fn, spec.machine, program=ctx.workload.program, checked=False
            )
        version, hit = ctx.cache.get_or_build(key_of(config), build)
        self.ledger.record_cache(int(hit), int(not hit))
        return version

    # -- rating --------------------------------------------------------- #

    def rate_single(self, method: str, key: tuple[str, ...]) -> RatingResult:
        if self.memo is not None and (key, method) in self.memo:
            return self.memo[key, method]
        spec = self.ctx.spec
        rater = self.ctx.plan.rater(
            method, spec.settings, self.timed, run_memo=self.ctx.run_memo,
        )
        result = rater.rate(
            self.version_for(key, instrumented=method == "MBR"), self.feed
        )
        self.n_rated += 1
        if self.memo is not None and result.converged:
            self.memo[key, method] = result
        return result

    def rate_rbr_pair(
        self, candidate: tuple[str, ...], reference: tuple[str, ...]
    ) -> RatingResult:
        ctx, spec = self.ctx, self.ctx.spec
        rater = ReExecutionRating(ctx.save_plan, spec.settings, self.timed)
        result = rater.rate_pair(
            self.version_for(candidate, instrumented=False),
            self.version_for(reference, instrumented=False),
            self.feed,
        )
        self.n_rated += 1
        return result


def _rate_pair(
    rater: _TaskRater,
    method: str,
    tried: list[str],
    candidate: tuple[str, ...],
    reference: tuple[str, ...],
    ref_rating: RatingResult | None = None,
) -> tuple[float, str]:
    """Speed of *candidate* relative to *reference* (>1 = faster), and the
    method that rated it.

    Whenever a rating does not converge, the pair is re-rated with the
    plan's next applicable method (paper Section 3); every switch is
    appended to *tried*, and a method already tried is never re-entered.
    *ref_rating*, when given, is *reference*'s rating under *method*.
    """
    plan = rater.ctx.plan

    def switch() -> bool:
        nonlocal method, ref_rating
        nxt = plan.next_method(method)
        if nxt is None or nxt in tried:
            return False
        method, ref_rating = nxt, None
        tried.append(nxt)
        return True

    while True:
        if method == "RBR":
            result = rater.rate_rbr_pair(candidate, reference)
            if result.converged or not switch():
                return result.eval, method
            continue
        if ref_rating is None:
            ref_rating = rater.rate_single(method, reference)
            if not ref_rating.converged and switch():
                continue
        cand_rating = rater.rate_single(method, candidate)
        if cand_rating.converged or not switch():
            return cand_rating.speed_vs(ref_rating), method


def _run_task(ctx: _WorkerContext, task: _Task) -> _TaskOutcome:
    """Execute one rating task; hermetic except for the shared version cache."""
    t0 = time.perf_counter()
    worker = _worker_label()
    rater = _TaskRater(
        ctx,
        _task_seed(ctx.spec.base_seed, task.task_id),
        Obs.create() if ctx.spec.obs_enabled else NULL_OBS,
    )
    method = task.method
    tried = list(task.tried) if task.method in task.tried else \
        list(task.tried) + [task.method]

    speed: float | None = None
    rating: RatingResult | None = None

    # the task root span: every ledger charge of this task lands somewhere
    # under it, so the merged tree attributes the task's full cycle cost
    with rater.obs.span(
        "task", "engine",
        task_id=task.task_id, kind=task.kind, method=task.method,
        worker=worker,
    ):
        if task.kind == "ref":
            rating = rater.rate_single(method, task.candidate)
        else:
            assert task.reference is not None
            speed, method = _rate_pair(
                rater, method, tried, task.candidate, task.reference,
                task.ref_rating,
            )

    rater.ledger.record_wall(worker, time.perf_counter() - t0)
    obs = rater.obs
    collect_executor(obs, rater.timed.executor)
    return _TaskOutcome(
        task_id=task.task_id,
        speed=speed,
        rating=rating,
        method=method,
        methods_tried=tuple(tried),
        n_rated=rater.n_rated,
        ledger=rater.ledger,
        spans=tuple(obs.tracer.roots) if obs.tracer.enabled else (),
        metrics=obs.metrics if obs.metrics.enabled else None,
        unattributed=dict(obs.tracer.unattributed) if obs.tracer.enabled else None,
    )


def _run_task_in_worker(task: _Task) -> _TaskOutcome:
    """Process-pool entry point: rate using the worker-global context."""
    assert _WORKER_CTX is not None, "worker context not initialised"
    return _run_task(_WORKER_CTX, task)


# --------------------------------------------------------------------------- #
# the engines


class SerialRatingEngine:
    """The paper's sequential engine: rates one pair at a time.

    One long-lived rater serves the whole search: one invocation feed and
    one noise stream (seeded with ``spec.base_seed``), the caller's
    :class:`~repro.obs.Obs`, and a memo of converged ratings, so a search
    re-probing its reference pays for it once.  A switched method stays in
    force for every later pair.  There is no ``rate_many``: searches rate
    their batches pair by pair, in order.
    """

    def __init__(
        self,
        spec: EngineSpec,
        *,
        method: str,
        workload: Workload | None = None,
        plan: RatingPlan | None = None,
        obs: Obs | None = None,
    ) -> None:
        #: the rating context (plan, version and pass-prefix stores, inputs)
        self.ctx = _WorkerContext(spec, workload=workload, plan=plan)
        self._rater = _TaskRater(
            self.ctx, spec.base_seed, obs_or_null(obs), memo=True
        )
        self.ledger = self._rater.ledger
        self.method = method
        self.methods_tried: list[str] = [method]

    @property
    def n_rated(self) -> int:
        return self._rater.n_rated

    @property
    def executor(self):
        """The simulated machine every rating runs on."""
        return self._rater.timed.executor

    def rate(self, candidate: OptConfig, reference: OptConfig) -> float:
        """Speed of *candidate* relative to *reference* (>1 = faster)."""
        speed, self.method = _rate_pair(
            self._rater, self.method, self.methods_tried,
            candidate.key(), reference.key(),
        )
        return speed

    __call__ = rate


class BatchRatingEngine:
    """Rates candidate configurations, fanning batches over a worker pool.

    Drop-in for the search algorithms' ``RateFn``: callable for single
    pairs, with the ``rate_many`` batch hook for parallel evaluation.
    """

    def __init__(
        self,
        spec: EngineSpec,
        *,
        method: str,
        workload: Workload | None = None,
        plan: RatingPlan | None = None,
        jobs: int | None = 1,
        backend: str = "auto",
        obs: Obs | None = None,
    ) -> None:
        self.obs = obs_or_null(obs)
        if self.obs.enabled and not spec.obs_enabled:
            # keep one source of truth: a live parent Obs implies workers
            # must produce spans/metrics too
            spec = replace(spec, obs_enabled=True)
        self.spec = spec
        self.evaluator = ParallelEvaluator(
            jobs=jobs,
            backend=backend,
            initializer=_init_worker,
            initargs=(spec,),
        )
        if self.evaluator.backend == "process":
            from ..workloads import WORKLOAD_NAMES

            if spec.workload_name not in WORKLOAD_NAMES:
                raise ValueError(
                    f"workload {spec.workload_name!r} is not in the registry; "
                    "the process backend rebuilds workloads by name — use "
                    "backend='thread' for ad-hoc workloads"
                )
        # the parent always keeps a context: serial/thread tasks run against
        # it directly, and the process backend still needs the plan for
        # method-escalation decisions (workers rebuild their own copies)
        #: the parent's rating context (plan, version and pass-prefix
        #: stores, inputs); process-pool workers build their own
        self.ctx = _WorkerContext(spec, workload=workload, plan=plan)
        self.plan = self.ctx.plan
        self.method = method
        self.methods_tried: list[str] = [method]
        self.ledger = TuningLedger()
        self.n_rated = 0
        self._task_counter = 0

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        self.evaluator.close()

    def __enter__(self) -> "BatchRatingEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def _next_task_id(self) -> int:
        tid = self._task_counter
        self._task_counter += 1
        return tid

    def _execute(self, tasks: list[_Task]) -> list[_TaskOutcome]:
        with self.obs.span("batch", "engine", tasks=len(tasks)):
            if self.evaluator.backend == "process":
                outcomes = self.evaluator.map(_run_task_in_worker, tasks)
            else:
                ctx = self.ctx
                outcomes = self.evaluator.map(lambda t: _run_task(ctx, t), tasks)
            # absorb bookkeeping in submission order (deterministic).  The
            # ledger absorb bypasses charge(), so worker cycles are not
            # re-attributed here — they arrive inside the adopted spans.
            for out in outcomes:
                self.ledger.absorb(out.ledger)
                self.n_rated += out.n_rated
                if out.spans:
                    self.obs.tracer.adopt(out.spans)
                if out.unattributed:
                    self.obs.tracer.absorb_unattributed(out.unattributed)
                if out.metrics is not None:
                    self.obs.metrics.merge(out.metrics)
        return outcomes

    def _method_rank(self, method: str) -> int:
        try:
            return self.plan.applicable.index(method)
        except ValueError:
            return -1  # WHL/AVG sit before any applicable method

    def _adopt_methods(self, outcomes: list[_TaskOutcome]) -> None:
        """Advance to the furthest-along method any task reached.

        The furthest method is a maximum over the whole batch, so the
        outcome is identical however the tasks were scheduled.
        """
        best = self.method
        for out in outcomes:
            if self._method_rank(out.method) > self._method_rank(best):
                best = out.method
            for m in out.methods_tried:
                if m not in self.methods_tried:
                    self.methods_tried.append(m)
        self.method = best

    # ------------------------------------------------------------------ #

    def rate_many(
        self, pairs: list[tuple[OptConfig, OptConfig]]
    ) -> list[float]:
        """Rate a batch of independent (candidate, reference) pairs."""
        if not pairs:
            return []
        method = self.method

        # Phase 1 — rate each distinct reference once (skipped for RBR,
        # which compares pairs directly).  A non-converged reference
        # escalates the whole batch, mirroring the serial engine.
        ref_ratings: dict[tuple[str, ...], RatingResult] = {}
        while method != "RBR":
            ref_keys: list[tuple[str, ...]] = []
            for _, reference in pairs:
                key = reference.key()
                if key not in ref_keys:
                    ref_keys.append(key)
            tasks = [
                _Task(
                    task_id=self._next_task_id(),
                    kind="ref",
                    method=method,
                    candidate=key,
                    tried=tuple(self.methods_tried),
                )
                for key in ref_keys
            ]
            outcomes = self._execute(tasks)
            ref_ratings = {
                key: out.rating for key, out in zip(ref_keys, outcomes)
            }
            if all(r.converged for r in ref_ratings.values()):
                break
            nxt = self.plan.next_method(method)
            if nxt is None or nxt in self.methods_tried:
                break
            method = nxt
            self.methods_tried.append(nxt)
            ref_ratings = {}

        # Phase 2 — fan the candidate tasks out.  RBR pairs are one task
        # each (A/B re-execution pinned to a single worker).
        tasks = [
            _Task(
                task_id=self._next_task_id(),
                kind="pair",
                method=method,
                candidate=candidate.key(),
                reference=reference.key(),
                ref_rating=ref_ratings.get(reference.key()),
                tried=tuple(self.methods_tried),
            )
            for candidate, reference in pairs
        ]
        outcomes = self._execute(tasks)
        self.method = method
        self._adopt_methods(outcomes)
        return [out.speed for out in outcomes]

    def rate(self, candidate: OptConfig, reference: OptConfig) -> float:
        """Scalar interface (a batch of one)."""
        return self.rate_many([(candidate, reference)])[0]

    __call__ = rate
