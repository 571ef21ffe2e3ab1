"""The batch rating engine: parallel candidate evaluation for PEAK.

The legacy ``_RatingEngine`` in :mod:`.peak` rates one candidate at a time
against a single shared invocation feed and noise stream — faithful to the
paper's sequential tuning process, but it leaves every core but one idle.
This module provides the parallel counterpart:

* :class:`BatchRatingEngine` implements both the scalar ``rate(candidate,
  reference)`` interface and the ``rate_many(pairs)`` batch hook the search
  algorithms call through :meth:`SearchAlgorithm._measure_batch`.  Batches
  fan out over a :class:`~repro.core.search.parallel.ParallelEvaluator`.
* Every rating task is **hermetic**: it gets its own
  :class:`~repro.runtime.ledger.TuningLedger`, its own
  :class:`~repro.core.rating.feed.InvocationFeed` (replaying the dataset
  from the start, like re-running the application; the inputs come from
  the worker's one :class:`~repro.core.rating.feed.InputReplay`), and its own
  noise RNG seeded from ``(base_seed, task_id)``.  Task ids are assigned at
  submission in batch order, so results are **bit-identical for any
  ``jobs``/backend setting** — ``jobs=1`` is the reference serial run.
* Per batch, each distinct reference configuration is rated **once** and
  the result is shared by the batch's candidate tasks (Iterative
  Elimination re-rates its baseline ~n times otherwise).  RBR has no
  separate reference rating: its A/B re-execution pair runs inside one
  task and therefore stays pinned to one worker, preserving the ordering
  alternation that cancels RBR's measurement bias.
* Compiled versions are served from a content-addressed
  :class:`~repro.compiler.pipeline.VersionCache` (per engine for the
  serial/thread backends, per worker process for the process backend), so
  re-probed configurations skip the pass pipeline; hit/miss counts and
  per-worker wall-clock land in the merged ledger.

Method switching (Section 3 of the paper) is preserved: when a reference
rating fails to converge the whole batch escalates to the next applicable
method; when an individual candidate fails, its task escalates locally —
re-rating its reference under the new method inside the same task — and
the engine adopts the furthest-along method for subsequent batches, which
is independent of worker scheduling.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ..compiler.options import OptConfig
from ..compiler.pipeline import VersionCache, compile_version
from ..compiler.prefix import PassPrefixCache, PrefixStats
from ..compiler.version import Version
from ..machine.config import MachineConfig
from ..machine.perturb import NoiseModel
from ..machine.profiler import profile_tuning_section
from ..obs import NULL_OBS, Obs, obs_or_null
from ..runtime.instrument import TimedExecutor
from ..runtime.ledger import TuningLedger
from ..runtime.save_restore import SaveRestorePlan
from ..workloads.base import Workload
from .rating.base import RatingResult, RatingSettings
from .rating.consultant import ConsultantLimits, RatingPlan, consult
from .rating.feed import InputReplay, InvocationFeed
from .rating.rbr import ReExecutionRating
from .search.parallel import ParallelEvaluator

__all__ = ["BatchRatingEngine", "EngineSpec"]


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
    limits: ConsultantLimits
    noise: NoiseModel | None
    rbr_improved: bool
    whl_runs_per_rating: int
    checked: bool
    profile_limit: int | None
    base_seed: int
    use_cache: bool
    #: execution tier for every simulated invocation (0 = interpreter,
    #: 1 = whole-function compilation; results are bit-identical either way)
    exec_tier: int = 0
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
    what every task of the worker reuses (the dataset replay and the RBR
    save/restore plan)."""

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
                limits=spec.limits,
                pointer_seeds=workload.pointer_seeds,
            )
        self.plan = plan
        self.ds = workload.dataset(spec.dataset)
        #: the dataset's inputs, generated once and replayed by every task
        self.replay = InputReplay(
            self.ds.generator, self.ds.n_invocations, spec.base_seed
        )
        self.cache: VersionCache | None = VersionCache() if spec.use_cache else None
        self.prefix_cache: PassPrefixCache | None = (
            PassPrefixCache() if spec.use_prefix_cache else None
        )

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
    ledger: TuningLedger
    cache_hits: int
    cache_misses: int
    prefix: PrefixStats
    wall_seconds: float
    worker: str
    #: completed span trees from the task's tracer (empty when obs is off);
    #: the parent grafts these under its batch span in submission order
    spans: tuple = ()
    #: the task's MetricsRegistry (None when obs is off); merged into the
    #: parent registry
    metrics: object | None = None
    #: cycles the task's ledger charged outside any open span
    unattributed: dict | None = None


@dataclass
class _CacheStats:
    hits: int = 0
    misses: int = 0


class _TaskRater:
    """Rates configurations inside one task: fresh feed/noise, shared cache."""

    def __init__(self, ctx: _WorkerContext, task: _Task) -> None:
        self.ctx = ctx
        self.task = task
        self.stats = _CacheStats()
        self.prefix_stats = PrefixStats()
        self.ledger = TuningLedger()
        self.n_rated = 0
        spec = ctx.spec
        self.feed = InvocationFeed(
            ctx.ds.generator,
            ctx.ds.n_invocations,
            ctx.ds.non_ts_cycles,
            self.ledger,
            seed=spec.base_seed,
            replay=ctx.replay,
        )
        self.obs = Obs.create() if spec.obs_enabled else NULL_OBS
        self.timed = TimedExecutor(
            spec.machine,
            seed=_task_seed(spec.base_seed, task.task_id),
            noise=spec.noise,
            ledger=self.ledger,
            exec_tier=spec.exec_tier,
            obs=self.obs,
        )

    # -- compilation ---------------------------------------------------- #

    def version_for(self, key: tuple[str, ...], *, instrumented: bool) -> Version:
        ctx, spec = self.ctx, self.ctx.spec
        fn = ctx.plan.instrumented_fn if instrumented else ctx.workload.ts
        if fn is None:
            raise RuntimeError("MBR requested but TS was never instrumented")
        config = OptConfig(frozenset(key))
        if ctx.cache is None:
            return compile_version(
                fn, config, spec.machine,
                program=ctx.workload.program, checked=spec.checked,
                prefix_cache=ctx.prefix_cache, prefix_stats=self.prefix_stats,
                obs=self.obs,
            )
        cache_key = ctx.cache.key_for(
            fn, config, spec.machine,
            program=ctx.workload.program, checked=spec.checked,
        )
        version, hit = ctx.cache.get_or_compile(
            cache_key,
            lambda: compile_version(
                fn, config, spec.machine,
                program=ctx.workload.program, checked=spec.checked,
                prefix_cache=ctx.prefix_cache, prefix_stats=self.prefix_stats,
                obs=self.obs,
            ),
        )
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return version

    # -- rating --------------------------------------------------------- #

    def rate_single(self, method: str, key: tuple[str, ...]) -> RatingResult:
        spec = self.ctx.spec
        rater = self.ctx.plan.rater(
            method, spec.settings, self.timed,
            whl_runs_per_rating=spec.whl_runs_per_rating,
        )
        result = rater.rate(
            self.version_for(key, instrumented=method == "MBR"), self.feed
        )
        self.n_rated += 1
        return result

    def rate_rbr_pair(
        self, candidate: tuple[str, ...], reference: tuple[str, ...]
    ) -> RatingResult:
        ctx, spec = self.ctx, self.ctx.spec
        rater = ReExecutionRating(
            ctx.save_plan, spec.settings, self.timed, improved=spec.rbr_improved
        )
        result = rater.rate_pair(
            self.version_for(candidate, instrumented=False),
            self.version_for(reference, instrumented=False),
            self.feed,
        )
        self.n_rated += 1
        return result


def _next_method(
    plan: RatingPlan, method: str, tried: tuple[str, ...]
) -> str | None:
    nxt = plan.next_method(method)
    if nxt is None or nxt in tried:
        return None
    return nxt


def _run_task(ctx: _WorkerContext, task: _Task) -> _TaskOutcome:
    """Execute one rating task; hermetic except for the shared version cache."""
    t0 = time.perf_counter()
    rater = _TaskRater(ctx, task)
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
        worker=_worker_label(),
    ):
        if task.kind == "ref":
            rating = rater.rate_single(method, task.candidate)
        else:
            assert task.reference is not None
            ref_rating = task.ref_rating
            while True:
                if method == "RBR":
                    result = rater.rate_rbr_pair(task.candidate, task.reference)
                    nxt = (
                        None
                        if result.converged
                        else _next_method(ctx.plan, method, tuple(tried))
                    )
                    if nxt is None:
                        speed = result.eval
                        break
                    method = nxt
                    tried.append(nxt)
                    ref_rating = None
                    continue
                if ref_rating is None:
                    ref_rating = rater.rate_single(method, task.reference)
                    if not ref_rating.converged:
                        nxt = _next_method(ctx.plan, method, tuple(tried))
                        if nxt is not None:
                            method = nxt
                            tried.append(nxt)
                            ref_rating = None
                            continue
                cand_rating = rater.rate_single(method, task.candidate)
                if not cand_rating.converged:
                    nxt = _next_method(ctx.plan, method, tuple(tried))
                    if nxt is not None:
                        method = nxt
                        tried.append(nxt)
                        ref_rating = None
                        continue
                speed = cand_rating.speed_vs(ref_rating)
                break

    obs = rater.obs
    return _TaskOutcome(
        task_id=task.task_id,
        speed=speed,
        rating=rating,
        method=method,
        methods_tried=tuple(tried),
        n_rated=rater.n_rated,
        ledger=rater.ledger,
        cache_hits=rater.stats.hits,
        cache_misses=rater.stats.misses,
        prefix=rater.prefix_stats,
        wall_seconds=time.perf_counter() - t0,
        worker=_worker_label(),
        spans=tuple(obs.tracer.roots) if obs.tracer.enabled else (),
        metrics=obs.metrics if obs.metrics.enabled else None,
        unattributed=dict(obs.tracer.unattributed) if obs.tracer.enabled else None,
    )


def _run_task_in_worker(task: _Task) -> _TaskOutcome:
    """Process-pool entry point: rate using the worker-global context."""
    assert _WORKER_CTX is not None, "worker context not initialised"
    return _run_task(_WORKER_CTX, task)


# --------------------------------------------------------------------------- #
# the engine


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
        self._ctx = _WorkerContext(spec, workload=workload, plan=plan)
        self.plan = self._ctx.plan
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

    @property
    def version_cache(self):
        """The parent-context compiled-version cache (None when disabled)."""
        return self._ctx.cache

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
                ctx = self._ctx
                outcomes = self.evaluator.map(lambda t: _run_task(ctx, t), tasks)
            # absorb bookkeeping in submission order (deterministic).  The
            # ledger absorb bypasses charge(), so worker cycles are not
            # re-attributed here — they arrive inside the adopted spans.
            for out in outcomes:
                self.ledger.absorb(out.ledger)
                self.ledger.record_cache(out.cache_hits, out.cache_misses)
                self.ledger.record_prefix(
                    out.prefix.compiles,
                    out.prefix.full_hits,
                    out.prefix.steps_saved,
                    out.prefix.steps_run,
                )
                self.ledger.record_wall(out.worker, out.wall_seconds)
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
            nxt = _next_method(self.plan, method, tuple(self.methods_tried))
            if nxt is None:
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
