"""PEAK — the automatic performance tuning system (paper Section 4, Fig. 5).

``PeakTuner.tune(workload)`` performs the full offline tuning pipeline:

1. **Profile run** with the tuning input (TS times, block counts, contexts).
2. **Rating Approach Consultant** annotates the TS with applicable methods
   and picks the cheapest (CBR → MBR → RBR order).
3. **Search** over the 38 ``-O3`` flags with Iterative Elimination (other
   algorithms plug in), rating every candidate configuration with the
   chosen method.  If a method fails to produce a converged rating within
   its invocation budget the engine *switches* to the next applicable one
   (Section 3).
4. The best configuration's clean version (no instrumentation) is the
   result; every cycle spent tuning is in the returned ledger.

Step 3 runs on one of the two engines of :mod:`repro.core.engine`, which
share one rater and one method-switching loop.  ``jobs=None`` (the default)
selects the paper-faithful serial engine with its single shared invocation
feed.  With ``jobs`` set, step 3 runs on the **parallel batch engine**: the
search algorithms emit batches of independent candidates that fan out over
a worker pool, and per-task seeding keeps the chosen configuration and
every rating bit-identical across ``jobs`` settings.  Both engines serve
compiled versions from a content-addressed cache (``use_version_cache``).

``evaluate_speedup`` measures the tuned configuration the way the paper's
Fig. 7(a)/(b) does: whole-program runs of the ``ref`` dataset, tuned vs
``-O3``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compiler.options import OptConfig
from ..compiler.pipeline import compile_version
from ..machine.config import MachineConfig
from ..machine.executor import REPLAY_MEMO_MAX
from ..machine.jit import create_executor, global_executable_cache
from ..machine.perturb import NoiseModel
from ..machine.profiler import TSProfile, profile_tuning_section
from ..obs import Obs, collect_cache, collect_executor, collect_run, obs_or_null
from ..runtime.ledger import TuningLedger
from ..store import Store
from ..workloads.base import Workload
from .engine import BatchRatingEngine, EngineSpec, SerialRatingEngine
from .rating.base import RatingSettings
from .rating.consultant import RatingPlan, consult
from .rating.feed import InputReplay
from .search.base import SearchAlgorithm, SearchResult
from .search.iterative_elimination import IterativeElimination

__all__ = ["PeakTuner", "TuningResult", "evaluate_speedup", "measure_whole_program"]


@dataclass
class TuningResult:
    """Outcome of tuning one workload's TS on one machine."""

    workload: str
    ts_name: str
    machine: str
    dataset: str
    method_requested: str | None
    method_used: str
    methods_tried: list[str]
    best_config: OptConfig
    search: SearchResult
    ledger: TuningLedger
    plan: RatingPlan
    n_versions_rated: int

    @property
    def tuning_cycles(self) -> float:
        return self.ledger.total_cycles


class PeakTuner:
    """The PEAK offline tuning driver."""

    def __init__(
        self,
        machine: MachineConfig,
        *,
        seed: int = 0,
        settings: RatingSettings = RatingSettings(),
        search: SearchAlgorithm | None = None,
        noise: NoiseModel | None = None,
        profile_limit: int | None = None,
        jobs: int | None = None,
        parallel_backend: str = "auto",
        use_version_cache: bool = True,
        use_prefix_cache: bool = True,
        exec_tier: int = 1,
        obs: Obs | None = None,
    ) -> None:
        self.machine = machine
        self.seed = seed
        self.settings = settings
        self.search = search if search is not None else IterativeElimination()
        self.noise = noise
        self.profile_limit = profile_limit
        #: None → the paper-faithful serial engine; an int (0 = all cores)
        #: → the parallel batch engine with that many workers
        self.jobs = jobs
        self.parallel_backend = parallel_backend
        self.use_version_cache = use_version_cache
        #: resume compiles from shared pass-prefix IR snapshots (versions
        #: are bit-identical either way)
        self.use_prefix_cache = use_prefix_cache
        #: execution tier for every simulated invocation (1 = whole-function
        #: compilation, 0 = the reference closure interpreter; ratings are
        #: bit-identical either way)
        self.exec_tier = exec_tier
        #: observability context (spans + metrics); the default NULL_OBS
        #: makes every instrumentation site a near-free no-op
        self.obs = obs_or_null(obs)

    # ------------------------------------------------------------------ #

    def profile(self, workload: Workload, dataset: str = "train") -> TSProfile:
        """Step 1: the profile run with the tuning input."""
        return profile_tuning_section(
            workload.ts,
            workload.profile_invocations(dataset, limit=self.profile_limit),
            self.machine,
            exec_tier=self.exec_tier,
        )

    def plan(self, workload: Workload, profile: TSProfile) -> RatingPlan:
        """Step 2: the Rating Approach Consultant."""
        return consult(
            workload.ts,
            profile,
            self.machine,
            pointer_seeds=workload.pointer_seeds,
        )

    def tune(
        self,
        workload: Workload,
        dataset: str = "train",
        method: str | None = None,
        flags: tuple[str, ...] | None = None,
    ) -> TuningResult:
        """Run the full tuning pipeline on *workload*.

        *method* forces a rating method ("CBR"/"MBR"/"RBR"/"WHL"/"AVG");
        the default lets the consultant choose.  *flags* restricts the
        searched option set (used by tests and ablations); the default
        searches all 38.
        """
        exec_counts = self._exec_cache_counts()
        profile = self.profile(workload, dataset)
        plan = self.plan(workload, profile)

        chosen = method if method is not None else plan.chosen
        if method is not None and method in ("CBR", "MBR"):
            if method == "CBR" and plan.context is None:
                raise ValueError(f"CBR forced but inapplicable for {workload.name}")
            if method == "MBR" and plan.component_model is None:
                raise ValueError(f"MBR forced but inapplicable for {workload.name}")

        from ..compiler.flags import ALL_FLAGS

        flag_names = flags if flags is not None else tuple(f.name for f in ALL_FLAGS)

        # the run root span: closed before collect_run so the whole tree is
        # in the tracer's roots when coverage is computed
        root = self.obs.span(
            "tune", "engine",
            workload=workload.name, machine=self.machine.name,
            dataset=dataset, method=chosen,
            search=type(self.search).__name__,
        )
        try:
            result, engine = self._search(workload, dataset, chosen, flag_names, plan)
        finally:
            root.end()
        self._collect(engine, exec_counts)

        return TuningResult(
            workload=workload.name,
            ts_name=workload.ts_name,
            machine=self.machine.name,
            dataset=dataset,
            method_requested=method,
            method_used=engine.method,
            methods_tried=engine.methods_tried,
            best_config=result.best_config,
            search=result,
            ledger=engine.ledger,
            plan=plan,
            n_versions_rated=engine.n_rated,
        )

    def _search(
        self,
        workload: Workload,
        dataset: str,
        chosen: str,
        flag_names: tuple[str, ...],
        plan: RatingPlan,
    ) -> tuple[SearchResult, SerialRatingEngine | BatchRatingEngine]:
        """Step 3 on the engine the constructor selected."""
        spec = EngineSpec(
            workload_name=workload.name,
            machine=self.machine,
            dataset=dataset,
            settings=self.settings,
            noise=self.noise,
            profile_limit=self.profile_limit,
            base_seed=self.seed,
            use_cache=self.use_version_cache,
            exec_tier=self.exec_tier,
            use_prefix_cache=self.use_prefix_cache,
        )
        if self.jobs is None:
            engine = SerialRatingEngine(
                spec, method=chosen, workload=workload, plan=plan, obs=self.obs
            )
            return self.search.search(engine, flag_names, OptConfig.o3()), engine
        with BatchRatingEngine(
            spec,
            method=chosen,
            workload=workload,
            plan=plan,
            jobs=self.jobs,
            backend=self.parallel_backend,
            obs=self.obs,
        ) as engine:
            return self.search.search(engine, flag_names, OptConfig.o3()), engine

    def _exec_cache_counts(self) -> tuple[int, int, int] | None:
        """The JIT executable cache's (hits, misses, evictions) so far; None
        at tier 0, which never uses it."""
        if self.exec_tier < 1:
            return None
        cache = global_executable_cache()
        return cache.hits, cache.misses, cache.evictions

    def _collect(
        self,
        engine: SerialRatingEngine | BatchRatingEngine,
        exec_counts: tuple[int, int, int] | None,
    ) -> None:
        """End-of-run metrics sweep (no-op with observability disabled).

        The executable cache is process-wide, so its traffic is reported
        as the difference from *exec_counts*, taken when the tune began.
        """
        if not self.obs.enabled:
            return
        collect_run(
            self.obs,
            ledger=engine.ledger,
            version_cache=engine.ctx.cache,
            prefix_cache=engine.ctx.prefix_cache,
            run_memo=engine.ctx.run_memo,
            replay_memo=engine.ctx.replay_memo,
        )
        if isinstance(engine, SerialRatingEngine):
            # batch tasks report their executors in their own metrics
            collect_executor(self.obs, engine.executor)
        if exec_counts is not None:
            hits, misses, evictions = (
                now - then
                for now, then in zip(self._exec_cache_counts(), exec_counts)
            )
            collect_cache(
                self.obs, "executable", hits=hits, misses=misses,
                evictions=evictions, size=len(global_executable_cache()),
            )


# --------------------------------------------------------------------------- #
# final performance measurement (Fig. 7(a)/(b) methodology)


def measure_whole_program(
    workload: Workload,
    config: OptConfig,
    machine: MachineConfig,
    dataset: str = "ref",
    *,
    runs: int = 3,
    seed: int = 1234,
    exec_tier: int = 1,
    inputs: InputReplay | None = None,
) -> float:
    """Mean whole-program time (cycles) of *config* on *dataset*.

    Every run replays the same input file.  When the version's invocations
    can be replayed (it is data-oblivious), they come from *inputs*, the
    :class:`~repro.core.rating.feed.InputReplay` of the dataset and *seed*
    (built here by default), as handles, and are replayed from a store
    that lives for this call: a replayed invocation builds no env, and
    nothing reads what one writes, since every hand-out gets fresh arrays.
    Every other invocation is simulated on inputs generated afresh by
    :meth:`Dataset.env`, so no input file is kept for it (nor when the
    replay is live).
    """
    version = compile_version(
        workload.ts, config, machine, program=workload.program
    )
    ds = workload.dataset(dataset)
    if inputs is None:
        inputs = InputReplay(ds.generator, ds.n_invocations, seed)
    elif (inputs.generator, inputs.n_per_run, inputs.seed) != (
        ds.generator, ds.n_invocations, seed
    ):
        raise ValueError("the replay belongs to a different dataset or seed")
    executor = create_executor(machine, exec_tier)
    exe, factors = version.exe, version.factors
    replay = (
        Store(REPLAY_MEMO_MAX)
        if executor.replayable(exe) and not inputs.live
        else None
    )
    totals = []
    for r in range(runs):
        rng = np.random.default_rng(seed)  # same input file every run
        total = ds.non_ts_cycles
        for i in range(ds.n_invocations):
            env = ds.env(rng, i) if replay is None else inputs.inputs(i)
            total += executor.run(exe, env, factors=factors, replay=replay).cycles
        totals.append(total)
    return float(np.mean(totals))


def evaluate_speedup(
    workload: Workload,
    tuned_config: OptConfig,
    machine: MachineConfig,
    dataset: str = "ref",
    *,
    runs: int = 2,
    seed: int = 1234,
    exec_tier: int = 1,
    measured: dict[tuple[str, ...], float] | None = None,
) -> float:
    """Percent improvement of *tuned_config* over ``-O3`` on *dataset*.

    This is the quantity plotted in Fig. 7(a)/(b): performance is always
    measured with the ref data set; tuning may have used train or ref.

    *measured*, when given, memoizes whole-program times by configuration
    key; the caller keeps one per (workload, machine, dataset, runs, seed),
    so each configuration is measured once.  Both measurements share one
    :class:`~repro.core.rating.feed.InputReplay`, which lives for this
    call.
    """
    ds = workload.dataset(dataset)
    inputs = InputReplay(ds.generator, ds.n_invocations, seed)

    def measure(config: OptConfig) -> float:
        if measured is not None and config.key() in measured:
            return measured[config.key()]
        t = measure_whole_program(workload, config, machine, dataset,
                                  runs=runs, seed=seed, exec_tier=exec_tier,
                                  inputs=inputs)
        if measured is not None:
            measured[config.key()] = t
        return t

    t_o3 = measure(OptConfig.o3())
    t_tuned = measure(tuned_config)
    if t_tuned <= 0:
        return 0.0
    return (t_o3 / t_tuned - 1.0) * 100.0
