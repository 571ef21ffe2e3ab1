"""Experiments E3–E6 — Fig. 7: performance improvement and tuning time.

For each tuned benchmark (SWIM, MGRID, ART, EQUAKE — the paper's Section 5.2
selection) on each machine, every applicable rating method plus the WHL and
AVG baselines drives a full Iterative Elimination tuning run; we record:

* the performance improvement of the tuned configuration over ``-O3``,
  always measured with the ref data set (Fig. 7(a)/(b)); the tuning itself
  uses the train data set (left bars) and, optionally, the ref data set
  (right bars);
* the total tuning time from the ledger, normalised by the WHL approach's
  tuning time on the same benchmark/machine/dataset (Fig. 7(c)/(d)).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compiler.options import OptConfig
from ..core.peak import PeakTuner, evaluate_speedup
from ..core.rating.base import RatingSettings
from ..machine.config import MachineConfig
from ..workloads import get_workload
from ..workloads.base import Workload

__all__ = ["Figure7Entry", "figure7_experiment", "methods_for"]

#: the benchmarks the paper tunes in Section 5.2
TUNED = ("swim", "mgrid", "art", "equake")


@dataclass
class Figure7Entry:
    """One bar of Fig. 7: benchmark × machine × rating method × dataset."""

    benchmark: str
    machine: str
    method: str           # CBR / MBR / RBR / WHL / AVG
    dataset: str          # tuning dataset: "train" or "ref"
    improvement_pct: float
    tuning_cycles: float
    normalized_tuning_time: float = float("nan")  # vs WHL, filled in later
    best_config: OptConfig | None = None
    methods_tried: tuple[str, ...] = ()
    #: True when this method is the one the PEAK consultant suggested
    suggested: bool = False


def methods_for(
    workload: Workload, machine: MachineConfig, *, seed: int = 0, exec_tier: int = 1
) -> tuple[list[str], str]:
    """Applicable rating methods for the workload (paper: "IF CBR is
    applicable, then MBR is also applicable; if MBR is applicable, RBR is
    also applicable" — our consultant computes the actual list) plus the
    WHL and AVG comparison methods, and the consultant's suggestion.
    *exec_tier* runs the profile; every tier gives the same answer."""
    tuner = PeakTuner(machine, seed=seed, profile_limit=60, exec_tier=exec_tier)
    profile = tuner.profile(workload)
    plan = tuner.plan(workload, profile)
    return list(plan.applicable) + ["WHL", "AVG"], plan.chosen


def figure7_experiment(
    machine: MachineConfig,
    *,
    benchmarks: tuple[str, ...] = TUNED,
    datasets: tuple[str, ...] = ("train", "ref"),
    seed: int = 1,
    settings: RatingSettings = RatingSettings(),
    eval_runs: int = 1,
    exec_tier: int = 1,
) -> list[Figure7Entry]:
    """Run the Fig. 7 experiment for one machine.

    Returns one entry per (benchmark, method, dataset) with improvement and
    normalised tuning time filled in.  Honouring the paper's methodology,
    *performance is always measured on ref*, whichever dataset tuned, and
    each distinct configuration once per benchmark.  *exec_tier* selects
    the simulated-execution tier; every tier gives bit-identical entries.
    """
    entries: list[Figure7Entry] = []
    for bench in benchmarks:
        workload = get_workload(bench)
        methods, chosen = methods_for(workload, machine, seed=seed, exec_tier=exec_tier)
        whl_cycles: dict[str, float] = {}
        bench_entries: list[Figure7Entry] = []
        # ref times by configuration: -O3 and a configuration several
        # methods chose are measured once per benchmark
        measured: dict[tuple[str, ...], float] = {}
        for dataset in datasets:
            for method in methods:
                tuner = PeakTuner(machine, seed=seed, settings=settings,
                                  profile_limit=60, exec_tier=exec_tier)
                result = tuner.tune(workload, dataset=dataset, method=method)
                improvement = evaluate_speedup(
                    workload, result.best_config, machine,
                    dataset="ref", runs=eval_runs, exec_tier=exec_tier,
                    measured=measured,
                )
                entry = Figure7Entry(
                    benchmark=bench,
                    machine=machine.name,
                    method=method,
                    dataset=dataset,
                    improvement_pct=improvement,
                    tuning_cycles=result.tuning_cycles,
                    best_config=result.best_config,
                    methods_tried=tuple(result.methods_tried),
                    suggested=(method == chosen),
                )
                bench_entries.append(entry)
                if method == "WHL":
                    whl_cycles[dataset] = result.tuning_cycles
        for e in bench_entries:
            base = whl_cycles.get(e.dataset)
            if base:
                e.normalized_tuning_time = e.tuning_cycles / base
        entries.extend(bench_entries)
    return entries
