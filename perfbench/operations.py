"""The benchmark's operations: one ``repro tune`` each, checked against a record.

An operation is a full PEAK tune followed by the Fig. 7(a)/(b) measurement
of the tuned configuration on ``ref``::

    result = PeakTuner(machine, ...).tune(workload, method=...)
    improvement = evaluate_speedup(workload, result.best_config, machine, ...)

Workloads (``manifest.json``) list their operations; :func:`output_record`
reduces one outcome to the facts the committed expected record pins.
Every operation starts from cold process-wide caches, as a fresh
``repro tune`` process would.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler import pipeline
from repro.compiler.flags import ALL_FLAGS
from repro.core.peak import PeakTuner, TuningResult, evaluate_speedup
from repro.experiments.figure7 import methods_for
from repro.machine import codegen, jit
from repro.machine.config import machine_by_name
from repro.workloads import get_workload

__all__ = ["Operation", "load_operations", "output_record", "reset_process_caches",
           "run_operation"]


@dataclass(frozen=True)
class Operation:
    """One tune + ref evaluation, as listed in the manifest."""

    benchmark: str
    machine: str
    #: forced rating method; None lets the consultant choose
    method: str | None
    #: None = the serial engine; an int = the batch engine on that many
    #: process-pool workers (version and prefix caches on)
    jobs: int | None
    profile_limit: int | None
    #: whole-program ``ref`` runs per configuration in ``evaluate_speedup``
    eval_runs: int

    @property
    def label(self) -> str:
        engine = "serial" if self.jobs is None else f"jobs={self.jobs}"
        return f"{self.benchmark}/{self.machine}/{self.method or 'auto'}/{engine}"


def load_operations(manifest: dict, workload: str, *, tune_seed: int) -> list[Operation]:
    """The workload's operations; a Fig. 7 workload's method list is
    re-derived with ``methods_for`` and must equal the manifest's."""
    spec = manifest["workloads"][workload]
    ops = [Operation(**op) for op in spec["operations"]]
    if spec.get("protocol") == "fig7":
        for bench, machine in sorted({(op.benchmark, op.machine) for op in ops}):
            methods, _ = methods_for(
                get_workload(bench), machine_by_name(machine), seed=tune_seed
            )
            listed = [op.method for op in ops
                      if (op.benchmark, op.machine) == (bench, machine)]
            if listed != methods:
                raise ValueError(
                    f"{workload}: manifest lists methods {listed} for {bench} on "
                    f"{machine}, but methods_for returns {methods}"
                )
    return ops


def reset_process_caches() -> None:
    """Empty the process-wide memos a fresh ``repro tune`` process starts without."""
    jit.global_executable_cache().clear()
    codegen._CODE_MEMO.clear()
    pipeline._shared_program_digests.clear()


def run_operation(
    op: Operation, *, tune_seed: int, exec_tier: int
) -> tuple[TuningResult, float]:
    """Tune and evaluate; returns the tuning result and ``improvement_pct``."""
    workload = get_workload(op.benchmark)
    machine = machine_by_name(op.machine)
    tuner = PeakTuner(
        machine,
        seed=tune_seed,
        profile_limit=op.profile_limit,
        jobs=op.jobs,
        parallel_backend="auto" if op.jobs is None else "process",
        exec_tier=exec_tier,
    )
    result = tuner.tune(workload, method=op.method)
    improvement = evaluate_speedup(
        workload, result.best_config, machine, runs=op.eval_runs, exec_tier=exec_tier
    )
    return result, improvement


def output_record(op: Operation, result: TuningResult, improvement: float) -> dict:
    """The facts of one operation the expected record pins exactly."""
    ledger = result.ledger
    return {
        "operation": op.label,
        "disabled_flags": sorted(
            {f.name for f in ALL_FLAGS} - set(result.best_config.enabled)
        ),
        "method_used": result.method_used,
        "methods_tried": list(result.methods_tried),
        "n_ratings": result.search.n_ratings,
        "total_cycles": ledger.total_cycles,
        "invocations": ledger.invocations,
        "program_runs": ledger.program_runs,
        "improvement_pct": improvement,
    }
