"""Parallel candidate evaluation: fan independent rating tasks over a pool.

The search algorithms emit *batches* of mutually independent candidate
configurations (see :mod:`.base`).  :class:`ParallelEvaluator` is the
executor underneath: it maps a task function over a batch using a
``concurrent.futures`` pool — process-backed for true multi-core scaling
(the simulated machine is CPU-bound pure Python), thread-backed when the
task context cannot cross a process boundary, or inline for ``jobs=1``.

Determinism contract
--------------------
Results are always returned in **submission order**, regardless of which
worker finishes first, and the evaluator never splits or reorders a task.
Reproducibility across ``jobs`` settings is therefore the task *producer's*
responsibility: the batch rating engine derives every task's RNG seed from
``(base_seed, task_id)`` with task ids assigned at submission time, so the
same tuning run fans out to the same per-task seeds whether it runs on one
worker or sixteen.  RBR's A/B re-execution pairs are a single task and thus
stay pinned to one worker, preserving its ordering-bias cancellation.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Sequence

__all__ = ["ParallelEvaluator", "resolve_jobs"]

BACKENDS = ("auto", "serial", "thread", "process")


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be positive (got {jobs})")
    return jobs


class ParallelEvaluator:
    """Maps task functions over batches of independent tasks.

    Parameters
    ----------
    jobs:
        worker count; ``None``/``0`` uses every core, ``1`` runs inline.
    backend:
        ``"process"`` (true parallelism; the task function must be a
        picklable module-level callable), ``"thread"`` (shared-memory
        context; GIL-bound for pure-Python work), ``"serial"`` (inline),
        or ``"auto"`` (process when ``jobs > 1``, else serial).
    initializer / initargs:
        per-worker setup for the process backend (builds the worker-local
        rating context); ignored by the serial and thread backends, whose
        tasks close over shared state directly.
    """

    def __init__(
        self,
        *,
        jobs: int | None = 1,
        backend: str = "auto",
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (choose from {BACKENDS})"
            )
        self.jobs = resolve_jobs(jobs)
        if backend == "auto":
            backend = "process" if self.jobs > 1 else "serial"
        if self.jobs == 1:
            backend = "serial"
        self.backend = backend
        self._initializer = initializer
        self._initargs = initargs
        self._pool: Executor | None = None

    # ------------------------------------------------------------------ #

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            if self.backend == "thread":
                self._pool = ThreadPoolExecutor(
                    max_workers=self.jobs, thread_name_prefix="rate"
                )
            elif self.backend == "process":
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=self._initializer,
                    initargs=self._initargs,
                )
            else:  # pragma: no cover - serial never builds a pool
                raise RuntimeError("serial evaluator has no pool")
        return self._pool

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        """Run ``fn`` over *tasks*; results come back in submission order."""
        tasks = list(tasks)
        if not tasks:
            return []
        if self.backend == "serial":
            return [fn(t) for t in tasks]
        pool = self._ensure_pool()
        futures = [pool.submit(fn, t) for t in tasks]
        return [f.result() for f in futures]

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ParallelEvaluator backend={self.backend} jobs={self.jobs}>"

