"""Per-layer spans recorded from outside the program.

:class:`LayerTrace` wraps the public entry point of each layer with a span
that records its parent span, its duration and its *self* time (duration
minus the time its child spans cover).  Wrappers are installed for the
duration of a ``with`` block and removed afterwards, so untraced runs execute
the unmodified program.

Functions that other modules import by name (``compile_version``,
``profile_tuning_section``, ``consult``, ...) are replaced in every loaded
``repro`` module that holds them, not only where they are defined.

Spans exist only in the process that installs them: work done inside a
process pool's workers is invisible here.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from functools import wraps

__all__ = ["LayerTrace", "SPAN_TARGETS"]

#: (module, attribute path, span name, outermost call only)
SPAN_TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("repro.machine.executor", "Executor.run", "machine.execute", True),
    ("repro.machine.profiler", "profile_tuning_section", "machine.profile", False),
    ("repro.compiler.pipeline", "compile_version", "compiler.compile", False),
    ("repro.runtime.instrument", "TimedExecutor.invoke", "runtime.invoke", False),
    ("repro.runtime.instrument", "TimedExecutor.run_untimed", "runtime.invoke", False),
    ("repro.runtime.save_restore", "SaveRestorePlan.save", "runtime.save_restore", False),
    ("repro.runtime.save_restore", "SaveRestorePlan.restore", "runtime.save_restore", False),
    ("repro.runtime.save_restore", "SaveRestorePlan.observe_writes",
     "runtime.save_restore", False),
    ("repro.core.rating.feed", "InvocationFeed.next_env", "core.rating.feed", False),
    ("repro.core.rating.cbr", "ContextBasedRating.rate", "core.rating.rate", False),
    ("repro.core.rating.mbr", "ModelBasedRating.rate", "core.rating.rate", False),
    ("repro.core.rating.rbr", "ReExecutionRating.rate_pair", "core.rating.rate", False),
    ("repro.core.rating.baselines", "WholeProgramRating.rate", "core.rating.rate", False),
    ("repro.core.rating.baselines", "AverageRating.rate", "core.rating.rate", False),
    ("repro.core.rating.consultant", "consult", "core.rating.consult", False),
    ("repro.core.search.iterative_elimination", "IterativeElimination.search",
     "core.search", False),
    ("repro.core.peak", "measure_whole_program", "core.peak.evaluate", False),
    ("repro.core.engine", "BatchRatingEngine.rate_many", "core.engine.batch", False),
)

class LayerTrace:
    """Span statistics per layer: calls, total seconds and self seconds."""

    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: (parent span name or None, span name) -> calls
        self.edges: Counter = Counter()
        #: (candidate, reference) pairs passed to BatchRatingEngine.rate_many
        self.engine_tasks = 0
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #

    def _wrap(self, name: str, fn, outermost: bool):
        stack = self._stack
        stats = self.stats
        edges = self.edges
        clock = time.perf_counter

        @wraps(fn)
        def spanned(*args, **kwargs):
            if outermost and any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            if name == "core.engine.batch":  # rate_many(self, pairs)
                self.engine_tasks += len(args[1])
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                s = stats.setdefault(name, [0, 0.0, 0.0])
                s[0] += 1
                s[1] += dur
                s[2] += dur - frame[1]
                edges[(parent, name)] += 1

        return spanned

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    # -- installation --------------------------------------------------- #

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "LayerTrace":
        for module_name, path, name, outermost in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, attr, self._wrap(name, cls.__dict__[attr], outermost))
                continue
            original = getattr(module, path)
            spanned = self._wrap(name, original, outermost)
            # every module that imported the function by name holds its own
            # reference: replace each one
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.partition(".")[0] != "repro":
                    continue
                if mod.__dict__.get(path) is original:
                    self._set(mod, path, spanned)
        return self

    def __exit__(self, *exc: object) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
