"""Pass-prefix IR cache: incremental compilation across the search space.

Automatic tuning compiles the *same* tuning section hundreds of times under
option sets that differ by a flag or two (Iterative Elimination flips one
flag per probe; Combined Elimination re-probes shrinking candidate sets).
Each such pair of configurations runs an identical *prefix* of the canonical
pass pipeline over identical IR — recomputing, statement for statement, work
another compile already did.

This module memoizes the pipeline **per step** rather than per prefix tuple:

    (input-IR digest, step token) -> output-IR digest [+ snapshot, analyses]

Resuming is a *chain walk*: starting from the digest of the pristine tuning
section, follow memoized steps as long as they hit, then restore the deepest
materialized snapshot and execute only the remaining steps.  Keying each
step by its **input digest** (not by the prefix that produced it) buys more
than prefix reuse — it buys *re-convergence*: if config B drops a pass that
was a no-op on this kernel, B's digest chain re-aligns with A's immediately
after the dropped step and every later step hits too.  Effect-only flags
(most of the paper's 38) do not gate passes at all, so configs differing
only in them share the entire chain.

Steps whose pass reported no change are stored without a snapshot (output
digest == input digest): skipping them on resume costs nothing and stores
nothing but the memo row.  Snapshots carry the function's mutation stamp and
an export of the analysis cache (see :mod:`repro.analysis.manager`), so a
resumed compile continues with warm analyses.  The row whose snapshot is a
compile's final IR — the last changing step, or ``(digest, PRISTINE)``
when no step changes the section — also carries that IR's cost facts per
machine object and a validation mark, and its snapshot is shared as the
IR of every version compiled to it, so it is never mutated.

The memo is a :class:`~repro.store.Store` of :class:`_StepEntry` rows,
bounded at :data:`PREFIX_CACHE_MAX`.  A pass reads nothing but the IR
itself (machine and effect-only options never reach the pipeline), so one
store is safely shared across every configuration, machine and
worker thread of a tuning run.  The store keeps the first row written
under a key, because that is the row a compile enriches and shares.

The correctness bar is exact: a resumed compile must produce a bit-identical
:class:`~repro.compiler.version.Version` to a cold one.  That is why
:func:`ir_digest` hashes the *mutable* IR state at full fidelity — including
block-dictionary insertion order and local-declaration order, both of which
passes can observe (``fresh_label``/``fresh_name`` scan them; analyses
iterate them) and both of which ``str(fn)`` masks (it renders blocks in RPO
and sorts locals).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from ..ir.function import Function
from ..machine.config import MachineConfig
from ..store import IdentityMemo
from .effects import CostFacts

__all__ = ["PREFIX_CACHE_MAX", "PrefixStats", "ir_digest"]

#: bound of a tuning run's pass-prefix store (rows of ``_StepEntry``)
PREFIX_CACHE_MAX = 4096

#: step token of the pristine section's own row, ``(digest, PRISTINE)``:
#: the IR of every compile whose steps all leave the section unchanged
PRISTINE = ""


def ir_digest(fn: Function) -> str:
    """Full-fidelity content digest of a function's mutable IR state.

    Two functions with equal digests behave identically under every pass in
    the pipeline: the digest covers the header (name, parameters, return
    type), local declarations **in insertion order**, the entry label, and
    every block **in dictionary insertion order** with ``repr``-exact
    statements and terminator (``repr`` distinguishes ``Const(1)`` from
    ``Const(1.0)``; ``str`` forms may not).
    """
    h = hashlib.sha256()
    h.update(fn.name.encode())
    h.update(b"\x00")
    for p in fn.params:
        h.update(f"{p.name}:{p.type.value}".encode())
        h.update(b"\x1f")
    h.update(b"\x00")
    for name, ty in fn.locals.items():
        h.update(f"{name}:{ty.value}".encode())
        h.update(b"\x1f")
    h.update(b"\x00")
    h.update((fn.return_type.value if fn.return_type is not None else "-").encode())
    h.update(b"\x00")
    h.update(fn.cfg.entry.encode())
    h.update(b"\x00")
    for label, blk in fn.cfg.blocks.items():
        h.update(label.encode())
        h.update(b"\x1e")
        for s in blk.stmts:
            h.update(repr(s).encode())
            h.update(b"\x1f")
        h.update(repr(blk.terminator).encode())
        h.update(b"\x1d")
    return h.hexdigest()


#: IR digests memoized by function identity and mutation stamp
_ir_digests = IdentityMemo(ir_digest, max_entries=512)


def cached_ir_digest(fn: Function) -> str:
    """:func:`ir_digest`, memoized by object identity and mutation stamp.

    The pristine tuning section is digested once per compile; across a
    sweep that is hundreds of identical digests of the same object.  The
    memo key carries the function's ``(cfg_version, stmt_version)`` stamp,
    so it is safe for any function that honours the bump-on-mutate
    contract — which every pipeline pass does (passes transform copies and
    bump the copy).
    """
    return _ir_digests(fn, fn.cfg_version, fn.stmt_version)


@dataclass
class PrefixStats:
    """Per-compile prefix-cache accounting (absorbed into the ledger).

    One instance is threaded through :func:`~repro.compiler.pipeline.
    compile_version` per rating task so accounting stays hermetic across
    thread/process evaluator backends.
    """

    #: compiles routed through the prefix cache
    compiles: int = 0
    #: compiles whose entire step chain was served from the memo
    full_hits: int = 0
    #: pipeline steps across all compiles (length of the effective chains)
    steps_total: int = 0
    #: steps skipped because the chain walk hit the memo
    steps_saved: int = 0
    #: steps actually executed
    steps_run: int = 0

    def merge(self, other: "PrefixStats") -> None:
        self.compiles += other.compiles
        self.full_hits += other.full_hits
        self.steps_total += other.steps_total
        self.steps_saved += other.steps_saved
        self.steps_run += other.steps_run


@dataclass
class _StepEntry:
    """Memoized outcome of running one step on one input-IR state (or,
    under ``PRISTINE``, the pristine section itself)."""

    out_digest: str
    #: snapshot of the IR *after* the step, or None when the step was a
    #: no-op on this input (out_digest == input digest; nothing to restore)
    snapshot: Function | None
    #: analysis-cache export taken beside the snapshot (stamps match it)
    analyses: dict[str, Any] | None
    #: True once a ``checked`` compile has validated this snapshot — later
    #: compiles of the identical IR may skip re-validation
    validated: bool = False
    #: ``(machine, CostFacts)`` of the snapshot per machine object priced
    #: so far: every later compile that lands on this IR reuses them
    costs: tuple[tuple[MachineConfig, CostFacts], ...] = ()
