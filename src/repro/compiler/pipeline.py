"""The compilation pipeline: IR passes + effect model -> Version.

``compile_version(fn, config, machine)`` is the reproduction's analogue of
invoking GCC on an extracted tuning-section file with a set of ``-f...``
options (paper Section 4.1): it clones the IR, runs the passes the enabled
flags select (in a fixed canonical order), validates the result, prices the
blocks through the effect model, and emits an executable version.

Two caches, each a :class:`~repro.store.Store`, make the search-space sweep
incremental:

* the *version cache* (``compile_version(..., cache=)``) memoizes whole
  compiles under :func:`version_key`, a digest of the tuning section's IR,
  the option set, the machine, and the surrounding program, so
  re-compiling a configuration the search has already visited (common in
  Iterative Elimination's re-probing, and across workers of the parallel
  evaluator) skips the pipeline entirely.  Concurrent compiles of one key
  are deduplicated: exactly one caller builds, the others wait and score
  a hit.

* the *pass-prefix cache* (``prefix_cache=``, see :mod:`.prefix`)
  memoizes the pipeline *per step*, keyed by the digest of the
  intermediate IR each step ran on.  A compile whose pass chain shares a
  prefix (or, after digests re-align, any suffix) with earlier compiles
  resumes from the deepest memoized snapshot and executes only the
  genuinely new steps — the incremental-compilation half of this module
  (see ``DESIGN.md`` §8).

Both key on the surrounding program through :func:`program_digest`, one
identity memo shared by the whole process, so each program is hashed once.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from ..analysis.manager import AnalysisManager
from ..ir.function import Function, Program
from ..ir.validate import validate_function
from ..machine.config import MachineConfig
from ..machine.executor import ExecutableFunction, compile_function
from ..obs import Obs, obs_or_null
from ..store import IdentityMemo, Store
from .effects import compute_costing
from .options import OptConfig
from .passes.base import PassTraits
from .passes.constprop import constant_propagation
from .passes.cse import common_subexpression_elimination
from .passes.dce import dead_code_elimination
from .passes.ifconv import if_conversion
from .passes.inline import inline_calls
from .passes.jumpthread import crossjump, thread_jumps
from .passes.licm import loop_invariant_code_motion
from .passes.peephole import peephole, strength_reduce
from .passes.unroll import unroll_loops
from .prefix import PrefixStats, _StepEntry, cached_ir_digest, ir_digest
from .version import Version

__all__ = [
    "compile_version",
    "effective_steps",
    "program_digest",
    "run_passes",
    "version_key",
    "version_keyer",
    "PASS_ORDER",
]


#: canonical pass order: (pass id, flag gating it)
PASS_ORDER: tuple[tuple[str, str], ...] = (
    ("inline", "inline-functions"),
    ("constprop", "cprop-registers"),
    ("peephole", "peephole2"),
    ("jumpthread", "thread-jumps"),
    ("crossjump", "crossjumping"),
    ("cse-local", "cse-follow-jumps"),
    ("gcse", "gcse"),
    ("licm", "loop-optimize"),
    ("cse-rerun", "rerun-cse-after-loop"),
    ("strength", "strength-reduce"),
    ("unroll", "rerun-loop-opt"),
    ("ifconv", "if-conversion"),
    ("dce", "expensive-optimizations"),
)


def effective_steps(config: OptConfig, *, has_program: bool = False) -> tuple[str, ...]:
    """The canonical step tokens *config* actually executes.

    Config-gated pure no-ops are excluded (local CSE when ``gcse`` subsumes
    it; the CSE rerun when no CSE family member is on; inlining without a
    surrounding program), and config-dependent variants are encoded in the
    token (``cse-rerun:g`` vs ``cse-rerun:l``), so a step token fully
    determines the transformation applied — the property the pass-prefix
    cache keys on.
    """
    steps: list[str] = []
    for pass_id, flag in PASS_ORDER:
        if flag not in config:
            continue
        if pass_id == "inline" and not has_program:
            continue
        if pass_id == "cse-local" and "gcse" in config:
            continue  # gcse subsumes local CSE
        if pass_id == "cse-rerun":
            if "gcse" in config:
                steps.append("cse-rerun:g")
            elif "cse-follow-jumps" in config:
                steps.append("cse-rerun:l")
            continue
        steps.append(pass_id)
    return tuple(steps)


def _apply_step(
    step: str,
    fn: Function,
    program: Program | None,
    am: AnalysisManager | None,
) -> bool:
    """Execute one step token in place; return whether the IR changed."""
    if step == "inline":
        assert program is not None  # excluded by effective_steps otherwise
        return inline_calls(fn, program)
    if step == "constprop":
        return constant_propagation(fn)
    if step == "peephole":
        return peephole(fn)
    if step == "jumpthread":
        return thread_jumps(fn)
    if step == "crossjump":
        return crossjump(fn)
    if step == "cse-local":
        return common_subexpression_elimination(fn, global_scope=False)
    if step == "gcse":
        return common_subexpression_elimination(fn, global_scope=True)
    if step == "licm":
        return loop_invariant_code_motion(fn, am)
    if step == "cse-rerun:g":
        return common_subexpression_elimination(fn, global_scope=True)
    if step == "cse-rerun:l":
        return common_subexpression_elimination(fn, global_scope=False)
    if step == "strength":
        return strength_reduce(fn)
    if step == "unroll":
        return unroll_loops(fn, am)
    if step == "ifconv":
        return if_conversion(fn)
    if step == "dce":
        return dead_code_elimination(fn, am)
    raise ValueError(f"unknown step {step!r}")  # pragma: no cover


#: what each step mutates / preserves (from the pass's declaration)
_STEP_TRAITS: dict[str, PassTraits] = {
    "inline": inline_calls.traits,
    "constprop": constant_propagation.traits,
    "peephole": peephole.traits,
    "jumpthread": thread_jumps.traits,
    "crossjump": crossjump.traits,
    "cse-local": common_subexpression_elimination.traits,
    "gcse": common_subexpression_elimination.traits,
    "cse-rerun:g": common_subexpression_elimination.traits,
    "cse-rerun:l": common_subexpression_elimination.traits,
    "licm": loop_invariant_code_motion.traits,
    "strength": strength_reduce.traits,
    "unroll": unroll_loops.traits,
    "ifconv": if_conversion.traits,
    "dce": dead_code_elimination.traits,
}


def _run_pipeline(
    fn: Function,
    config: OptConfig,
    *,
    program: Program | None = None,
    checked: bool = False,
    prefix_cache: Store[_StepEntry] | None = None,
    prefix_stats: PrefixStats | None = None,
    obs: Obs | None = None,
) -> tuple[Function, AnalysisManager, _StepEntry | None]:
    """Run the pipeline.

    Returns the transformed copy, its analysis manager (warm for whatever
    the last steps computed), and — when a prefix cache is in play — the
    memo entry whose snapshot equals the final IR (the last *changing*
    step; later no-op steps leave the IR untouched).  ``compile_version``
    enriches that entry with post-costing analyses and a validation mark.
    """
    obs = obs_or_null(obs)
    steps = effective_steps(config, has_program=program is not None)

    hit_depth = 0
    resume_from: _StepEntry | None = None
    if prefix_cache is not None:
        context = program_digest(program)

        # chain walk: follow memoized steps from the pristine IR's digest,
        # remembering the deepest materialized snapshot along the way
        cur = cached_ir_digest(fn)
        for step in steps:
            entry = prefix_cache.get((context, cur, step))
            if entry is None:
                break
            cur = entry.out_digest
            hit_depth += 1
            if entry.snapshot is not None:
                resume_from = entry

        if prefix_stats is not None:
            prefix_stats.compiles += 1
            prefix_stats.steps_total += len(steps)
            prefix_stats.steps_saved += hit_depth
            prefix_stats.steps_run += len(steps) - hit_depth
            if steps and hit_depth == len(steps):
                prefix_stats.full_hits += 1

        # annotate the enclosing compile span with the resume depth
        enclosing = obs.tracer.current()
        if enclosing is not None:
            enclosing.attrs["steps"] = len(steps)
            enclosing.attrs["resumed"] = hit_depth

    if resume_from is not None:
        # all steps between the snapshot and hit_depth were no-ops, so the
        # snapshot *is* the IR state at the resume point
        out = resume_from.snapshot.copy()
        am = AnalysisManager.resume(out, resume_from.analyses)
    else:
        out = fn.copy()
        am = AnalysisManager(out)

    owner = resume_from
    for step in steps[hit_depth:]:
        before = out.ir_stamp
        with obs.span(f"pass.{step}", "compiler") as sp:
            changed = _apply_step(step, out, program, am)
            sp.set("changed", changed)
        if changed and out.ir_stamp == before:
            # the pass did not self-report its mutations; commit for it
            traits = _STEP_TRAITS[step]
            am.commit(traits.mutates, traits.preserves)
        if checked:
            # validate before memoizing: an invalid intermediate state must
            # never be served to a later compile
            validate_function(out)
        if prefix_cache is None:
            continue
        step_in = cur
        if changed:
            cur = ir_digest(out)
            entry = _StepEntry(cur, out.copy(), am.export())
            owner = entry
        else:
            entry = _StepEntry(step_in, None, None)
        # a concurrent compile may have landed this row first: keep its row
        prefix_cache.put((context, step_in, step), entry)
    return out, am, owner


def run_passes(
    fn: Function,
    config: OptConfig,
    *,
    program: Program | None = None,
    checked: bool = False,
    prefix_cache: Store[_StepEntry] | None = None,
    prefix_stats: PrefixStats | None = None,
    obs: Obs | None = None,
) -> Function:
    """Apply the passes enabled by *config* (in canonical order) to a copy.

    With *prefix_cache*, shared step chains are resumed from memoized IR
    snapshots instead of re-executed; the result is bit-identical either
    way (enforced by ``tests/compiler/test_incremental_differential.py``).
    """
    out, _, _ = _run_pipeline(
        fn,
        config,
        program=program,
        checked=checked,
        prefix_cache=prefix_cache,
        prefix_stats=prefix_stats,
        obs=obs,
    )
    return out


# --------------------------------------------------------------------------- #
# content-addressed version cache


def _hash_program(program: Program) -> str:
    h = hashlib.sha256()
    for name in sorted(program.functions):
        h.update(name.encode())
        h.update(str(program.functions[name]).encode())
    return h.hexdigest()


#: program digests by identity; programs are treated as immutable, which
#: holds for the tuning pipeline (passes always transform copies)
_shared_program_digests = IdentityMemo(_hash_program, max_entries=256)


def program_digest(program: Program | None) -> str:
    """Content digest of the surrounding program (``"-"`` for none)."""
    return "-" if program is None else _shared_program_digests(program)


def version_key(
    fn: Function,
    config: OptConfig,
    machine: MachineConfig,
    *,
    program: Program | None = None,
    checked: bool = True,
) -> str:
    """Content hash identifying one ``compile_version`` outcome.

    The digest covers the tuning section's rendered IR, the enabled option
    set, every machine parameter (``repr`` of the frozen config), the
    surrounding program (inlining sources and callee compilation), and the
    ``checked`` flag.  Two calls with equal keys produce behaviourally
    identical versions.
    """
    return version_keyer(fn, machine, program=program, checked=checked)(config)


def version_keyer(
    fn: Function,
    machine: MachineConfig,
    *,
    program: Program | None = None,
    checked: bool = True,
) -> Callable[[OptConfig], str]:
    """:func:`version_key` of *fn*, *machine*, *program* and *checked* as a
    function of the configuration.

    The rendered IR, the machine and the program digest are rendered and
    hashed once, here, so neither *fn* nor *program* may change while the
    function is in use (a rating context holds one per tuning section).
    """
    head = hashlib.sha256()
    head.update(str(fn).encode())
    head.update(b"\x00")
    tail = b"\x00".join((
        b"", repr(machine).encode(), program_digest(program).encode(),
        b"1" if checked else b"0",
    ))

    def key(config: OptConfig) -> str:
        h = head.copy()
        h.update("\x1f".join(config.key()).encode())
        h.update(tail)
        return h.hexdigest()

    return key


def compile_version(
    fn: Function,
    config: OptConfig,
    machine: MachineConfig,
    *,
    program: Program | None = None,
    checked: bool = True,
    cache: Store[Version] | None = None,
    prefix_cache: Store[_StepEntry] | None = None,
    prefix_stats: PrefixStats | None = None,
    obs: Obs | None = None,
) -> Version:
    """Compile tuning section *fn* under *config* for *machine*.

    With *cache*, the compile is served from / recorded into that version
    store under :func:`version_key`.  With *prefix_cache*, a cache miss
    resumes the pass pipeline from the deepest memoized IR snapshot
    instead of starting cold.
    """
    if cache is not None:
        version, _ = cache.get_or_build(
            version_key(fn, config, machine, program=program, checked=checked),
            lambda: _compile_uncached(
                fn, config, machine, program=program, checked=checked,
                prefix_cache=prefix_cache, prefix_stats=prefix_stats, obs=obs,
            ),
        )
        return version
    return _compile_uncached(
        fn, config, machine, program=program, checked=checked,
        prefix_cache=prefix_cache, prefix_stats=prefix_stats, obs=obs,
    )


def _compile_uncached(
    fn: Function,
    config: OptConfig,
    machine: MachineConfig,
    *,
    program: Program | None = None,
    checked: bool = True,
    prefix_cache: Store[_StepEntry] | None = None,
    prefix_stats: PrefixStats | None = None,
    obs: Obs | None = None,
) -> Version:
    obs = obs_or_null(obs)
    with obs.span("compile", "compiler", fn=fn.name, flags=len(config.key())):
        return _compile_spanned(
            fn, config, machine, program=program, checked=checked,
            prefix_cache=prefix_cache, prefix_stats=prefix_stats, obs=obs,
        )


def _compile_spanned(
    fn: Function,
    config: OptConfig,
    machine: MachineConfig,
    *,
    program: Program | None,
    checked: bool,
    prefix_cache: Store[_StepEntry] | None,
    prefix_stats: PrefixStats | None,
    obs: Obs,
) -> Version:
    transformed, am, owner = _run_pipeline(
        fn,
        config,
        program=program,
        checked=False,
        prefix_cache=prefix_cache,
        prefix_stats=prefix_stats,
        obs=obs,
    )
    if checked and not (owner is not None and owner.validated):
        # a marked owner snapshot is bit-identical IR a previous checked
        # compile already validated
        validate_function(
            transformed,
            known_functions=set(program.functions) if program else None,
        )
    costing = compute_costing(transformed, config, machine, am=am)
    if owner is not None:
        # write the analyses costing just computed back into the memo row:
        # the next compile resuming from this snapshot prices with them warm
        # (stamps stay consistent — no step after the owner changed the IR)
        owner.analyses = am.export()
        if checked:
            owner.validated = True
    resolved_callees: dict[str, ExecutableFunction] = {}
    if program is not None:
        # compile remaining callees (un-inlined calls) at -O3-equivalent
        from ..ir.stmt import CallStmt

        needed = {
            s.fn
            for blk in transformed.cfg.blocks.values()
            for s in blk.stmts
            if isinstance(s, CallStmt)
        }
        for name in needed:
            callee_fn = program.functions.get(name)
            if callee_fn is not None and name != fn.name:
                resolved_callees[name] = compile_function(callee_fn, machine)
    exe = compile_function(
        transformed,
        machine,
        block_compute_cycles=costing.block_compute,
        block_spill_cycles=costing.block_spill,
        callees=resolved_callees,
    )
    return Version(
        ts_name=fn.name,
        config=config,
        machine_name=machine.name,
        exe=exe,
        factors=costing.factors,
        ir=transformed,
        code_size=costing.code_size,
        block_spill=costing.block_spill,
    )
