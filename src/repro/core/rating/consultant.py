"""The Rating Approach Consultant (paper Sections 3 and 4.2, Fig. 5).

From the compile-time analyses and a profile run with the tuning input, the
consultant annotates a tuning section with its applicable rating methods and
picks the initial one: "our compiler picks the initial rating approach for
each tuning section in the order of CBR, MBR, and RBR, if they are
applicable", choosing "the applicable rating approach with the least
overhead estimated from the profile".

Applicability rules implemented:

* **CBR** — the Fig. 1 analysis succeeds (all control-influencing inputs
  scalar) *and* the profile shows a workable number of contexts with enough
  same-context invocations to average over ("typically 10s of times").
  With too many contexts CBR stays *applicable* but is not *chosen* (the
  paper's MGRID_CBR case: legal but slow).
* **MBR** — the component model from the profile has few enough components
  for the regression to converge quickly ("if there are many components...
  MBR would lead to a long tuning time ... and so is not applied").
* **RBR** — applicable to any TS without side-effecting library calls; our
  IR's intrinsics are all pure, so RBR is always applicable (the paper's
  malloc/rand/IO exclusions have no analogue here — see DESIGN.md).

At tuning time, if the active method fails to converge within its
invocation budget, the engine *switches* to the next applicable method
(``next_method``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ...analysis.components import ComponentModel, build_components
from ...analysis.context import ContextAnalysis, analyze_context, context_key
from ...analysis.runtime_const import refine_context
from ...ir.function import Function
from ...machine.config import MachineConfig
from ...machine.profiler import TSProfile
from ...runtime.counters import instrument_counters
from ...runtime.instrument import TimedExecutor
from ...store import Store
from .base import RatingSettings
from .baselines import AverageRating, WholeProgramRating
from .cbr import ContextBasedRating
from .mbr import ModelBasedRating

__all__ = ["ConsultantLimits", "RatingPlan", "consult"]


@dataclass(frozen=True)
class ConsultantLimits:
    """Thresholds for method choice."""

    #: choose CBR only when the profile shows at most this many contexts
    max_contexts_for_cbr: int = 8
    #: ... and the dominant context repeats at least this often per run
    min_invocations_per_context: int = 10
    #: MBR is applicable up to this many variable components
    max_components_for_mbr: int = 4


@dataclass
class RatingPlan:
    """Everything the tuning engine needs to rate versions of one TS."""

    ts_name: str
    #: applicable methods in preference order (subset of CBR, MBR, RBR)
    applicable: tuple[str, ...]
    #: the initially chosen method
    chosen: str
    context: ContextAnalysis | None = None
    n_contexts: int = 0
    context_histogram: dict = field(default_factory=dict)
    component_model: ComponentModel | None = None
    avg_counts: np.ndarray | None = None
    #: fixed MBR rating mode: dominant component index, or None for T_avg
    mbr_dominant: int | None = None
    #: counter-instrumented TS (compiled per config when rating with MBR)
    instrumented_fn: Function | None = None
    notes: list[str] = field(default_factory=list)

    def next_method(self, current: str) -> str | None:
        """The method to switch to when *current* fails to converge."""
        try:
            i = self.applicable.index(current)
        except ValueError:
            return self.applicable[0] if self.applicable else None
        return self.applicable[i + 1] if i + 1 < len(self.applicable) else None

    def rater(
        self,
        method: str,
        settings: RatingSettings,
        timed: TimedExecutor,
        *,
        whl_runs_per_rating: int = 1,
        run_memo: Store | None = None,
    ) -> ContextBasedRating | ModelBasedRating | AverageRating | WholeProgramRating:
        """The rater of one version by *method* (anything but RBR, which
        rates pairs); MBR rates versions compiled from ``instrumented_fn``.
        *run_memo* is the WHL rater's program-run memo."""
        if method == "CBR":
            return ContextBasedRating(self.context, settings, timed)
        if method == "MBR":
            return ModelBasedRating(
                self.component_model, self.avg_counts, settings, timed,
                dominant=self.mbr_dominant,
            )
        if method == "AVG":
            return AverageRating(settings, timed)
        if method == "WHL":
            return WholeProgramRating(
                settings, timed, runs_per_rating=whl_runs_per_rating,
                run_memo=run_memo,
            )
        raise ValueError(f"unknown rating method {method!r}")


def consult(
    fn: Function,
    profile: TSProfile,
    machine: MachineConfig,
    *,
    limits: ConsultantLimits = ConsultantLimits(),
    pointer_seeds: dict[str, frozenset[str]] | None = None,
) -> RatingPlan:
    """Annotate tuning section *fn* with applicable rating methods."""
    notes: list[str] = []
    applicable: list[str] = []

    # ---- CBR ---------------------------------------------------------- #
    analysis = analyze_context(fn, pointer_seeds=pointer_seeds)
    n_contexts = 0
    histogram: dict = {}
    cbr_choosable = False
    if analysis.applicable:
        analysis = refine_context(analysis, profile.invocation_inputs())
        keys = [
            context_key(analysis, inputs)
            for inputs in profile.invocation_inputs()
        ]
        histogram = dict(Counter(keys))
        n_contexts = len(histogram)
        applicable.append("CBR")
        dominant_repeats = max(histogram.values()) if histogram else 0
        cbr_choosable = (
            0 < n_contexts <= limits.max_contexts_for_cbr
            and dominant_repeats >= limits.min_invocations_per_context
        )
        notes.append(
            f"CBR: applicable; {n_contexts} context(s), dominant repeats "
            f"{dominant_repeats}x{'' if cbr_choosable else ' (not chosen)'}"
        )
    else:
        notes.append(f"CBR: inapplicable ({analysis.reason})")

    # ---- MBR ---------------------------------------------------------- #
    model = build_components(profile.block_counts)
    mbr_applicable = (
        0 < len(model.components) <= limits.max_components_for_mbr
    )
    instrumented = None
    avg_counts = None
    mbr_dominant = None
    if mbr_applicable:
        applicable.append("MBR")
        instrumented = instrument_counters(fn, model.counter_blocks())
        rep_counts = {
            rep: profile.block_counts[rep] for rep in model.counter_blocks()
        }
        avg_counts = model.average_counts(rep_counts)
        # fix the rating mode from the profile: rate by the dominant
        # component's T_i when one holds >=90% of the time, else by T_avg
        C = model.design_matrix(rep_counts)
        if C.shape[1] == profile.times.shape[0] and C.shape[1] > C.shape[0]:
            T_prof, *_ = np.linalg.lstsq(C.T, profile.times, rcond=None)
            contributions = T_prof * avg_counts
            total = float(np.sum(contributions))
            if total > 0:
                shares = contributions / total
                dom = int(np.argmax(shares))
                if shares[dom] >= 0.90:
                    mbr_dominant = dom
        notes.append(
            f"MBR: applicable; {len(model.components)} variable component(s) "
            f"+ constant; mode="
            + (f"dominant[{mbr_dominant}]" if mbr_dominant is not None else "T_avg")
        )
    else:
        notes.append(
            f"MBR: inapplicable ({len(model.components)} components)"
        )

    # ---- RBR ---------------------------------------------------------- #
    applicable.append("RBR")
    notes.append("RBR: applicable (no side-effecting calls in the IR)")

    # ---- initial choice: least overhead first (CBR < MBR < RBR) -------- #
    if "CBR" in applicable and cbr_choosable:
        chosen = "CBR"
    elif "MBR" in applicable:
        chosen = "MBR"
    else:
        chosen = "RBR"

    return RatingPlan(
        ts_name=fn.name,
        applicable=tuple(applicable),
        chosen=chosen,
        context=analysis if analysis.applicable else None,
        n_contexts=n_contexts,
        context_histogram=histogram,
        component_model=model if mbr_applicable else None,
        avg_counts=avg_counts,
        mbr_dominant=mbr_dominant,
        instrumented_fn=instrumented,
        notes=notes,
    )
