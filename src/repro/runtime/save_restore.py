"""Input save/restore for re-execution-based rating (Section 2.4).

The improved RBR method saves and restores only ``Modified_Input(TS) =
Input(TS) ∩ Def(TS)`` (Eq. 6).  Two strategies are chosen per array from
the store classification analysis:

* **full** — the array has affine (analysable) stores: snapshot the whole
  array (a symbolic-range slice in the paper; we conservatively copy all of
  it and charge cycles accordingly);
* **inspector** — the array has irregular (indirect) stores: the paper
  inserts inspector code into the precondition version that records the
  addresses and values of write references.  We reproduce that observable
  behaviour: the precondition run identifies the touched elements, and only
  those are saved/restored afterwards, with inspector recording charged per
  write.

Scalars in the modified-input set are always saved directly.

Arrays come in the machine's representations (see
:mod:`repro.machine.executor`): a float array is a list of floats and is
saved as a list slice, any other array is an ndarray and is saved as an
ndarray copy.  Restores write back in place (``array[:] = saved``; the
inspector's sparse restore loops over the recorded indices of a list).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.defs import classify_stores
from ..analysis.liveness import modified_input_set
from ..ir.function import Function
from ..ir.types import is_array
from ..machine.config import MachineConfig
from .ledger import TuningLedger

__all__ = ["SaveRestorePlan", "Snapshot", "copy_array"]

#: inspector bookkeeping cost per recorded write (cycles)
INSPECT_COST_CYCLES = 3.0


def copy_array(value):
    """A copy of one array input: a list slice, or an ndarray copy."""
    return value[:] if type(value) is list else np.array(value, copy=True)


@dataclass
class Snapshot:
    """Saved pre-invocation state of the modified-input set."""

    scalars: dict[str, object] = field(default_factory=dict)
    #: array -> its saved copy (a list or an ndarray, as the array is)
    full_arrays: dict[str, list | np.ndarray] = field(default_factory=dict)
    #: array -> (indices, values) for inspector-managed arrays (lists for
    #: a list, ndarrays for an ndarray)
    sparse_arrays: dict[str, tuple] = field(default_factory=dict)

    @property
    def elements(self) -> int:
        n = len(self.scalars)
        n += sum(map(len, self.full_arrays.values()))
        n += sum(len(idx) for idx, _ in self.sparse_arrays.values())
        return n


class SaveRestorePlan:
    """Per-TS plan for saving and restoring ``Modified_Input(TS)``."""

    def __init__(
        self, fn: Function, machine: MachineConfig, *, full_input: bool = False
    ) -> None:
        """With ``full_input=True`` the plan saves all of ``Input(TS)``
        (the paper's *basic* RBR method) instead of ``Modified_Input(TS)``,
        and never uses the inspector — the whole input is copied."""
        self.fn = fn
        self.machine = machine
        self.full_input = full_input
        from ..analysis.liveness import input_set

        saved = input_set(fn) if full_input else modified_input_set(fn)
        self.modified_input = modified_input_set(fn)
        self.saved_set = saved
        types = fn.all_vars()
        self.scalar_names = sorted(
            n for n in saved if not is_array(types.get(n))
        )
        array_names = sorted(n for n in saved if is_array(types.get(n)))
        if full_input:
            irregular: set[str] = set()
        else:
            irregular = {
                info.array for info in classify_stores(fn) if not info.affine
            }
        self.full_arrays = tuple(n for n in array_names if n not in irregular)
        self.inspector_arrays = tuple(n for n in array_names if n in irregular)
        self._copy_unit = machine.spill_store_cycles + machine.spill_load_cycles

    # ------------------------------------------------------------------ #

    def save(
        self, env: dict[str, object], ledger: TuningLedger | None = None
    ) -> Snapshot:
        """Snapshot the modified-input set; charges save cycles."""
        snap = Snapshot()
        for name in self.scalar_names:
            snap.scalars[name] = env[name]
        for name in self.full_arrays:
            snap.full_arrays[name] = copy_array(env[name])
        cycles = (len(snap.scalars) + sum(map(len, snap.full_arrays.values()))) \
            * self._copy_unit
        if ledger is not None:
            ledger.charge("save_restore", cycles)
        return snap

    def observe_writes(
        self,
        env_before: dict[str, object],
        env_after: dict[str, object],
        snap: Snapshot,
        ledger: TuningLedger | None = None,
    ) -> None:
        """Inspector step: record which irregular-array elements were written.

        Called after the precondition run with the pre-run copies of the
        inspector arrays; stores the (index, original value) pairs that the
        subsequent ``restore`` calls will write back.
        """
        total_writes = 0
        for name in self.inspector_arrays:
            before = np.asarray(env_before[name])
            after = np.asarray(env_after[name])
            idx = np.nonzero(before != after)[0]
            total_writes += idx.size
            values = before[idx]
            if type(env_after[name]) is list:  # restored element by element
                idx, values = idx.tolist(), values.tolist()
            snap.sparse_arrays[name] = (idx, values)
        if ledger is not None:
            ledger.charge(
                "save_restore",
                total_writes * (INSPECT_COST_CYCLES + self._copy_unit),
            )

    def restore(
        self, env: dict[str, object], snap: Snapshot, ledger: TuningLedger | None = None
    ) -> None:
        """Write the snapshot back into *env*; charges restore cycles."""
        for name, value in snap.scalars.items():
            env[name] = value
        for name, saved in snap.full_arrays.items():
            env[name][:] = saved
        for name, (idx, values) in snap.sparse_arrays.items():
            arr = env[name]
            if type(arr) is list:
                for i, v in zip(idx, values):
                    arr[i] = v
            else:
                arr[idx] = values
        if ledger is not None:
            ledger.charge("save_restore", snap.elements * self._copy_unit)

    def describe(self) -> str:
        return (
            f"SaveRestorePlan(scalars={list(self.scalar_names)}, "
            f"full={list(self.full_arrays)}, inspector={list(self.inspector_arrays)})"
        )
