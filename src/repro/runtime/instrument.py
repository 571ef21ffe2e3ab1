"""Timing instrumentation.

``TimedExecutor`` wraps the machine executor the way the PEAK-inserted
timer instrumentation wraps a tuning section: it runs one invocation,
applies the measurement-noise model to the true cycle count, optionally adds
counter overhead (MBR's surviving block counters cost a couple of cycles per
increment), and charges the ledger.

Both entry points take an invocation's inputs as the feed hands them out
(an :class:`~repro.machine.executor.Inputs` handle) or as a plain env.  A
``TimedExecutor`` built with a *replay* store replays invocations of
data-oblivious versions, and re-executions of any version on a fresh
hand-out of an input position (:meth:`repro.machine.executor.Executor.run`):
a replayed invocation builds no env from a handle and leaves an env's
arrays unwritten, so a caller that reads what an invocation writes passes
``reads_writes=True``, which always simulates (and builds the env).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compiler.version import Version
from ..machine.config import MachineConfig
from ..machine.executor import Inputs, InvocationResult
from ..machine.jit import create_executor
from ..machine.perturb import NoiseModel
from ..obs import Obs, obs_or_null
from ..store import Store
from .ledger import TuningLedger

__all__ = ["TimedExecutor", "TimedSample", "COUNTER_COST_CYCLES", "TIMER_COST_CYCLES"]

#: cycles one surviving MBR counter increment costs
COUNTER_COST_CYCLES = 2.0
#: fixed timer read/record overhead per timed invocation
TIMER_COST_CYCLES = 40.0


@dataclass
class TimedSample:
    """One timed invocation of one version."""

    measured_cycles: float
    true_cycles: float
    block_counts: dict[str, int] | None
    return_value: object


class TimedExecutor:
    """Runs versions with timing, noise, counter overhead, and ledgering."""

    def __init__(
        self,
        machine: MachineConfig,
        *,
        seed: int = 0,
        noise: NoiseModel | None = None,
        ledger: TuningLedger | None = None,
        exec_tier: int = 1,
        obs: Obs | None = None,
        replay: Store | None = None,
    ) -> None:
        self.machine = machine
        #: the invocation replay store (None: simulate every invocation)
        self.replay = replay
        # Tier 1 = one compiled function per call-free tuning section, every
        # other frame at Tier 0, the reference closure interpreter
        # (bit-identical results — see repro.machine.jit — so ratings are
        # unaffected)
        self.executor = create_executor(machine, exec_tier)
        self.noise = noise if noise is not None else NoiseModel.for_machine(machine)
        self.rng = np.random.default_rng(seed)
        self.ledger = ledger if ledger is not None else TuningLedger()
        # the executor is the carrier every rating method reaches obs
        # through; attaching the tracer here routes the ledger's cycle
        # charges into the current span
        self.obs = obs_or_null(obs)
        if self.obs.tracer.enabled:
            self.ledger.attach_tracer(self.obs.tracer)

    def invoke(
        self,
        version: Version,
        inputs: Inputs | dict[str, object],
        *,
        counter_blocks: tuple[str, ...] = (),
        timed: bool = True,
        reads_writes: bool = False,
    ) -> TimedSample:
        """Execute one invocation of *version* on *inputs* and measure it.

        *counter_blocks* — the MBR counters left after pruning; their
        increments are charged as instrumentation overhead and included in
        the measured (but not the true) time, mirroring the paper's remark
        that the counters slightly perturb measurements.  *reads_writes*
        — the caller reads what the invocation writes into the env, so it
        is simulated, never replayed.
        """
        with self.obs.span("invoke", "exec"):
            res: InvocationResult = self.executor.run(
                version.exe,
                inputs,
                factors=version.factors,
                count_blocks=bool(counter_blocks),
                replay=None if reads_writes else self.replay,
            )
            counter_overhead = 0.0
            if counter_blocks and res.block_counts is not None:
                increments = sum(res.block_counts.get(b, 0) for b in counter_blocks)
                counter_overhead = increments * COUNTER_COST_CYCLES
                self.ledger.charge("instrumentation", counter_overhead)
            self.ledger.charge_invocation(res.cycles)
            if timed:
                self.ledger.charge("instrumentation", TIMER_COST_CYCLES)
                measured = self.noise.sample(
                    res.cycles + counter_overhead + TIMER_COST_CYCLES, self.rng
                )
            else:
                measured = res.cycles
        self.obs.histogram("exec.invocation_cycles").observe(res.cycles)
        return TimedSample(
            measured_cycles=measured,
            true_cycles=res.cycles,
            block_counts=res.block_counts,
            return_value=res.return_value,
        )

    def run_untimed(
        self,
        version: Version,
        inputs: Inputs | dict[str, object],
        *,
        reads_writes: bool = False,
    ) -> InvocationResult:
        """Run without measurement (e.g. RBR's precondition execution)."""
        return self.executor.run(
            version.exe, inputs, factors=version.factors,
            replay=None if reads_writes else self.replay,
        )
