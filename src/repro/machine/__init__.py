"""The simulated machine substrate.

Substitutes for the paper's SPARC II / Pentium 4 hardware: a parametric cost
model (:mod:`cost`), a set-associative cache simulator (:mod:`cache`), a
measurement-noise model (:mod:`perturb`), the timing executor
(:mod:`executor`) and the profile runner (:mod:`profiler`).
"""

from .cache import AddressMap, CacheSim
from .config import MACHINES, MachineConfig, PENTIUM4, SPARC2, machine_by_name
from .cost import CostTable, block_static_costs, expr_cost, infer_type, stmt_cost
from .executor import (
    CompiledBlock,
    CostFactors,
    ExecutableFunction,
    ExecutionError,
    Executor,
    InvocationResult,
    compile_function,
)
from .jit import (
    EXEC_TIERS,
    TieredExecutor,
    code_key,
    create_executor,
    executable_digest,
    global_executable_cache,
)
from .perturb import NoiseModel
from .profiler import TSProfile, profile_tuning_section

__all__ = [
    "AddressMap",
    "CacheSim",
    "CompiledBlock",
    "CostFactors",
    "CostTable",
    "EXEC_TIERS",
    "ExecutableFunction",
    "ExecutionError",
    "Executor",
    "InvocationResult",
    "MACHINES",
    "MachineConfig",
    "NoiseModel",
    "PENTIUM4",
    "SPARC2",
    "TSProfile",
    "TieredExecutor",
    "block_static_costs",
    "code_key",
    "compile_function",
    "create_executor",
    "executable_digest",
    "expr_cost",
    "global_executable_cache",
    "infer_type",
    "machine_by_name",
    "profile_tuning_section",
    "stmt_cost",
]
