"""The simulated optimizing compiler (GCC 3.3 ``-O3`` analogue).

38 named optimization flags (:mod:`flags`), real IR transformation passes
(:mod:`passes`), a machine-dependent effect model for backend behaviours
(:mod:`effects`), and the pipeline producing executable versions
(:mod:`pipeline`).
"""

from .effects import EFFECTS, FlagEffect, VersionCosting, compute_costing
from .flags import ALL_FLAGS, FLAGS_BY_NAME, Flag, N_FLAGS
from .options import OptConfig
from .pipeline import (
    PASS_ORDER,
    compile_version,
    effective_steps,
    run_passes,
    version_key,
)
from .prefix import PREFIX_CACHE_MAX, PrefixStats, ir_digest
from .version import Version

__all__ = [
    "ALL_FLAGS",
    "EFFECTS",
    "FLAGS_BY_NAME",
    "Flag",
    "FlagEffect",
    "N_FLAGS",
    "OptConfig",
    "PASS_ORDER",
    "PREFIX_CACHE_MAX",
    "PrefixStats",
    "Version",
    "VersionCosting",
    "compile_version",
    "compute_costing",
    "effective_steps",
    "ir_digest",
    "run_passes",
    "version_key",
]
