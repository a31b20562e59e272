"""Sweep engine: parallel execution, run caching, progress reporting.

The Table I sweep is a large set of independent simulations; this
package turns it from a serial loop into a cached, process-parallel
pipeline while keeping the produced cells bit-for-bit identical to the
serial protocol in :mod:`repro.soc.experiment`.
"""

from .cache import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    RunCache,
    TraceCache,
    config_digest,
    monitor_key,
    program_digest,
    run_key,
    signature_digest,
    sim_config_digest,
    simulation_key,
)
from .executor import map_ordered, resolve_jobs
from .progress import NullProgress, SweepProgress
from .sweep import (
    ParallelSweep,
    RunSpec,
    cell_specs,
    execute_spec,
    merge_cell,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "NullProgress",
    "ParallelSweep",
    "RunCache",
    "RunSpec",
    "SweepProgress",
    "TraceCache",
    "cell_specs",
    "config_digest",
    "execute_spec",
    "map_ordered",
    "merge_cell",
    "monitor_key",
    "program_digest",
    "resolve_jobs",
    "run_key",
    "signature_digest",
    "sim_config_digest",
    "simulation_key",
]
