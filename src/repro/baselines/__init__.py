"""Baseline redundancy techniques (paper Table II columns; lockstep
runs as the :mod:`repro.schemes.lockstep` scheme)."""

from .safede import SafeDeEnforcer, SafeDeStats, run_with_enforcement
from .sw_stagger import (
    SoftwareStaggerer,
    SwStaggerStats,
    run_with_sw_staggering,
)
from .unaware import RedundancyOutcome, compare_outputs

__all__ = [
    "RedundancyOutcome",
    "SafeDeEnforcer",
    "SafeDeStats",
    "SoftwareStaggerer",
    "SwStaggerStats",
    "compare_outputs",
    "run_with_enforcement",
    "run_with_sw_staggering",
]
