"""SafeDM's own scheme: a monitored non-lockstepped pair.

Two cores run the same program in private address spaces, SafeDM
samples their signatures every cycle, and detection is software output
comparison at end of run.  The scheme registers **no** taps and keeps
the single ``(0, 1)`` monitor pair, so the fast tier runs it on the
pair span with the monitor accounting inlined.
"""

from __future__ import annotations

from .base import RedundancyScheme, monitor_luts


class SafeDMPair(RedundancyScheme):
    """Monitored redundant pair (the paper's configuration): the scheme
    :func:`repro.soc.experiment.run_redundant` runs when a call names
    none."""

    kind = "safedm"

    def checker_luts(self) -> int:
        # One SafeDM instance plus the software-comparison epilogue
        # (no dedicated hardware: the cores compare their own outputs).
        return monitor_luts(1)

    def result(self, soc) -> dict:
        out = super().result(soc)
        stats = soc.safedm.stats
        out["no_diversity_cycles"] = stats.no_diversity_cycles
        out["sampled_cycles"] = stats.sampled_cycles
        return out
