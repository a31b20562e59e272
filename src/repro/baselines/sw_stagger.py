"""Software-only staggering enforcement (paper reference [3]).

The software counterpart of SafeDE: the trail thread periodically reads
both progress counters and spin-waits until its lag exceeds the
threshold.  Here the "instrumentation" is modelled at the platform
level: every ``check_interval`` committed instructions the trail core
is held until the staggering exceeds the threshold — mirroring the
checkpoint-based monitoring loop of the software scheme, including its
coarser granularity (and hence higher overhead) compared to SafeDE.
"""

from __future__ import annotations

from dataclasses import dataclass

from .safede import run_staggered


@dataclass
class SwStaggerStats:
    cycles: int = 0
    stall_cycles: int = 0
    checkpoints: int = 0

    @property
    def intrusiveness(self) -> float:
        return self.stall_cycles / self.cycles if self.cycles else 0.0


class SoftwareStaggerer:
    """Checkpoint-based software staggering model."""

    def __init__(self, threshold: int = 50, check_interval: int = 100):
        self.threshold = threshold
        self.check_interval = check_interval
        self.diff = 0
        self._trail_since_check = 0
        self._holding = False
        self.stats = SwStaggerStats()

    def sample(self, head_commits: int, trail_commits: int) -> bool:
        """Clock one cycle; True when the trail thread is spin-waiting."""
        self.diff += head_commits - trail_commits
        self._trail_since_check += trail_commits
        self.stats.cycles += 1
        if self._holding:
            # Spin-wait until the lag is large enough again.
            if self.diff >= self.threshold:
                self._holding = False
            else:
                self.stats.stall_cycles += 1
                return True
            return False
        if self._trail_since_check >= self.check_interval:
            self._trail_since_check = 0
            self.stats.checkpoints += 1
            if self.diff < self.threshold:
                self._holding = True
                self.stats.stall_cycles += 1
                return True
        return False

    def reset(self):
        self.diff = 0
        self._trail_since_check = 0
        self._holding = False
        self.stats = SwStaggerStats()


def run_with_sw_staggering(soc, max_cycles: int = 2_000_000,
                           threshold: int = 50,
                           check_interval: int = 100):
    """Run an MPSoC under software staggering; returns the staggerer."""
    staggerer = SoftwareStaggerer(threshold=threshold,
                                  check_interval=check_interval)
    return run_staggered(soc, staggerer, max_cycles)
