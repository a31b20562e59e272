"""SafeDE-style hardware staggering enforcement (paper reference [4]).

The *diversity enforced (intrusive)* column of the paper's Table II: a
hardware module that tracks the commit-count difference between head
and trail cores and **stalls the trail core** whenever its staggering
drops below a programmed threshold.  Unlike SafeDM it perturbs the
execution, and it requires both cores to execute identical instruction
streams (the constraint the paper criticises).

The module integrates with the MPSoC as a per-cycle hook that asserts a
stall line into the trail core.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SafeDeStats:
    cycles: int = 0
    stall_cycles: int = 0
    min_observed_stagger: int = 1 << 62

    @property
    def intrusiveness(self) -> float:
        """Fraction of cycles the trail core was forcibly stalled."""
        return self.stall_cycles / self.cycles if self.cycles else 0.0


class SafeDeEnforcer:
    """Stall-based staggering enforcement between two cores."""

    def __init__(self, threshold: int = 20, head: int = 0, trail: int = 1):
        if threshold < 1:
            raise ValueError("staggering threshold must be >= 1")
        self.threshold = threshold
        self.head = head
        self.trail = trail
        self.diff = 0  # head commits minus trail commits
        self.stats = SafeDeStats()

    def sample(self, head_commits: int, trail_commits: int) -> bool:
        """Clock one cycle; returns True if the trail core must stall.

        The stall decision uses the *current* staggering: when the
        trail core has caught up to within ``threshold`` committed
        instructions of the head core, it is held.
        """
        self.diff += head_commits - trail_commits
        stats = self.stats
        stats.cycles += 1
        if self.diff < stats.min_observed_stagger:
            stats.min_observed_stagger = self.diff
        stall = self.diff < self.threshold
        if stall:
            stats.stall_cycles += 1
        return stall

    def reset(self):
        self.diff = 0
        self.stats = SafeDeStats()


def run_with_enforcement(soc, max_cycles: int = 2_000_000,
                         threshold: int = 20):
    """Run an :class:`~repro.soc.mpsoc.MPSoC` under SafeDE enforcement.

    The trail core (monitored core 1) is stalled — its ``step`` is
    skipped — whenever the enforcer demands it.  SafeDM still observes
    both cores, so the run also quantifies the *residual* lack of
    diversity under enforcement.  Returns the enforcer.
    """
    enforcer = SafeDeEnforcer(threshold=threshold,
                              head=soc.monitored[0],
                              trail=soc.monitored[1])
    return run_staggered(soc, enforcer, max_cycles)


def run_staggered(soc, sampler, max_cycles: int = 2_000_000):
    """Run the monitored pair (head ``monitored[0]``, trail
    ``monitored[1]``) under a staggering ``sampler``: its
    ``sample(head_commits, trail_commits)`` clocks every cycle and
    returns True to hold the trail core for the next one.  Returns
    ``sampler``.

    The one core-stepping loop behind both staggering baselines
    (:class:`SafeDeEnforcer` and
    :class:`~repro.baselines.sw_stagger.SoftwareStaggerer`).
    """
    head = soc.cores[soc.monitored[0]]
    trail = soc.cores[soc.monitored[1]]
    stall_next = False
    start = soc.cycle
    while soc.cycle - start < max_cycles:
        if head.finished and trail.finished:
            break
        cycle = soc.cycle
        if not head.finished:
            head.step(cycle)
        else:
            head.commits_this_cycle = 0
        # Once the head finishes, enforcement lifts (nothing to trail).
        if not trail.finished and (not stall_next or head.finished):
            trail.step(cycle)
        else:
            trail.commits_this_cycle = 0
            trail.hold = True
        soc.bus.step(cycle)
        if not (head.finished or trail.finished):
            soc.safedm.observe(cycle, head, trail)
        stall_next = sampler.sample(head.commits_this_cycle,
                                    trail.commits_this_cycle)
        soc.cycle += 1
    soc.safedm.finish()
    return sampler
