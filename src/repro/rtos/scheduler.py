"""Minimal RTOS layer: periodic redundant jobs with SafeDM supervision.

Implements the safety concept the paper sketches: the RTOS releases a
critical task periodically, runs it redundantly on two non-lockstepped
cores with SafeDM configured to interrupt on lack of diversity, and
*drops the job* when the interrupt fires ("applying the same safety
measure as if an error had occurred is a viable and simple strategy").
The :class:`~repro.rtos.safety.FttiTracker` then verifies that drops
never exceed the FTTI budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..core.monitor import ReportingMode
from ..isa.program import Program
from ..isa.registers import RESULT_REGISTER
from ..soc.config import SocConfig
from ..soc.mpsoc import MPSoC
from .safety import FttiTracker


@dataclass
class PeriodicTask:
    """A critical task released every ``period_ms``."""

    name: str
    program: Program
    period_ms: float = 50.0
    ftti_ms: float = 200.0
    #: SafeDM no-diversity cycle threshold that triggers the interrupt.
    diversity_threshold: int = 1


@dataclass
class JobOutcome:
    index: int
    cycles: int
    dropped: bool
    interrupts: int
    no_diversity_cycles: int
    output: Optional[int] = None


class RedundantJobRunner:
    """Releases jobs of a task redundantly under SafeDM supervision."""

    def __init__(self, task: PeriodicTask,
                 config: Optional[SocConfig] = None,
                 max_cycles_per_job: int = 2_000_000,
                 perturb_hook: Optional[Callable[[MPSoC, int], None]]
                 = None):
        self.task = task
        self.config = config
        self.max_cycles_per_job = max_cycles_per_job
        #: Optional per-job hook (soc, job_index) for tests to perturb
        #: a run (e.g. force both cores into identical state).
        self.perturb_hook = perturb_hook
        self.tracker = FttiTracker(period_ms=task.period_ms,
                                   ftti_ms=task.ftti_ms)
        self.outcomes: List[JobOutcome] = []

    def run_job(self, index: int) -> JobOutcome:
        """Run one redundant job instance; drop it on a SafeDM IRQ."""
        soc = MPSoC(config=self.config,
                    mode=ReportingMode.INTERRUPT_THRESHOLD,
                    threshold=self.task.diversity_threshold)
        soc.start_redundant(self.task.program)
        if self.perturb_hook is not None:
            self.perturb_hook(soc, index)
        cycles = soc.run(max_cycles=self.max_cycles_per_job)
        stats = soc.safedm.stats
        dropped = soc.safedm.irq.raised_count > 0
        output = None
        if not dropped:
            core0 = soc.cores[soc.monitored[0]]
            output = core0.regfile.values[RESULT_REGISTER]
        outcome = JobOutcome(index=index, cycles=cycles, dropped=dropped,
                             interrupts=soc.safedm.irq.raised_count,
                             no_diversity_cycles=stats.no_diversity_cycles,
                             output=output)
        self.outcomes.append(outcome)
        self.tracker.record(dropped,
                            reason="diversity interrupt" if dropped else "")
        return outcome

    def run(self, jobs: int) -> List[JobOutcome]:
        """Run ``jobs`` consecutive periodic releases."""
        for index in range(jobs):
            self.run_job(index)
        return self.outcomes

    def summary(self) -> str:
        return "%s: %s" % (self.task.name, self.tracker.summary())
