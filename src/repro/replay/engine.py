"""Replay engine: monitor outcomes from captured streams, no simulator.

A :class:`~repro.trace.stream_trace.StreamTrace` is a pure function of
the *simulation* key (program bytes, platform-minus-signature config,
staggering, late core, arbiter start, cycle budget).  Replaying it is
bit-identical to a live run for any monitor configuration that

* monitors at most the register ports the trace captured (the default
  capture records every physical port), and
* does not feed back into the cores — the ``run_redundant`` protocol:
  nothing acknowledges or reacts to the SafeDM interrupt mid-run.

Anything else — more monitored ports than captured, an RTOS that
reschedules on the interrupt, a different platform geometry or cycle
budget — changes the simulation itself and requires re-simulation.

Two layers:

* :class:`ReplayMonitor` drives a real
  :class:`~repro.core.monitor.DiversityMonitor` through its normal
  per-cycle ``observe`` path using lightweight core-view adapters —
  the reference replay, bit-identical by construction.
* :class:`ReplayEngine` is the many-point fast path: it memoizes one
  accounting pass per signature configuration and derives each
  (mode, threshold) point in O(1) from it.  That derivation is exact:
  ``_report_loss`` only ever touches the interrupt line and its
  counter, every other counter and histogram is mode-independent, and
  during a captured run the line is never acknowledged, so it latches
  after the first raise — ``interrupts_raised`` is 1 iff the run's
  total no-diversity count reaches the (effective) threshold.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from ..core.history import HistoryModule
from ..core.instruction_diff import InstructionDiffStats
from ..core.monitor import DiversityMonitor, MonitorStats, ReportingMode
from ..core.signatures import SignatureConfig
from ..soc.experiment import RunResult
from ..trace.stream_trace import CycleSample, StreamTrace


class _ReplayCore:
    """CoreView adapter over one core's captured taps for one cycle."""

    __slots__ = ("hold", "commits_this_cycle", "_ports", "_stages")

    def __init__(self):
        self.hold = False
        self.commits_this_cycle = 0
        self._ports = ()
        self._stages = ()

    @property
    def regfile(self):
        return self

    def port_samples(self):
        return self._ports

    def stage_words(self):
        return self._stages


def _result_from(meta, stats: MonitorStats,
                 diff_stats: InstructionDiffStats) -> RunResult:
    """A RunResult: simulation fields from the trace metadata, monitor
    fields from a replayed accounting."""
    return RunResult(
        benchmark=meta.benchmark,
        stagger_nops=meta.stagger_nops,
        late_core=meta.late_core,
        cycles=meta.cycles,
        committed=meta.committed,
        zero_staggering_cycles=diff_stats.zero_staggering_cycles,
        no_diversity_cycles=stats.no_diversity_cycles,
        no_data_diversity_cycles=stats.no_data_diversity_cycles,
        no_instruction_diversity_cycles=(
            stats.no_instruction_diversity_cycles),
        interrupts=stats.interrupts_raised,
        finished=meta.finished,
        ipc=meta.ipc,
    )


class ReplayMonitor:
    """Replay one monitor configuration cycle-exactly from a trace.

    Builds a real :class:`DiversityMonitor` (history attached, like
    :class:`~repro.soc.mpsoc.MPSoC` does) and feeds it the captured
    streams through its normal ``observe`` path — including the
    per-cycle reporting-mode logic — so stats, histograms, and the
    staggering counters come out bit-identical to a live run.
    :meth:`cycles` is the one replay loop: the per-cycle views
    (:func:`repro.trace.vcd.monitor_vcd` and the measured oracle
    :func:`repro.lint.diversity.measure_instruction_diversity`) read
    the monitor as it steps; :meth:`replay` runs it to the end.
    """

    def __init__(self, trace: StreamTrace,
                 signature: Optional[SignatureConfig] = None,
                 mode: ReportingMode = ReportingMode.POLLING,
                 threshold: int = 1):
        self.trace = trace
        self.monitor = DiversityMonitor(
            config=signature or SignatureConfig(), mode=mode,
            threshold=threshold, history=HistoryModule())
        self.monitor.instruction_diff.diff = trace.meta.diff_preload
        self._replayed = False

    def cycles(self) -> Iterator[CycleSample]:
        """The one replay loop: feed the captured samples to the
        monitor, yielding each right after ``self.monitor.observe``
        took it, so ``self.monitor.last_report`` is that cycle's
        verdict.  Drives the monitor once; :meth:`replay` drains it."""
        view0 = _ReplayCore()
        view1 = _ReplayCore()
        observe = self.monitor.observe
        for sample in self.trace.samples:
            tap0, tap1 = sample.cores
            view0.hold = tap0.hold
            view0.commits_this_cycle = tap0.commits
            view0._ports = tap0.ports
            view0._stages = tap0.stages
            view1.hold = tap1.hold
            view1.commits_this_cycle = tap1.commits
            view1._ports = tap1.ports
            view1._stages = tap1.stages
            observe(sample.cycle, view0, view1)
            yield sample

    def replay(self) -> DiversityMonitor:
        """Run the replay once; further calls return the same monitor."""
        if self._replayed:
            return self.monitor
        for _ in self.cycles():
            pass
        self.monitor.finish()
        self._replayed = True
        return self.monitor

    @property
    def stats(self) -> MonitorStats:
        return self.replay().stats

    @property
    def history(self) -> HistoryModule:
        return self.replay().history

    @property
    def instruction_diff(self):
        return self.replay().instruction_diff

    def run_result(self) -> RunResult:
        monitor = self.replay()
        return _result_from(self.trace.meta, monitor.stats,
                            monitor.instruction_diff.stats)


@dataclass
class ReplayOutcome:
    """Monitor-side outcome of one replayed configuration point.

    ``history`` is shared between points with the same signature
    configuration (it is mode/threshold-independent); treat it as
    read-only.
    """

    stats: MonitorStats
    diff_stats: InstructionDiffStats
    history: HistoryModule


class ReplayEngine:
    """Capture-once / replay-many: N monitor points from one trace.

    One full accounting pass per distinct signature configuration
    (memoized), then O(1) per (mode, threshold) point on top — so a
    16-point threshold sweep costs one cheap replay, not sixteen.
    """

    def __init__(self, trace: StreamTrace):
        self.trace = trace
        self._accounted: Dict[SignatureConfig, DiversityMonitor] = {}

    def _accounting(self, signature: SignatureConfig) -> DiversityMonitor:
        monitor = self._accounted.get(signature)
        if monitor is None:
            monitor = ReplayMonitor(
                self.trace, signature=signature,
                mode=ReportingMode.POLLING, threshold=1).replay()
            self._accounted[signature] = monitor
        return monitor

    @property
    def accounting_passes(self) -> int:
        """Distinct signature configurations replayed so far."""
        return len(self._accounted)

    def replay(self, signature: Optional[SignatureConfig] = None,
               mode: ReportingMode = ReportingMode.POLLING,
               threshold: int = 1) -> ReplayOutcome:
        """Outcome for one monitor configuration point."""
        monitor = self._accounting(signature or SignatureConfig())
        stats = monitor.stats
        no_div = stats.no_diversity_cycles
        if mode is ReportingMode.INTERRUPT_FIRST:
            raised = 1 if no_div >= 1 else 0
        elif mode is ReportingMode.INTERRUPT_THRESHOLD:
            # A threshold <= 0 fires on the first loss, like live:
            # _report_loss only runs on no-diversity cycles, when the
            # cumulative count is already >= 1.
            raised = 1 if no_div >= max(threshold, 1) else 0
        else:
            raised = 0
        return ReplayOutcome(
            stats=dataclasses.replace(stats, interrupts_raised=raised),
            diff_stats=monitor.instruction_diff.stats,
            history=monitor.history)

    def run_result(self, signature: Optional[SignatureConfig] = None,
                   mode: ReportingMode = ReportingMode.POLLING,
                   threshold: int = 1) -> RunResult:
        """A full :class:`RunResult` for one configuration point."""
        outcome = self.replay(signature=signature, mode=mode,
                              threshold=threshold)
        return _result_from(self.trace.meta, outcome.stats,
                            outcome.diff_stats)


def replay_run(trace: StreamTrace,
               signature: Optional[SignatureConfig] = None,
               mode: ReportingMode = ReportingMode.POLLING,
               threshold: int = 1) -> RunResult:
    """One-shot replay: the :class:`RunResult` a live run with this
    monitor configuration would have produced."""
    return ReplayEngine(trace).run_result(signature=signature,
                                          mode=mode, threshold=threshold)
