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
* :class:`ReplayEngine` is the many-point fast path.  It never builds
  a monitor: it reads each signature comparator's verdicts off the
  trace as a *verdict stream* (a ``bytes`` with one 0/1 per observed
  cycle, 1 where the two cores' signatures are equal, held cores
  keeping their state as the units do), computed once per tap and
  shared by every point that reads it:

  - the staggering counter, once per trace from the commit counts;
  - one DS stream per ``(num_ports, ds_depth)``, read off one pass
    per port count that counts how many of the newest register-port
    rows the two cores share;
  - one IS stream per IS variant and in-flight depth, from each
    core's stage tuples interned once per trace.

  A geometry's :class:`MonitorStats`, :class:`InstructionDiffStats`
  and :class:`HistoryModule` are counted from its streams (counts,
  runs of 1s, the episode bins), once per signature configuration,
  and each (mode, threshold) point is derived in O(1) from that.  The
  derivation is exact: ``_report_loss`` only ever touches the
  interrupt line and its counter, every other counter and histogram
  is mode-independent, and during a captured run the line is never
  acknowledged, so it latches after the first raise —
  ``interrupts_raised`` is 1 iff the run's total no-diversity count
  reaches the (effective) threshold.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from operator import eq
from typing import Dict, Iterator, Optional, Tuple

from ..core.history import EpisodeHistogram, HistoryModule
from ..core.instruction_diff import InstructionDiffStats
from ..core.monitor import DiversityMonitor, MonitorStats, ReportingMode
from ..core.signatures import (
    IsVariant,
    SignatureConfig,
    inflight_from_stage_words,
    inflight_window,
)
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


def _both(first: bytes, second: bytes) -> bytes:
    """Cycle-wise AND of two verdict streams."""
    both = int.from_bytes(first, "little") & int.from_bytes(second, "little")
    return both.to_bytes(len(first), "little")


#: 0 -> space, 1 -> "x": ``bytes.split()`` then yields the runs of 1s.
_RUNS_OF_ONES = bytes.maketrans(b"\0\1", b" x")


def _fill_histogram(histogram: EpisodeHistogram, stream: bytes):
    """Set ``histogram`` to what clocking it with ``stream`` and then
    ``finish()`` leave: each run of 1s is one episode."""
    runs = Counter(map(len, stream.translate(_RUNS_OF_ONES).split()))
    bins = histogram.bins
    for length, count in runs.items():
        bins[min((length - 1) // histogram.bin_size,
                 histogram.num_bins - 1)] += count
    histogram.total_cycles = stream.count(1)
    histogram.episodes = sum(runs.values())
    histogram.longest = max(runs, default=0)


#: A row-run pass counts up to this many rows (more if a deeper DS
#: asks), so one pass serves every DS depth up to it.
_RUN_CAP = 255


def _equal_tail(rows0: deque, rows1: deque) -> int:
    """How many of the newest entries of two deques are pairwise equal."""
    count = 0
    for row0, row1 in zip(reversed(rows0), reversed(rows1)):
        if row0 != row1:
            break
        count += 1
    return count


def _row_runs(samples, num_ports: int, cap: int) -> array:
    """Per observed cycle, how many of the two cores' newest DS rows
    are pairwise equal, up to ``cap``.

    Each core's rows are its first ``num_ports`` port samples, appended
    on the cycles it is not held after ``cap`` idle rows, as
    :class:`~repro.core.signatures.DataSignatureUnit` appends them; so
    the DS windows of any depth ``d <= cap`` are equal exactly when
    the count is at least ``d``.
    """
    idle = ((0, 0),) * num_ports
    rows0 = deque([idle] * cap, maxlen=cap)
    rows1 = deque([idle] * cap, maxlen=cap)
    runs = array("B" if cap <= 0xFF else "I")
    run = cap
    for sample in samples:
        tap0, tap1 = sample.cores
        if not tap0.hold and not tap1.hold:
            row = tap0.ports[:num_ports]
            rows0.append(row)
            rows1.append(tap1.ports[:num_ports])
            if row != rows1[-1]:
                run = 0
            elif run < cap:
                run += 1
        elif not tap0.hold:
            rows0.append(tap0.ports[:num_ports])
            run = _equal_tail(rows0, rows1)
        elif not tap1.hold:
            rows1.append(tap1.ports[:num_ports])
            run = _equal_tail(rows0, rows1)
        runs.append(run)
    return runs


class _VerdictStreams:
    """The verdict streams of one trace, each computed once and shared
    by every signature geometry that reads it.

    One walk over the trace yields what every geometry shares:

    * the staggering counter, which only the commit counts feed: its
      :class:`InstructionDiffStats` and its zero-staggering episode
      histogram;
    * each core's IS input on every observed cycle, as an index into
      ``stages``, the distinct stage tuples (index 0 is the units'
      empty reset state), a held core keeping its last one;
    * what the signature units check their inputs against.
    """

    def __init__(self, trace: StreamTrace):
        self.samples = samples = trace.samples
        first = next((tap.stages for sample in samples
                      for tap in sample.cores if not tap.hold), ())
        ids = {(None,) * len(first): 0}
        ids0 = array("I")
        ids1 = array("I")
        now0 = now1 = 0
        min_ports = None
        diff = trace.meta.diff_preload
        low = high = 0
        zero = bytearray()
        for sample in samples:
            tap0, tap1 = sample.cores
            if not tap0.hold:
                now0 = ids.setdefault(tap0.stages, len(ids))
                if min_ports is None or len(tap0.ports) < min_ports:
                    min_ports = len(tap0.ports)
            if not tap1.hold:
                now1 = ids.setdefault(tap1.stages, len(ids))
                if min_ports is None or len(tap1.ports) < min_ports:
                    min_ports = len(tap1.ports)
            ids0.append(now0)
            ids1.append(now1)
            diff += tap0.commits - tap1.commits
            zero.append(diff == 0)
            if diff < low:
                low = diff
            elif diff > high:
                high = diff
        self.stage_ids = (ids0, ids1)
        self.stages = list(ids)
        self.min_ports = min_ports
        self._inflight: Optional[list] = None
        zero = bytes(zero)
        self.diff_stats = InstructionDiffStats(
            zero_staggering_cycles=zero.count(1), min_diff=low,
            max_diff=high, sampled_cycles=len(zero))
        self.zero_staggering = EpisodeHistogram()
        _fill_histogram(self.zero_staggering, zero)
        #: num_ports -> (cap, row runs); (num_ports, ds_depth) -> DS
        #: stream; (IS variant, in-flight depth) -> IS stream.
        self._runs: Dict[int, Tuple[int, array]] = {}
        self._ds: Dict[Tuple[int, int], bytes] = {}
        self._is: Dict[Tuple[IsVariant, int], bytes] = {}

    def check(self, signature: SignatureConfig):
        """Raise the ``ValueError`` a live monitor of this geometry
        raises on this trace."""
        if self.min_ports is None:
            return
        if self.min_ports < signature.num_ports:
            raise ValueError("expected >= %d port samples, got %d"
                             % (signature.num_ports, self.min_ports))
        for stages in self.stages:
            if len(stages) != signature.pipeline_stages:
                raise ValueError("expected %d stages, got %d"
                                 % (signature.pipeline_stages,
                                    len(stages)))

    def data(self, num_ports: int, depth: int) -> bytes:
        """The DS verdict stream of ``num_ports`` ports, ``depth`` deep."""
        stream = self._ds.get((num_ports, depth))
        if stream is None:
            cap, runs = self._runs.get(num_ports, (-1, None))
            if cap < depth:
                cap = max(_RUN_CAP, depth)
                runs = _row_runs(self.samples, num_ports, cap)
                self._runs[num_ports] = (cap, runs)
            stream = self._ds[num_ports, depth] = \
                bytes(map(depth.__le__, runs))
        return stream

    def instruction(self, variant: IsVariant, depth: int) -> bytes:
        """The IS verdict stream of ``variant`` (``depth`` is the
        INFLIGHT FIFO depth)."""
        if variant is IsVariant.PER_STAGE:
            depth = 0
        stream = self._is.get((variant, depth))
        if stream is not None:
            return stream
        ids0, ids1 = self.stage_ids
        if variant is IsVariant.PER_STAGE:
            stream = bytes(map(eq, ids0, ids1))
        else:
            if self._inflight is None:
                self._inflight = [inflight_from_stage_words(stages)
                                  for stages in self.stages]
            windows: Dict[Tuple[int, ...], int] = {}
            window_of = [windows.setdefault(inflight_window(words, depth),
                                            len(windows))
                         for words in self._inflight]
            stream = bytes(map(eq, map(window_of.__getitem__, ids0),
                               map(window_of.__getitem__, ids1)))
        self._is[variant, depth] = stream
        return stream


class ReplayEngine:
    """Capture-once / replay-many: N monitor points from one trace.

    One accounting per distinct signature configuration (memoized),
    counted from verdict streams shared by every configuration that
    reads the same tap, then O(1) per (mode, threshold) point on top —
    so a 16-point threshold sweep costs one accounting, not sixteen.
    """

    def __init__(self, trace: StreamTrace):
        self.trace = trace
        self._accounted: Dict[SignatureConfig, ReplayOutcome] = {}
        self._streams: Optional[_VerdictStreams] = None

    def _accounting(self, signature: SignatureConfig) -> ReplayOutcome:
        outcome = self._accounted.get(signature)
        if outcome is not None:
            return outcome
        if self._streams is None:
            self._streams = _VerdictStreams(self.trace)
        streams = self._streams
        streams.check(signature)
        same_data = streams.data(signature.num_ports, signature.ds_depth)
        same_instr = streams.instruction(signature.is_variant,
                                         signature.inflight_depth)
        neither = _both(same_data, same_instr)
        history = HistoryModule()
        for name, stream in (("no_data_diversity", same_data),
                             ("no_instruction_diversity", same_instr),
                             ("no_diversity", neither)):
            _fill_histogram(history.histograms[name], stream)
        history.histograms["zero_staggering"].load_state_dict(
            streams.zero_staggering.state_dict())
        outcome = self._accounted[signature] = ReplayOutcome(
            stats=MonitorStats(
                sampled_cycles=len(neither),
                no_data_diversity_cycles=same_data.count(1),
                no_instruction_diversity_cycles=same_instr.count(1),
                no_diversity_cycles=neither.count(1)),
            diff_stats=dataclasses.replace(streams.diff_stats),
            history=history)
        return outcome

    @property
    def accounting_passes(self) -> int:
        """Distinct signature configurations accounted so far."""
        return len(self._accounted)

    def replay(self, signature: Optional[SignatureConfig] = None,
               mode: ReportingMode = ReportingMode.POLLING,
               threshold: int = 1) -> ReplayOutcome:
        """Outcome for one monitor configuration point."""
        outcome = self._accounting(signature or SignatureConfig())
        stats = outcome.stats
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
            diff_stats=outcome.diff_stats,
            history=outcome.history)

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
