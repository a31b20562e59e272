"""The Diversity Monitor (paper Sections III-B.3 and IV-B).

Per cycle, SafeDM:

1. clocks each core's Data Signature FIFOs with that core's register-
   port samples (frozen while that core's pipeline holds),
2. clocks each core's Instruction Signature with that core's per-stage
   instruction words (the in-flight fallback is derived from them),
3. compares the two DSs and the two ISs: *lack of diversity* is reported
   only when **both** signatures match,
4. updates the staggering (instruction-diff) counter and the history
   histograms, and
5. applies the configured reporting mode:

   * ``INTERRUPT_FIRST`` — raise the interrupt on the first cycle
     without diversity,
   * ``INTERRUPT_THRESHOLD`` — raise once the cumulative count of
     no-diversity cycles reaches a user-programmed threshold,
   * ``POLLING`` — never interrupt; the OS polls the counters.

SafeDM is purely observational: nothing here stalls or otherwise
affects the monitored cores.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, Tuple

from .history import HistoryModule
from .instruction_diff import InstructionDiff
from .interrupts import InterruptLine
from .signatures import (
    DataSignatureUnit,
    InstructionSignatureUnit,
    IsVariant,
    SignatureConfig,
)


class ReportingMode(enum.Enum):
    """How lack of diversity is reported (paper Section III-B.3)."""

    INTERRUPT_FIRST = "interrupt_first"
    INTERRUPT_THRESHOLD = "interrupt_threshold"
    POLLING = "polling"


class CoreView(Protocol):
    """What SafeDM taps from each monitored core.

    One tap per signature: the register ports feed the DS and the
    per-stage instruction words feed the IS (either variant).
    :class:`repro.cpu.core.Core` satisfies this protocol directly.
    """

    hold: bool
    commits_this_cycle: int

    def stage_words(self) -> Sequence[Optional[Tuple[int, ...]]]: ...

    @property
    def regfile(self): ...


@dataclass
class MonitorStats:
    """Cycle counters accumulated by the monitor."""

    sampled_cycles: int = 0
    no_data_diversity_cycles: int = 0
    no_instruction_diversity_cycles: int = 0
    no_diversity_cycles: int = 0
    interrupts_raised: int = 0

    @property
    def diversity_cycles(self) -> int:
        return self.sampled_cycles - self.no_diversity_cycles

    def to_metrics(self, registry, labels=()):
        """Bridge the verdict counters into a telemetry registry.

        The one source of the ``repro_monitor_*`` verdict counters:
        :func:`repro.telemetry.collect_monitor` folds them in once,
        after the run, so telemetry never reaches the cycle loop.
        """
        registry.counter("repro_monitor_sampled_cycles_total",
                         labels).inc(self.sampled_cycles)
        registry.counter("repro_monitor_no_data_diversity_cycles_total",
                         labels).inc(self.no_data_diversity_cycles)
        registry.counter(
            "repro_monitor_no_instruction_diversity_cycles_total",
            labels).inc(self.no_instruction_diversity_cycles)
        registry.counter("repro_monitor_no_diversity_cycles_total",
                         labels).inc(self.no_diversity_cycles)


@dataclass
class CycleReport:
    """Outcome of one monitored cycle."""

    cycle: int
    data_diversity: bool
    instruction_diversity: bool
    staggering: int

    @property
    def diversity(self) -> bool:
        """Diversity exists if *either* signature differs."""
        return self.data_diversity or self.instruction_diversity

    @property
    def zero_staggering(self) -> bool:
        return self.staggering == 0


class DiversityMonitor:
    """SafeDM: signature generation + comparison + reporting."""

    def __init__(self, config: Optional[SignatureConfig] = None,
                 mode: ReportingMode = ReportingMode.POLLING,
                 threshold: int = 1,
                 history: Optional[HistoryModule] = None):
        self.config = config or SignatureConfig()
        self.mode = mode
        self.threshold = threshold
        self.enabled = True
        self.ds_units = (DataSignatureUnit(self.config),
                         DataSignatureUnit(self.config))
        self.is_units = (InstructionSignatureUnit(self.config),
                         InstructionSignatureUnit(self.config))
        self.instruction_diff = InstructionDiff()
        self.history = history
        self.irq = InterruptLine("safedm")
        self.stats = MonitorStats()
        # Last-report fields are kept unpacked and materialized into a
        # CycleReport lazily: the hot loop ticks every cycle, but only
        # tracing/APB readers ever look at the report object.
        self._have_report = False
        self._last_cycle = 0
        self._last_data_div = False
        self._last_instr_div = False
        self._last_stagger = 0
        # Optional raw-stream capture hook (attach_capture); the
        # disabled state costs the hot loop one None check per cycle.
        self._capture = None

    # -- capture -----------------------------------------------------------

    def attach_capture(self, recorder):
        """Bind a raw-stream recorder (capture-once / replay-many).

        ``recorder`` (see :class:`repro.trace.stream_trace.
        StreamRecorder`) receives ``record(cycle, core0, core1)`` once
        per observed cycle, *before* the signature units sample — so a
        recorded run holds exactly the streams any monitor
        configuration would have consumed, and :mod:`repro.replay` can
        recompute :class:`MonitorStats` for other configurations
        without re-simulating.  The hook is purely observational and
        is detached by :meth:`reset`.
        """
        self._capture = recorder

    @property
    def last_report(self) -> Optional[CycleReport]:
        """The most recent cycle's report (None before the first tick)."""
        if not self._have_report:
            return None
        return CycleReport(cycle=self._last_cycle,
                           data_diversity=self._last_data_div,
                           instruction_diversity=self._last_instr_div,
                           staggering=self._last_stagger)

    # -- low-level clocking (used directly by unit tests) ------------------

    def clock_core(self, index: int,
                   port_samples: Sequence[Tuple[int, int]],
                   stage_slots=None, inflight_words=None,
                   hold: bool = False):
        """Clock core ``index``'s signature units for one cycle."""
        self.ds_units[index].sample(port_samples, hold=hold)
        if self.config.is_variant is IsVariant.PER_STAGE:
            if stage_slots is None:
                raise ValueError("PER_STAGE variant needs stage_slots")
            self.is_units[index].sample_stages(stage_slots, hold=hold)
        else:
            if inflight_words is None:
                raise ValueError("INFLIGHT variant needs inflight_words")
            self.is_units[index].sample_inflight(inflight_words, hold=hold)

    def compare(self, cycle: int, commits0: int = 0,
                commits1: int = 0) -> CycleReport:
        """Compare signatures and update counters for one cycle."""
        data_div = not self.ds_units[0].equal(self.ds_units[1])
        instr_div = not self.is_units[0].equal(self.is_units[1])
        self._tick(cycle, data_div, instr_div, commits0, commits1)
        return self.last_report

    # -- high-level per-cycle observation ------------------------------------

    def observe(self, cycle: int, core0: CoreView,
                core1: CoreView) -> None:
        """Tap both cores for one cycle and evaluate diversity.

        Each core that is not held clocks its DS with its register-port
        samples and its IS with its stage words (the IS unit derives
        the INFLIGHT window itself).  This is the per-cycle fast path;
        the outcome is available via :attr:`last_report` and the
        accumulated :attr:`stats`.
        """
        if not self.enabled:
            return
        if self._capture is not None:
            self._capture.record(cycle, core0, core1)
        ds0, ds1 = self.ds_units
        is0, is1 = self.is_units
        if not core0.hold:
            ds0.sample(core0.regfile.port_samples())
            is0.sample_stage_words(core0.stage_words())
        if not core1.hold:
            ds1.sample(core1.regfile.port_samples())
            is1.sample_stage_words(core1.stage_words())
        self._tick(cycle, not ds0.equal(ds1), not is0.equal(is1),
                   core0.commits_this_cycle, core1.commits_this_cycle)

    # -- accounting & reporting ------------------------------------------------

    def _tick(self, cycle: int, data_div: bool, instr_div: bool,
              commits0: int, commits1: int):
        """Account one monitored cycle (shared by observe and compare)."""
        diff_unit = self.instruction_diff
        diff_unit.sample(commits0, commits1)
        stats = self.stats
        stats.sampled_cycles += 1
        no_data = not data_div
        no_instr = not instr_div
        no_div = no_data and no_instr
        if no_data:
            stats.no_data_diversity_cycles += 1
        if no_instr:
            stats.no_instruction_diversity_cycles += 1
        if no_div:
            stats.no_diversity_cycles += 1
            self._report_loss(cycle)
        diff = diff_unit.diff
        if self.history is not None:
            self.history.sample(no_data_diversity=no_data,
                                no_instruction_diversity=no_instr,
                                no_diversity=no_div,
                                zero_staggering=diff == 0)
        self._have_report = True
        self._last_cycle = cycle
        self._last_data_div = data_div
        self._last_instr_div = instr_div
        self._last_stagger = diff

    def _report_loss(self, cycle: int):
        if self.mode is ReportingMode.POLLING:
            return
        if self.mode is ReportingMode.INTERRUPT_FIRST:
            if not self.irq.pending:
                self._raise(cycle)
            return
        # INTERRUPT_THRESHOLD
        if (self.stats.no_diversity_cycles >= self.threshold
                and not self.irq.pending):
            self._raise(cycle)

    def _raise(self, cycle: int):
        self.stats.interrupts_raised += 1
        self.irq.raise_irq(cycle)

    # -- management -------------------------------------------------------------

    def finish(self):
        """Close open history episodes at end of run."""
        if self.history is not None:
            self.history.finish()

    def reset(self):
        for unit in self.ds_units:
            unit.reset()
        for unit in self.is_units:
            unit.reset()
        self.instruction_diff.reset()
        if self.history is not None:
            self.history.reset()
        self.irq.reset()
        self.stats = MonitorStats()
        self._have_report = False
        self._capture = None

    # -- snapshot protocol ------------------------------------------------

    def state_dict(self) -> dict:
        from ..checkpoint import stats_state
        return {
            "enabled": self.enabled,
            "mode": self.mode.value,
            "threshold": self.threshold,
            "ds_units": [unit.state_dict() for unit in self.ds_units],
            "is_units": [unit.state_dict() for unit in self.is_units],
            "instruction_diff": self.instruction_diff.state_dict(),
            "history": (None if self.history is None
                        else self.history.state_dict()),
            "irq": self.irq.state_dict(),
            "have_report": self._have_report,
            "last_cycle": self._last_cycle,
            "last_data_div": self._last_data_div,
            "last_instr_div": self._last_instr_div,
            "last_stagger": self._last_stagger,
            "stats": stats_state(self.stats),
        }

    def load_state_dict(self, state):
        from ..checkpoint import load_stats_state
        self.enabled = bool(state["enabled"])
        self.mode = ReportingMode(state["mode"])
        self.threshold = int(state["threshold"])
        for unit, entry in zip(self.ds_units, state["ds_units"]):
            unit.load_state_dict(entry)
        for unit, entry in zip(self.is_units, state["is_units"]):
            unit.load_state_dict(entry)
        self.instruction_diff.load_state_dict(state["instruction_diff"])
        if self.history is not None:
            if state["history"] is None:
                raise ValueError("snapshot has no history module state")
            self.history.load_state_dict(state["history"])
        self.irq.load_state_dict(state["irq"])
        self._have_report = bool(state["have_report"])
        self._last_cycle = int(state["last_cycle"])
        self._last_data_div = bool(state["last_data_div"])
        self._last_instr_div = bool(state["last_instr_div"])
        self._last_stagger = int(state["last_stagger"])
        load_stats_state(self.stats, state["stats"])

    def block_diagram(self) -> str:
        """Fig. 4-style description of the monitor's internal blocks."""
        cfg = self.config
        lines = [
            "SafeDM internal blocks (per Fig. 4):",
            "  Signature generator:",
            "    core0/core1 Data Signature: %d port FIFOs x depth %d"
            % (cfg.num_ports, cfg.ds_depth),
            "    core0/core1 Instruction Signature: %s" %
            self.is_units[0].layout(),
            "  Comparators: DS0==DS1 (%d bits), IS0==IS1 (%d bits)"
            % (self.ds_units[0].signature_bits(),
               self.is_units[0].signature_bits()),
            "  Instruction diff: commit-difference staggering counter",
            "  History module: %s" %
            ("attached" if self.history is not None else "not attached"),
            "  APB logic: register file (see repro.core.apb_regs)",
            "  Reporting mode: %s (threshold=%d)"
            % (self.mode.value, self.threshold),
        ]
        return "\n".join(lines)
