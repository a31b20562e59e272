"""Minimal VCD (Value Change Dump) writer.

The paper validates SafeDM by inspecting pipelines cycle-by-cycle in
Modelsim; this writer produces standard VCD files, and
:func:`monitor_vcd` renders a captured run's SafeDM signals into one,
so runs can be inspected in GTKWave or any waveform viewer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Short VCD identifier for signal ``index``."""
    out = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        out = _ID_CHARS[rem] + out
    return out


@dataclass
class _Signal:
    name: str
    width: int
    ident: str
    last_value: Optional[int] = None


class VcdWriter:
    """Collects value changes and renders a VCD document."""

    def __init__(self, module: str = "safedm",
                 timescale: str = "1 ns"):
        self.module = module
        self.timescale = timescale
        self._signals: Dict[str, _Signal] = {}
        self._changes: List[tuple] = []  # (time, ident, width, value)

    def add_signal(self, name: str, width: int = 1):
        """Declare a wire before recording changes on it."""
        if name in self._signals:
            raise ValueError("duplicate signal %r" % name)
        if width < 1:
            raise ValueError("signal width must be >= 1")
        self._signals[name] = _Signal(name=name, width=width,
                                      ident=_identifier(
                                          len(self._signals)))

    def change(self, time: int, name: str, value: int):
        """Record ``name`` taking ``value`` at ``time`` (deduplicated)."""
        signal = self._signals.get(name)
        if signal is None:
            raise KeyError("unknown signal %r" % name)
        value &= (1 << signal.width) - 1
        if signal.last_value == value:
            return
        signal.last_value = value
        self._changes.append((time, signal.ident, signal.width, value))

    def sample_all(self, time: int, values: Dict[str, int]):
        """Record a dict of signal values at one timestamp."""
        for name, value in values.items():
            self.change(time, name, value)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        lines = [
            "$date SafeDM reproduction run $end",
            "$timescale %s $end" % self.timescale,
            "$scope module %s $end" % self.module,
        ]
        for signal in self._signals.values():
            lines.append("$var wire %d %s %s $end"
                         % (signal.width, signal.ident, signal.name))
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")
        current_time = None
        for time, ident, width, value in sorted(self._changes,
                                                key=lambda c: c[0]):
            if time != current_time:
                lines.append("#%d" % time)
                current_time = time
            if width == 1:
                lines.append("%d%s" % (value & 1, ident))
            else:
                lines.append("b%s %s" % (bin(value)[2:], ident))
        return "\n".join(lines) + "\n"

    def save(self, path: str):
        with open(path, "w") as handle:
            handle.write(self.render())


def monitor_vcd(trace) -> VcdWriter:
    """Replay a captured run (a :class:`~repro.trace.stream_trace.
    StreamTrace`) through SafeDM and dump its signals as a VCD.

    Wires: the lack-of-diversity flags, the staggering counter and the
    interrupt line, read off the replayed monitor after each observed
    cycle, plus per-core hold and commit counts from the capture.  The
    waveform ends at the last cycle SafeDM observed.
    """
    from ..replay.engine import ReplayMonitor
    vcd = VcdWriter()
    vcd.add_signal("no_diversity", 1)
    vcd.add_signal("no_data_diversity", 1)
    vcd.add_signal("no_instruction_diversity", 1)
    vcd.add_signal("zero_staggering", 1)
    vcd.add_signal("staggering", 32)
    vcd.add_signal("core0_hold", 1)
    vcd.add_signal("core1_hold", 1)
    vcd.add_signal("core0_commits", 2)
    vcd.add_signal("core1_commits", 2)
    vcd.add_signal("irq", 1)
    replay = ReplayMonitor(trace)
    monitor = replay.monitor
    for sample in replay.cycles():
        report = monitor.last_report
        core0, core1 = sample.cores
        vcd.sample_all(sample.cycle, {
            "no_diversity": 0 if report.diversity else 1,
            "no_data_diversity": 0 if report.data_diversity else 1,
            "no_instruction_diversity":
                0 if report.instruction_diversity else 1,
            "zero_staggering": 1 if report.zero_staggering else 0,
            "staggering": report.staggering & 0xFFFFFFFF,
            "core0_hold": 1 if core0.hold else 0,
            "core1_hold": 1 if core1.hold else 0,
            "core0_commits": core0.commits,
            "core1_commits": core1.commits,
            "irq": 1 if monitor.irq.pending else 0,
        })
    return vcd
