"""Per-cycle textual pipeline traces (the "Modelsim view").

The paper validates SafeDM by visually inspecting pipeline contents in
Modelsim; :class:`PipelineTracer` renders the same view as text — one
line per observed cycle per monitored core showing every stage's
occupancy — from a captured run, so specific cycles (e.g. a reported
lack of diversity) can be audited by eye.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..cpu.pipeline import STAGE_NAMES


@dataclass
class TraceLine:
    cycle: int
    core: int
    hold: bool
    stages: tuple

    def render(self) -> str:
        parts = []
        for name, group in zip(STAGE_NAMES, self.stages):
            if group is None:
                parts.append("%s:%-21s" % (name, "-"))
            else:
                words = "/".join("%08x" % w for w in group)
                parts.append("%s:%-21s" % (name, words))
        flag = "H" if self.hold else " "
        return "c%-7d core%d %s %s" % (self.cycle, self.core, flag,
                                       " ".join(parts))


class PipelineTracer:
    """Stage occupancy of both monitored cores of a captured run
    (a :class:`~repro.trace.stream_trace.StreamTrace`), one
    :class:`TraceLine` per observed cycle per core.

    A held core shows its previous stages: a held pipeline moves
    nothing, so the capture drops its stages just as the IS unit does.
    """

    def __init__(self, trace):
        self.lines: List[TraceLine] = []
        empty = (None,) * len(STAGE_NAMES)
        stages = [empty, empty]
        for sample in trace:
            for index, core in enumerate(sample.cores):
                if not core.hold:
                    stages[index] = core.stages
                self.lines.append(TraceLine(
                    cycle=sample.cycle, core=index, hold=core.hold,
                    stages=stages[index]))

    def render(self, last: Optional[int] = None) -> str:
        """Render every line, or those of the ``last`` observed cycles."""
        lines = self.lines
        if last is not None:
            if last < 0:
                raise ValueError("last must be at least 0, got %d" % last)
            # Two cores per observed cycle; lines[-0:] would be all.
            lines = lines[-last * 2:] if last else []
        return "\n".join(line.render() for line in lines)

    def around(self, cycle: int, radius: int = 3) -> str:
        """Render the trace lines within ``radius`` cycles of ``cycle``."""
        selected = [line for line in self.lines
                    if abs(line.cycle - cycle) <= radius]
        return "\n".join(line.render() for line in selected)
