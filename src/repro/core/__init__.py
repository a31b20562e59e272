"""SafeDM: the paper's contribution — a hardware diversity monitor.

Public surface:

* :class:`DiversityMonitor` + :class:`ReportingMode` -- the monitor
* :class:`SignatureConfig`, :class:`DataSignatureUnit`,
  :class:`InstructionSignatureUnit`, :class:`IsVariant` -- signatures
* :class:`InstructionDiff` -- staggering counter
* :class:`HistoryModule`, :class:`EpisodeHistogram` -- results gathering
* :class:`SafeDmApbSlave` -- APB register file
* :func:`estimate` / :func:`sweep_ds_depth` -- area & power model
"""

from .apb_regs import SafeDmApbSlave, make_monitored_slave
from .history import EpisodeHistogram, HistoryModule
from .instruction_diff import InstructionDiff, InstructionDiffStats
from .interrupts import InterruptLine
from .monitor import (
    CycleReport,
    DiversityMonitor,
    MonitorStats,
    ReportingMode,
)
from .overheads import (
    BASELINE_MPSOC_LUTS,
    BASELINE_MPSOC_WATTS,
    PAPER_CONFIG,
    OverheadReport,
    estimate,
    sweep_ds_depth,
)
from .signatures import (
    DataSignatureUnit,
    InstructionSignatureUnit,
    IsVariant,
    SignatureConfig,
)

__all__ = [
    "BASELINE_MPSOC_LUTS",
    "BASELINE_MPSOC_WATTS",
    "CycleReport",
    "DataSignatureUnit",
    "DiversityMonitor",
    "EpisodeHistogram",
    "HistoryModule",
    "InstructionDiff",
    "InstructionDiffStats",
    "InstructionSignatureUnit",
    "InterruptLine",
    "IsVariant",
    "MonitorStats",
    "OverheadReport",
    "PAPER_CONFIG",
    "ReportingMode",
    "SafeDmApbSlave",
    "SignatureConfig",
    "estimate",
    "make_monitored_slave",
    "sweep_ds_depth",
]
