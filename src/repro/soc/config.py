"""MPSoC configuration (paper Section IV-A).

The modelled platform mirrors the Cobham Gaisler NOEL-V MPSoC: two
dual-issue 7-stage RV64 cores with private L1s, a shared L2 behind a
128-bit AHB, a memory controller, and SafeDM attached through an APB
bridge.  Address-space layout follows the paper's software-redundancy
setup: both cores execute the *same text image* while each owns a
private data/stack region (redundant threads "have different address
spaces", which is one of the natural diversity sources).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..core.signatures import SignatureConfig
from ..cpu.core import CoreConfig
from ..mem.bus import BusTiming
from ..mem.cache import CacheConfig

#: Default per-core data-region layout: core ``i`` owns the region at
#: ``DEFAULT_DATA_BASE + i * DATA_REGION_STRIDE``.  The two-core
#: default ``data_bases`` below is the ``i = 0, 1`` prefix of this
#: progression; wider platforms derive the remaining bases from it.
DEFAULT_DATA_BASE = 0x4000_0000
DATA_REGION_STRIDE = 0x1000_0000


def derived_data_bases(num_cores: int) -> Tuple[int, ...]:
    """The default private data-region base for each of ``num_cores``."""
    return tuple(DEFAULT_DATA_BASE + i * DATA_REGION_STRIDE
                 for i in range(num_cores))


@dataclass
class SocConfig:
    """Full platform configuration."""

    num_cores: int = 2
    core: CoreConfig = field(default_factory=CoreConfig)
    bus_timing: BusTiming = field(default_factory=BusTiming)
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size=65536, line_size=32, ways=8, name="l2"))
    signature: SignatureConfig = field(default_factory=SignatureConfig)

    #: Shared text image base (identical across cores).
    text_base: int = 0x0001_0000
    #: Per-core private data region bases (the gp register at start).
    data_bases: Tuple[int, ...] = (0x4000_0000, 0x5000_0000)
    #: Size of each core's private data region; sp starts at its top.
    data_size: int = 0x0010_0000
    #: Base address where per-core staggering nop sleds are emitted.
    sled_base: int = 0x0010_0000
    #: APB bridge base address.
    apb_base: int = 0xFC00_0000

    def __post_init__(self):
        if self.num_cores < 2:
            raise ValueError("the monitored platform needs >= 2 cores")
        self.data_bases = tuple(self.data_bases)
        if len(self.data_bases) < self.num_cores:
            # Derive the missing bases when the configured ones are a
            # prefix of the default progression; a *custom* layout that
            # names too few regions is a real inconsistency — guessing
            # the rest could silently alias a deliberate mapping.
            if self.data_bases != derived_data_bases(
                    len(self.data_bases)):
                raise ValueError(
                    "inconsistent data_bases override: %d cores but"
                    " only %d custom bases %s — name one region per"
                    " core, or leave data_bases at its default to"
                    " derive them"
                    % (self.num_cores, len(self.data_bases),
                       tuple(hex(b) for b in self.data_bases)))
            self.data_bases = derived_data_bases(self.num_cores)
        for base in self.data_bases:
            if base + self.data_size > self.apb_base:
                raise ValueError(
                    "data region at %#x (+%#x) overlaps the APB space"
                    " at %#x" % (base, self.data_size, self.apb_base))
        if self.text_base % 8:
            raise ValueError("text base must be 8-byte aligned")

    def data_base(self, core_id: int) -> int:
        return self.data_bases[core_id]

    def stack_top(self, core_id: int) -> int:
        # Keep 16-byte alignment, leave a redzone word at the very top.
        return self.data_bases[core_id] + self.data_size - 16

    def describe(self) -> str:
        """Fig. 3-style schematic of the platform."""
        core_lines = "\n".join(
            "  | NOEL-V core %d: %d-wide, 7-stage | L1I %dKB | L1D %dKB |"
            % (cid, self.core.issue_width, self.core.l1i.size // 1024,
               self.core.l1d.size // 1024)
            for cid in range(self.num_cores))
        return "\n".join([
            "MPSoC schematic (per Fig. 3):",
            core_lines,
            "  |---------------- AHB 128-bit ----------------|",
            "  | shared L2 %dKB | memory controller | APB bridge |"
            % (self.l2.size // 1024),
            "  APB: SafeDM (signature generator, comparators,",
            "       instruction diff, history, APB logic)",
        ])
