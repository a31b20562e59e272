#!/usr/bin/env python3
"""Regenerate the paper's figures as structural self-descriptions.

Figures 1-4 of the paper are schematics, not data plots; each module in
this reproduction can describe its own structure, so the "figures" are
regenerated from the live objects:

* Fig. 1 — lockstepped core (repro.schemes.lockstep)
* Fig. 2a/2b — Data / Instruction signature layout (repro.core.signatures)
* Fig. 3 — MPSoC with SafeDM (repro.soc)
* Fig. 4 — SafeDM internal blocks (repro.core.monitor)
"""

from repro.core.history import HistoryModule
from repro.core.monitor import DiversityMonitor
from repro.core.signatures import (
    DataSignatureUnit,
    InstructionSignatureUnit,
    SignatureConfig,
)
from repro.schemes.lockstep import LockstepComparator
from repro.soc import MPSoC


def main():
    print("Fig. 1 — the baseline SafeDM replaces")
    print("-" * 60)
    print(LockstepComparator(stagger=2).describe())
    print()

    config = SignatureConfig()
    print("Fig. 2a — Data Signature layout "
          "(m=%d ports, n=%d cycles)" % (config.num_ports,
                                         config.ds_depth))
    print("-" * 60)
    print(DataSignatureUnit(config).layout())
    print()
    print("Fig. 2b — Instruction Signature layout "
          "(p=%d wide, o=%d stages)" % (config.pipeline_width,
                                        config.pipeline_stages))
    print("-" * 60)
    print(InstructionSignatureUnit(config).layout())
    print()

    print("Fig. 3 — MPSoC schematic with SafeDM")
    print("-" * 60)
    print(MPSoC().describe())
    print()

    print("Fig. 4 — SafeDM internal block diagram")
    print("-" * 60)
    monitor = DiversityMonitor(history=HistoryModule())
    print(monitor.block_diagram())


if __name__ == "__main__":
    main()
