#!/usr/bin/env python3
"""Redundant pair under staggering: one Table I row, end to end.

Runs a TACLe kernel redundantly at each of the paper's initial
staggering values, prints the resulting Zero-stag / No-div cells, the
no-diversity episode histogram from the History module, and dumps a
GTKWave-compatible VCD of the monitor signals for the 0-nop run.

Usage:  python examples/redundant_pair.py [kernel] [--vcd out.vcd]
"""

import argparse

from repro.soc import MPSoC
from repro.soc.experiment import (
    PAPER_STAGGER_VALUES,
    run_cell,
    run_redundant_captured,
)
from repro.trace import monitor_vcd
from repro.workloads import all_names, program


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("kernel", nargs="?", default="cubic",
                        choices=all_names())
    parser.add_argument("--vcd", default=None,
                        help="write the 0-nop run's monitor VCD here")
    args = parser.parse_args()

    prog = program(args.kernel)
    print("Table I row for %r:" % args.kernel)
    print("  %10s %12s %10s" % ("staggering", "zero stag", "no div"))
    for nops in PAPER_STAGGER_VALUES:
        cell = run_cell(prog, args.kernel, nops)
        print("  %7d nops %12d %10d"
              % (nops, cell.zero_staggering_cycles,
                 cell.no_diversity_cycles))

    # Episode histogram of the 0-nop run (the History module view).
    soc = MPSoC(history_bin_size=4, history_bins=12)
    soc.start_redundant(prog)
    soc.run()
    hist = soc.safedm.history.histograms["no_diversity"]
    print()
    print("no-diversity episode histogram (0 nops, bin size %d):"
          % hist.bin_size)
    for (low, high), count in zip(hist.bin_ranges(), hist.bins):
        if count == 0:
            continue
        label = "%d-%s cycles" % (low, high if high else "inf")
        print("  %-16s %6d episodes  %s"
              % (label, count, "#" * min(count, 60)))
    print("  longest episode: %d cycles" % hist.longest)

    if args.vcd:
        _, trace = run_redundant_captured(prog, benchmark=args.kernel)
        monitor_vcd(trace).save(args.vcd)
        print()
        print("monitor waveform written to %s" % args.vcd)


if __name__ == "__main__":
    main()
