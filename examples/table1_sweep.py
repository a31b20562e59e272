#!/usr/bin/env python3
"""Full Table I sweep: all 29 TACLe kernels x 4 staggering setups.

Reproduces the paper's main table with the full repetition protocol
(arbiter variants for 0 nops; both late-core choices for staggered
runs; max over runs per cell).  Runs are fanned out across worker
processes and cached by content, so a repeated sweep is nearly
instant; results are bit-for-bit identical to the serial path.

Usage:
    python examples/table1_sweep.py                # all 29 kernels
    python examples/table1_sweep.py cubic pm md5   # selected kernels
    python examples/table1_sweep.py --csv out.csv  # also write CSV
    python examples/table1_sweep.py --jobs 1       # serial reference
    python examples/table1_sweep.py --no-cache     # force re-simulation
"""

import argparse
import time

from repro.analysis.stats import monotonic_decay, summarize_sweep
from repro.analysis.tables import format_table1, format_table1_csv
from repro.runner import ParallelSweep
from repro.soc.experiment import PAPER_STAGGER_VALUES
from repro.workloads import all_names


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("kernels", nargs="*", default=None,
                        help="kernel names (default: all 29)")
    parser.add_argument("--csv", default=None,
                        help="also write the table as CSV")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: all cores; "
                             "1 = serial in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not populate the run cache")
    args = parser.parse_args()

    names = args.kernels or all_names()
    unknown = set(names) - set(all_names())
    if unknown:
        parser.error("unknown kernels: %s" % ", ".join(sorted(unknown)))
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1, got %d" % args.jobs)

    start = time.time()
    sweep = ParallelSweep(jobs=args.jobs, use_cache=not args.no_cache,
                          progress=True)
    rows = sweep.run_table(names, stagger_values=PAPER_STAGGER_VALUES)

    print()
    print(format_table1(rows, PAPER_STAGGER_VALUES))
    print()
    for nops in PAPER_STAGGER_VALUES:
        summary = summarize_sweep(rows, nops)
        print("%6d nops: max zero-stag %7d  max no-div %7d  "
              "benchmarks with no-div: %2d/%d"
              % (nops, summary.max_zero_staggering,
                 summary.max_no_diversity,
                 summary.benchmarks_with_no_div, summary.benchmarks))
    exceptions = [n for n, ok in
                  monotonic_decay(rows, PAPER_STAGGER_VALUES).items()
                  if not ok]
    print()
    print("decay exceptions (pm-style timing anomalies): %s"
          % (", ".join(exceptions) if exceptions else "none"))
    print("total wall time: %.1fs" % (time.time() - start))

    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(format_table1_csv(rows, PAPER_STAGGER_VALUES))
        print("CSV written to %s" % args.csv)


if __name__ == "__main__":
    main()
