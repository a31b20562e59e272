"""Compare benchmark runs of a parent commit and a change.

Usage::

    python3 benchmarks/suite/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records ``run.py --out DIR`` writes
(``<workload>-seed<S>-trace0.json``).  Runs pair up by workload and
seed; make them alternately (parent, change, change, parent, ...) with
identical ``--seconds`` and at least ten seeds.

One row per (workload, end-to-end metric), marked

* ``improved``   — the change wins at least 9/10 of the pairs (ties
  count for neither), its median differs from the parent's by more
  than the parent's interquartile range, at least ten pairs ran, and
  no more ops failed than at the parent;
* ``regressed``  — the change's median is worse than the parent's by
  more than the metric's bound in BENCHMARK.json;
* ``unresolved`` — neither, and the parent's own spread (IQR over
  median) is wider than the bound, unless every change run reads
  better than every parent run;
* ``unchanged``  — otherwise.

Exits 1 if any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(directory: Path) -> dict:
    """(workload, seed) -> run record."""
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs[record["workload"], record["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better: str, bound: float,
            parent_failed: int, change_failed: int) -> str:
    """Classify one (workload, metric) row from paired values."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "regressed"
    if (len(parent) >= 10 and wins >= 0.9 * len(parent)
            and abs(c_med - p_med) > q3 - q1
            and change_failed <= parent_failed):
        return "improved"
    if p_med and (q3 - q1) / abs(p_med) > bound:
        every = all(sign * (c - p) > 0 for c in change for p in parent)
        return "improved" if every and change_failed <= parent_failed \
            else "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no (workload, seed) runs in common", file=sys.stderr)
        return 2

    print("%-15s %-12s %5s  %-34s %-34s %6s  %s"
          % ("workload", "metric", "pairs", "parent median [q1, q3]",
             "change median [q1, q3]", "wins", "verdict"))
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = [key for key in keys if key[0] == workload]
        if not pairs:
            continue
        parent_failed = sum(parent[key]["failed"] for key in pairs)
        change_failed = sum(change[key]["failed"] for key in pairs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[key]["metrics"][name]["value"] for key in pairs]
            c = [change[key]["metrics"][name]["value"] for key in pairs]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            row = verdict(p, c, metric["better"], metric["bound"],
                          parent_failed, change_failed)
            regressed = regressed or row == "regressed"
            print("%-15s %-12s %5d  %-34s %-34s %6s  %s"
                  % (workload, name, len(pairs),
                     "%.4g [%.4g, %.4g]" % ((statistics.median(p),)
                                            + quartiles(p)),
                     "%.4g [%.4g, %.4g]" % ((statistics.median(c),)
                                            + quartiles(c)),
                     "%d/%d" % (wins, len(pairs)), row))
        if change_failed > parent_failed:
            print("%-15s ops failed: parent %d, change %d"
                  % (workload, parent_failed, change_failed))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
