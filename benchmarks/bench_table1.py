"""Table I — per-benchmark zero-staggering / no-diversity cycles.

Regenerates the paper's main result: for each TACLe benchmark and each
initial staggering (0 / 100 / 1,000 / 10,000 nops), the number of
cycles with zero staggering and the number of cycles SafeDM reports no
diversity, following the paper's repetition protocol (max over runs).

Expected shape (paper Section V-C): counts concentrate in the 0-nop
column, decay by 100 nops and essentially vanish at 10,000 nops, with
ALU-dense kernels (cubic) at the top and occasional timing-anomaly
exceptions (pm).  Absolute values are smaller than the paper's because
the workloads are scaled down (see DESIGN.md).
"""

import pytest

from repro.analysis.stats import monotonic_decay, summarize_sweep
from repro.analysis.tables import format_table1, format_table1_csv
from repro.soc.experiment import PAPER_STAGGER_VALUES, run_row
from repro.workloads import TACLE_KERNELS, program

from bench_common import TABLE1_SUBSET, full_table1, save_and_print

_ROWS_CACHE = {}


def table1_rows():
    if not _ROWS_CACHE:
        names = TACLE_KERNELS if full_table1() else TABLE1_SUBSET
        for name in names:
            _ROWS_CACHE[name] = run_row(program(name), name,
                                        stagger_values=PAPER_STAGGER_VALUES)
    return _ROWS_CACHE


def test_table1_regeneration(benchmark):
    rows = benchmark.pedantic(table1_rows, rounds=1, iterations=1)

    text = [format_table1(rows, PAPER_STAGGER_VALUES), ""]
    for nops in PAPER_STAGGER_VALUES:
        summary = summarize_sweep(rows, nops)
        text.append(
            "%6d nops: mean zero-stag %8.1f  mean no-div %8.1f  "
            "(benchmarks with counts: %d / %d)"
            % (nops, summary.mean_zero_staggering,
               summary.mean_no_diversity,
               summary.benchmarks_with_no_div, summary.benchmarks))
    decay = monotonic_decay(rows, PAPER_STAGGER_VALUES)
    exceptions = [n for n, ok in decay.items() if not ok]
    text.append("")
    text.append("decay exceptions (paper's pm-style anomalies): %s"
                % (exceptions or "none"))
    save_and_print("table1.txt", "\n".join(text))
    save_and_print("table1.csv", format_table1_csv(rows,
                                                   PAPER_STAGGER_VALUES))

    # --- shape assertions (the reproduction criteria) ---
    s0 = summarize_sweep(rows, 0)
    s10000 = summarize_sweep(rows, 10000)
    # counts concentrate at 0 nops and essentially vanish at 10,000
    assert s0.total_no_diversity > s10000.total_no_diversity
    assert s10000.benchmarks_with_no_div <= max(1, s0.benchmarks // 4)
    # every run completed
    for cells in rows.values():
        for cell in cells:
            assert all(r.finished for r in cell.runs)
