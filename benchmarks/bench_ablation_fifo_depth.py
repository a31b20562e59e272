"""Ablation — DS FIFO depth n (paper III-B.1: 'implementation specific').

A deeper window holds address-bearing port samples longer, so fewer
cycles look non-diverse; the cost is linear area growth (see
bench_overheads).  Sweeps n on the ALU-dense ``cubic`` kernel where the
effect is largest.
"""

import pytest

from repro.core.overheads import estimate
from repro.core.signatures import SignatureConfig
from repro.soc.config import SocConfig
from repro.soc.experiment import run_redundant
from repro.workloads import program

from bench_common import save_and_print

DEPTHS = (3, 7, 14, 28)
WORKLOAD = "cubic"


def run_depth(depth: int):
    cfg = SocConfig(signature=SignatureConfig(ds_depth=depth))
    return run_redundant(program(WORKLOAD), benchmark=WORKLOAD,
                         config=cfg)


def sweep():
    return {depth: run_depth(depth) for depth in DEPTHS}


def test_fifo_depth_ablation(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = ["DS FIFO depth ablation on %r" % WORKLOAD, "",
             "  %4s %12s %14s %8s" % ("n", "no-div cyc",
                                      "no-data-div cyc", "LUTs")]
    for depth, result in results.items():
        area = estimate(SignatureConfig(ds_depth=depth)).luts
        lines.append("  %4d %12d %14d %8d"
                     % (depth, result.no_diversity_cycles,
                        result.no_data_diversity_cycles, area))
    save_and_print("ablation_fifo_depth.txt", "\n".join(lines))

    nodiv = [results[d].no_diversity_cycles for d in DEPTHS]
    # Deeper windows never report more lack of data diversity.
    nodata = [results[d].no_data_diversity_cycles for d in DEPTHS]
    assert all(a >= b for a, b in zip(nodata, nodata[1:]))
    assert nodiv[0] >= nodiv[-1]
    # All runs completed and the effect is visible at the extremes.
    assert all(r.finished for r in results.values())
    assert results[3].no_data_diversity_cycles > \
        results[28].no_data_diversity_cycles
