"""Ablation — store-buffer coalescing and the pm timing anomaly.

Paper Section V-C explains the `pm` exception at 1,000-nop staggering
through store-buffer coalescing: the delayed core's stores pile up
behind the busy bus and merge per cache line, so it completes its store
bursts with fewer transactions and catches up.  This bench quantifies
the mechanism on the store-burst-heavy ``pm`` kernel by toggling
coalescing and measuring run time, store transactions, and the
staggered pair's zero-staggering residue.
"""

import pytest

from repro.cpu.core import CoreConfig
from repro.soc.config import SocConfig
from repro.soc.mpsoc import MPSoC
from repro.workloads import program

from bench_common import save_and_print

WORKLOAD = "pm"
STAGGERS = (0, 100, 1000)


def run_config(coalesce: bool, stagger: int):
    cfg = SocConfig(core=CoreConfig(store_buffer_coalesce=coalesce))
    soc = MPSoC(config=cfg)
    soc.start_redundant(program(WORKLOAD), stagger_nops=stagger)
    soc.run()
    return {
        "cycles": soc.cycle,
        "zero_stag":
            soc.safedm.instruction_diff.stats.zero_staggering_cycles,
        "no_div": soc.safedm.stats.no_diversity_cycles,
        "store_txns": sum(c.store_buffer.stats.transactions
                          for c in soc.cores),
        "coalesced": sum(c.store_buffer.stats.coalesced
                         for c in soc.cores),
    }


def sweep():
    return {(coalesce, stagger): run_config(coalesce, stagger)
            for coalesce in (True, False)
            for stagger in STAGGERS}


def test_store_buffer_ablation(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = ["Store-buffer coalescing ablation on %r" % WORKLOAD, "",
             "  %-10s %8s %9s %10s %10s %10s"
             % ("coalesce", "stagger", "cycles", "store txn",
                "coalesced", "zero-stag")]
    for (coalesce, stagger), r in results.items():
        lines.append("  %-10s %8d %9d %10d %10d %10d"
                     % (coalesce, stagger, r["cycles"],
                        r["store_txns"], r["coalesced"], r["zero_stag"]))
    save_and_print("ablation_store_buffer.txt", "\n".join(lines))

    for stagger in STAGGERS:
        with_c = results[(True, stagger)]
        without_c = results[(False, stagger)]
        # Coalescing strictly reduces bus write traffic...
        assert with_c["store_txns"] < without_c["store_txns"]
        assert with_c["coalesced"] > 0
        assert without_c["coalesced"] == 0
        # ...and never slows the run down.
        assert with_c["cycles"] <= without_c["cycles"]
