"""Table II — classification of non-lockstepped redundancy techniques.

The paper's Table II is a taxonomy; this bench regenerates it and
*backs each class with a measurement* on the same workload:

* diversity unaware — plain redundancy: zero overhead, but no
  diversity evidence at all;
* diversity enforced (intrusive) — SafeDE and software staggering:
  diversity guaranteed (zero-staggering eliminated) at the cost of
  stall cycles and run-time overhead;
* diversity monitored (non-intrusive, this work) — SafeDM: zero
  run-time overhead, full diversity evidence.
"""

import pytest

from repro.analysis.tables import format_table2
from repro.baselines.safede import run_with_enforcement
from repro.baselines.sw_stagger import run_with_sw_staggering
from repro.soc.mpsoc import MPSoC
from repro.workloads import program

from bench_common import save_and_print

WORKLOAD = "countnegative"


def run_unaware():
    soc = MPSoC()
    soc.safedm.enabled = False
    soc.start_redundant(program(WORKLOAD))
    soc.run()
    return soc


def run_safedm():
    soc = MPSoC()
    soc.start_redundant(program(WORKLOAD))
    soc.run()
    return soc


def run_safede():
    soc = MPSoC()
    soc.start_redundant(program(WORKLOAD))
    enforcer = run_with_enforcement(soc, threshold=50)
    return soc, enforcer


def run_sw_stagger():
    soc = MPSoC()
    soc.start_redundant(program(WORKLOAD))
    staggerer = run_with_sw_staggering(soc, threshold=50,
                                       check_interval=100)
    return soc, staggerer


def test_table2_regeneration(benchmark):
    unaware = run_unaware()
    monitored = benchmark.pedantic(run_safedm, rounds=1, iterations=1)
    enforced, enforcer = run_safede()
    sw, staggerer = run_sw_stagger()

    baseline_cycles = unaware.cycle
    results = {
        "Diversity unaware": {
            "run cycles": baseline_cycles,
            "diversity evidence": "none (CCF risk invisible)",
        },
        "Diversity enforced (intrusive)": {
            "SafeDE run cycles": "%d (+%.1f%%)" % (
                enforced.cycle,
                100.0 * (enforced.cycle - baseline_cycles)
                / baseline_cycles),
            "SafeDE stall cycles": enforcer.stats.stall_cycles,
            "SW-stagger run cycles": "%d (+%.1f%%)" % (
                sw.cycle,
                100.0 * (sw.cycle - baseline_cycles) / baseline_cycles),
            "residual zero-staggering (SafeDE)":
                enforced.safedm.instruction_diff.stats
                .zero_staggering_cycles,
        },
        "Diversity monitored (non-intrusive)": {
            "run cycles": "%d (+0.0%%)" % monitored.cycle,
            "no-diversity cycles flagged":
                monitored.safedm.stats.no_diversity_cycles,
            "zero-staggering cycles flagged":
                monitored.safedm.instruction_diff.stats
                .zero_staggering_cycles,
        },
    }
    save_and_print("table2.txt", format_table2(results))

    # --- shape assertions ---
    # SafeDM is non-intrusive: identical cycle count to unaware.
    assert monitored.cycle == baseline_cycles
    # Enforcement is intrusive: it costs cycles and stalls.
    assert enforced.cycle > baseline_cycles
    assert enforcer.stats.stall_cycles > 0
    assert sw.cycle > baseline_cycles
    # Enforcement achieves its goal: (almost) no zero staggering.
    assert (enforced.safedm.instruction_diff.stats.zero_staggering_cycles
            < monitored.safedm.instruction_diff.stats
            .zero_staggering_cycles + 1)
