"""Ablation — the three reporting modes (paper III-B.3).

Measures detection latency (cycle of the first interrupt) and
interrupt volume for interrupt-on-first vs interrupt-on-threshold vs
polling, on the kernel with the most diversity loss.
"""

import pytest

from repro.core.monitor import ReportingMode
from repro.soc.mpsoc import MPSoC
from repro.workloads import program

from bench_common import save_and_print

WORKLOAD = "cubic"


def run_mode(mode: ReportingMode, threshold: int = 1):
    soc = MPSoC(mode=mode, threshold=threshold)
    first_irq = []
    soc.safedm.irq.subscribe(lambda cycle: first_irq.append(cycle))
    soc.start_redundant(program(WORKLOAD))
    soc.run()
    return {
        "cycles": soc.cycle,
        "no_div": soc.safedm.stats.no_diversity_cycles,
        "interrupts": soc.safedm.stats.interrupts_raised,
        "first_irq_cycle": first_irq[0] if first_irq else None,
    }


def sweep():
    return {
        "polling": run_mode(ReportingMode.POLLING),
        "interrupt_first": run_mode(ReportingMode.INTERRUPT_FIRST),
        "threshold_100": run_mode(ReportingMode.INTERRUPT_THRESHOLD,
                                  threshold=100),
        "threshold_5000": run_mode(ReportingMode.INTERRUPT_THRESHOLD,
                                   threshold=5000),
    }


def test_reporting_mode_ablation(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = ["Reporting-mode ablation on %r" % WORKLOAD, "",
             "  %-16s %10s %12s %16s"
             % ("mode", "irqs", "no-div cyc", "first-irq cycle")]
    for mode, result in results.items():
        lines.append("  %-16s %10d %12d %16s"
                     % (mode, result["interrupts"], result["no_div"],
                        result["first_irq_cycle"]))
    save_and_print("ablation_modes.txt", "\n".join(lines))

    # Monitoring itself is identical in every mode.
    no_div = {r["no_div"] for r in results.values()}
    assert len(no_div) == 1
    cycles = {r["cycles"] for r in results.values()}
    assert len(cycles) == 1  # reporting never perturbs execution
    # Polling never interrupts; interrupt-first fires earliest.
    assert results["polling"]["interrupts"] == 0
    assert results["interrupt_first"]["interrupts"] == 1
    assert results["interrupt_first"]["first_irq_cycle"] <= \
        results["threshold_100"]["first_irq_cycle"]
    assert results["threshold_100"]["first_irq_cycle"] <= \
        results["threshold_5000"]["first_irq_cycle"]
