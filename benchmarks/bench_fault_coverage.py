"""CCF coverage — SafeDM's no-false-negative property under injection.

The paper argues (Section III-A) that SafeDM "can only raise false
positives ... but not false negatives": whenever a common-cause fault
could corrupt both cores identically, SafeDM has already reported lack
of diversity.  This bench runs common-cause campaigns on a sound
(private address spaces) and an unsound (shared address space)
redundant deployment and cross-references every silent escape with
SafeDM's verdict at the injection instant.
"""

import pytest

from repro.fault.campaign import run_ccf_campaign, spread_cycles
from repro.fault.injector import shared_address_config
from repro.workloads import program

from bench_common import save_and_print

WORKLOAD = "countnegative"
INJECTIONS = 10
STIMULI = [0x5EED, 0xBEEF, 0x70AD]


def campaigns():
    prog = program(WORKLOAD)
    cycles = spread_cycles(13000, INJECTIONS)
    return {
        "private address spaces":
            run_ccf_campaign(prog, cycles, stimuli=STIMULI),
        "shared address space (unsound)":
            run_ccf_campaign(prog, cycles, stimuli=STIMULI,
                             config=shared_address_config()),
    }


def test_ccf_coverage(benchmark):
    results = benchmark.pedantic(campaigns, rounds=1, iterations=1)

    lines = ["Common-cause fault coverage on %r (%d injections each)"
             % (WORKLOAD, INJECTIONS * len(STIMULI)), ""]
    for scenario, result in results.items():
        lines.append("%s:" % scenario)
        lines.append("  " + result.summary())
    lines.append("")
    lines.append("property: silent_despite_diversity == 0 everywhere "
                 "(no false negatives)")
    save_and_print("fault_coverage.txt", "\n".join(lines))

    for scenario, result in results.items():
        # The paper's central safety property.
        assert result.silent_despite_diversity == 0, scenario
        # Everything is accounted for.
        total = (result.masked + result.detected + result.silent_ccf
                 + result.count("hang"))
        assert total == len(result.injections)
    # The sound deployment cannot poison its twin through shared state.
    assert results["private address spaces"].silent_via_shared_state == 0
