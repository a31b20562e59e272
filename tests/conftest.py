"""Shared fixtures and helpers for the SafeDM reproduction test suite."""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.isa import assemble
from repro.soc.config import SocConfig
from repro.soc.mpsoc import MPSoC
from repro.workloads import program as workload_program
from repro.workloads import workload


MASK64 = (1 << 64) - 1


@lru_cache(maxsize=64)
def run_workload_cached(name: str, stagger_nops: int = 0,
                        late_core: int = 1):
    """Run a workload redundantly once and cache the interesting state.

    Returns a dict snapshot (not the SoC itself) so cached results are
    immutable across tests.
    """
    soc = MPSoC()
    prog = workload_program(name)
    soc.start_redundant(prog, late_core=late_core,
                        stagger_nops=stagger_nops)
    soc.run(max_cycles=2_000_000)
    cfg = soc.config
    stats = soc.safedm.stats
    diff = soc.safedm.instruction_diff
    return {
        "cycles": soc.cycle,
        "finished": all(soc.cores[i].finished for i in soc.monitored),
        "checksum0": soc.memory.read(cfg.data_bases[0], 8),
        "checksum1": soc.memory.read(cfg.data_bases[1], 8),
        "expected": workload(name).expected_checksum,
        "committed0": soc.cores[0].stats.committed,
        "committed1": soc.cores[1].stats.committed,
        "zero_staggering": diff.stats.zero_staggering_cycles,
        "no_diversity": stats.no_diversity_cycles,
        "no_data_diversity": stats.no_data_diversity_cycles,
        "no_instruction_diversity": stats.no_instruction_diversity_cycles,
        "sampled": stats.sampled_cycles,
        "ipc0": soc.cores[0].stats.ipc,
        "mispredicts0": soc.cores[0].stats.branch_mispredicts,
    }


def run_asm_single(source: str, max_cycles: int = 200_000,
                   config: SocConfig = None):
    """Assemble ``source``, run it on core 0 only, return the SoC.

    Core 1 idles (started on an immediate ebreak), so tests can verify
    single-core architectural behaviour.
    """
    soc = MPSoC(config=config)
    prog = assemble(source, base=soc.config.text_base)
    soc.load(prog)
    halt = assemble("_start: ebreak", base=0x0008_0000)
    soc.load(halt)
    soc.start_core(0, prog.entry)
    soc.start_core(1, halt.entry)
    start = soc.cycle
    while soc.cycle - start < max_cycles:
        if soc.cores[0].finished:
            break
        soc.step()
    return soc


def run_asm_redundant(source: str, max_cycles: int = 200_000,
                      stagger_nops: int = 0, config: SocConfig = None,
                      **socargs):
    """Assemble ``source`` and run it redundantly; returns the SoC."""
    soc = MPSoC(config=config, **socargs)
    prog = assemble(source, base=soc.config.text_base)
    soc.start_redundant(prog, stagger_nops=stagger_nops)
    soc.run(max_cycles=max_cycles)
    return soc


def golden_points(program, config: SocConfig = None,
                  max_cycles: int = 2_000_000) -> list:
    """The per-cycle golden loop: step a fresh SoC on the reference
    tier exactly as a fault-free run of ``max_cycles`` goes and, after
    the step ending each cycle c, record what a common-cause fault at c
    sees: both cores' state and activity digests and SafeDM's verdict.
    Entry c is the oracle :meth:`repro.fault.ForkEngine.observe` is
    checked against; every field is computed from the primitives, on
    every cycle."""
    from repro.fault.injector import GoldenPoint, _activity_digest
    from repro.fault.models import state_digest
    soc = MPSoC(config=config)
    soc.start_redundant(program)
    watched = [soc.cores[index] for index in soc._watched_indices()]
    core0, core1 = (soc.cores[index] for index in soc.monitored)
    points = []
    while soc.cycle < max_cycles:
        if all(core.finished for core in watched):
            break
        soc.step()
        report = soc.safedm.last_report
        points.append(GoldenPoint(
            ((state_digest(core0), _activity_digest(soc, 0)),
             (state_digest(core1), _activity_digest(soc, 1))),
            -1 if report is None else int(report.diversity)))
    return points


@pytest.fixture
def soc():
    """A fresh default MPSoC."""
    return MPSoC()
