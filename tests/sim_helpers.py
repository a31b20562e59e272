"""Simulation helpers shared by the test modules.

A module with its own name, imported as ``from sim_helpers import ...``:
``conftest`` would resolve to whichever conftest module pytest loaded
first (``benchmarks/`` has one too).
"""

from __future__ import annotations

from functools import lru_cache

from repro.isa import assemble
from repro.soc.config import SocConfig
from repro.soc.mpsoc import MPSoC
from repro.workloads import program as workload_program
from repro.workloads import workload


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


def live_observed_cycles(program, stagger_nops: int = 0,
                         max_cycles: int = 200_000):
    """The per-cycle live monitor loop: step a fresh redundant pair on
    the reference tier and yield ``(cycle, soc, core0, core1)`` after
    every cycle SafeDM observed — it gates off once either monitored
    core finishes.  The oracle for the views replayed from a capture
    (the VCD, the pipeline text view, the static bound's measured
    verdicts)."""
    soc = MPSoC()
    soc.start_redundant(program, stagger_nops=stagger_nops)
    core0, core1 = (soc.cores[index] for index in soc.monitored)
    while soc.cycle < max_cycles:
        soc.step()
        if core0.finished or core1.finished:
            return
        yield soc.cycle - 1, soc, core0, core1


def _run_watched(soc, scheme, limit: int, stop_at: int = None) -> bool:
    """Step the reference interpreter until the scheme's replicas all
    finish, ``limit`` is reached, or ``stop_at`` (when given).  Returns
    True when every watched replica finished."""
    cores = [soc.cores[idx] for idx in scheme.watched()]
    bound = limit if stop_at is None else min(limit, stop_at)
    while soc.cycle < bound:
        if all(core.finished for core in cores):
            return True
        soc.step()
    return all(core.finished for core in cores)


def scheme_trial_oracle(sch, program, benchmark, config, fault_cycle: int,
                        stimulus: int, golden_outputs, max_cycles: int):
    """One scheme trial on its own reference-tier loop: a fresh scheme
    SoC stepped to ``fault_cycle``, the fault cycle stepped and every
    watched replica corrupted on its closing edge (activity digest 0),
    then stepped to the end or to ``max_cycles`` and classified by the
    scheme's checker.  The oracle
    :func:`repro.schemes.matrix.inject_scheme_ccf` is checked
    against, on either tier."""
    from repro.cpu.core import SimulationError
    from repro.fault.models import CommonCauseFault
    from repro.mem.memory import MemoryError_
    from repro.schemes.matrix import _classify
    fault = CommonCauseFault(cycle=fault_cycle, stimulus=stimulus)
    soc = sch.build(config)
    sch.start(soc, program, benchmark=benchmark)
    trapped = False
    finished = False
    effects = []
    try:
        finished = _run_watched(soc, sch, max_cycles, stop_at=fault_cycle)
        if not finished and soc.cycle == fault_cycle \
                and soc.cycle < max_cycles:
            soc.step()
            for idx in sch.watched():
                effect = fault.effect_on(soc.cores[idx], activity=0)
                effect.apply(soc.cores[idx])
                effects.append((effect.register, effect.bit))
            finished = _run_watched(soc, sch, max_cycles)
    except (MemoryError_, SimulationError):
        trapped = True
    for monitor in soc.monitors:
        monitor.finish()
    sch.finish(soc)
    return _classify(sch, soc, trapped, golden_outputs, fault_cycle,
                     stimulus, tuple(effects))
