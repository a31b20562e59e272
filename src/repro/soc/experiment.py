"""Redundant-execution experiment protocol (paper Section V-B).

Reproduces the paper's measurement procedure:

* *Without staggering* — both cores start the program in the same cycle.
* *With staggering* — the late core first executes 100 / 1,000 / 10,000
  nops; runs are repeated with each core taking the late role.

For every run we record the number of cycles with zero staggering
(commit difference of 0 at program level) and the number of cycles in
which SafeDM reports no diversity (both signatures equal), i.e. the two
columns of the paper's Table I.  Like the paper, a table cell reports
the *maximum* across the repeated runs.

The FPGA platform has run-to-run variation; this simulator is
deterministic, so "repeated runs" vary controlled initial conditions
instead: the bus arbiter's starting round-robin position and (for the
staggered experiments) which core starts late.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..core.monitor import ReportingMode
from ..isa.program import Program
from ..trace.stream_trace import StreamRecorder, TraceMeta
from .config import SocConfig
from .mpsoc import MPSoC

#: The initial staggering values evaluated in the paper.
PAPER_STAGGER_VALUES = (0, 100, 1000, 10000)


@dataclass
class RunResult:
    """Outcome of one redundant run."""

    benchmark: str
    stagger_nops: int
    late_core: int
    cycles: int
    committed: int
    zero_staggering_cycles: int
    no_diversity_cycles: int
    no_data_diversity_cycles: int
    no_instruction_diversity_cycles: int
    interrupts: int
    finished: bool
    ipc: float
    #: Redundancy scheme the run executed under (trailing, defaulted:
    #: results serialized before the scheme framework stay loadable).
    scheme: str = "safedm"
    #: Scheme-specific checker stats (``None`` on the legacy path).
    scheme_stats: Optional[dict] = None

    def summary(self) -> str:
        return ("%s nops=%d late=%d: cycles=%d zero_stag=%d no_div=%d"
                % (self.benchmark, self.stagger_nops, self.late_core,
                   self.cycles, self.zero_staggering_cycles,
                   self.no_diversity_cycles))


@dataclass
class CellResult:
    """One Table I cell: max across repeated runs."""

    benchmark: str
    stagger_nops: int
    zero_staggering_cycles: int
    no_diversity_cycles: int
    runs: List[RunResult] = field(default_factory=list)


def run_redundant(program: Program, benchmark: str = "program",
                  stagger_nops: int = 0, late_core: int = 1,
                  config: Optional[SocConfig] = None,
                  mode: ReportingMode = ReportingMode.POLLING,
                  threshold: int = 1,
                  max_cycles: int = 2_000_000,
                  rr_start: int = 0,
                  soc_hook: Optional[Callable[[MPSoC], None]] = None,
                  metrics=None, tracer=None, capture=None,
                  checkpoint_every: int = 0, on_checkpoint=None,
                  resume_from=None, engine: str = "reference",
                  scheme=None) -> RunResult:
    """Run ``program`` redundantly on a fresh MPSoC and report counters.

    ``metrics`` (a :class:`repro.telemetry.MetricsRegistry`) receives
    the end-of-run state of every layer, the monitor's verdict counters
    included, folded in once after the cycle loop; ``tracer`` (a
    :class:`repro.telemetry.Tracer`) receives spans for platform build,
    program load, and the cycle loop.  Both are purely observational:
    neither reaches the cycle loop, and counters in the returned
    :class:`RunResult` are bit-identical with or without them.

    ``capture`` (a :class:`repro.trace.StreamRecorder`) taps the raw
    per-cycle signature streams for later replay — see
    :func:`run_redundant_captured` and :mod:`repro.replay`.  Also
    observational.

    ``checkpoint_every``/``on_checkpoint`` forward to
    :func:`repro.engine.run_soc`, whose one loop drives either tier:
    the callback receives the SoC at every cadence multiple the run
    reaches, at the same cycles on both tiers (snapshot it via
    ``soc.snapshot()``).  ``resume_from`` (a
    :class:`repro.checkpoint.Snapshot`) restores a previous run's state
    instead of loading the program; counters and the cycle budget are
    then *absolute* — the returned result equals the uninterrupted
    run's.  Resuming under ``capture`` is unsupported since the
    stream's prefix is gone.

    ``engine`` selects the execution tier (:mod:`repro.engine`):
    ``"reference"`` is the interpreter, ``"fast"`` the block-compiled
    tier.  Every counter in the result — and every observable reached
    through ``metrics``/``capture``/checkpoints — is bit-identical
    between the two; the engine's own statistics are left on
    ``soc.engine_stats`` and exported with ``collect_metrics``.  On a
    resumed run the program text is already in restored memory, so the
    fast tier builds its plan lazily from there.

    ``scheme`` (a kind name, :class:`repro.schemes.SchemeSpec`, or
    scheme instance) runs the program under that redundancy scheme
    instead of the plain monitored pair; ``None`` keeps the historical
    path bit-for-bit, and the ``safedm`` scheme reproduces its
    counters exactly.  Capture and resume are monitored-pair features
    and are rejected together with an explicit scheme.
    """
    if tracer is None:
        from ..telemetry import NULL_TRACER
        tracer = NULL_TRACER
    if scheme is not None:
        if resume_from is not None:
            raise ValueError("scheme runs do not support resume_from")
        if capture is not None:
            raise ValueError("stream capture is defined for the"
                             " monitored pair; capture with"
                             " scheme=None instead")
        return _run_scheme(program, benchmark, scheme, stagger_nops,
                           late_core, config, mode, threshold,
                           max_cycles, rr_start, soc_hook, metrics,
                           tracer, checkpoint_every, on_checkpoint,
                           engine)
    if resume_from is not None and capture is not None:
        raise ValueError("cannot capture a resumed run: the signature "
                         "stream before the checkpoint was not recorded")
    with tracer.span("soc_build", benchmark=benchmark):
        soc = MPSoC(config=config, mode=mode, threshold=threshold,
                    rr_start=rr_start)
    if resume_from is not None:
        with tracer.span("restore_checkpoint", benchmark=benchmark,
                         cycle=resume_from.meta.cycle):
            soc.load_state_dict(resume_from.state)
    else:
        with tracer.span("load_program", benchmark=benchmark,
                         stagger_nops=stagger_nops):
            soc.start_redundant(program, late_core=late_core,
                                stagger_nops=stagger_nops)
    if soc_hook is not None:
        soc_hook(soc)
    if capture is not None:
        # The preload set by start_redundant (program-level staggering
        # correction) is part of the stream a replay must reproduce.
        capture.diff_preload = soc.safedm.instruction_diff.diff
        soc.safedm.attach_capture(capture)
    from ..engine import run_soc
    with tracer.span("cycle_loop", benchmark=benchmark,
                     stagger_nops=stagger_nops, late_core=late_core,
                     rr_start=rr_start, engine=engine):
        budget = max(0, max_cycles - soc.cycle)
        run_soc(soc, engine,
                program=program if resume_from is None else None,
                max_cycles=budget, checkpoint_every=checkpoint_every,
                on_checkpoint=on_checkpoint)
        cycles = soc.cycle
    if metrics is not None:
        with tracer.span("collect_metrics", benchmark=benchmark):
            soc.collect_metrics(metrics)
    stats = soc.safedm.stats
    diff_stats = soc.safedm.instruction_diff.stats
    finished = all(soc.cores[idx].finished for idx in soc.monitored)
    committed = sum(soc.cores[idx].stats.committed
                    for idx in soc.monitored)
    core0 = soc.cores[soc.monitored[0]]
    return RunResult(
        benchmark=benchmark,
        stagger_nops=stagger_nops,
        late_core=late_core,
        cycles=cycles,
        committed=committed,
        zero_staggering_cycles=diff_stats.zero_staggering_cycles,
        no_diversity_cycles=stats.no_diversity_cycles,
        no_data_diversity_cycles=stats.no_data_diversity_cycles,
        no_instruction_diversity_cycles=(
            stats.no_instruction_diversity_cycles),
        interrupts=stats.interrupts_raised,
        finished=finished,
        ipc=core0.stats.ipc,
    )


def _run_scheme(program: Program, benchmark: str, scheme,
                stagger_nops: int, late_core: int,
                config: Optional[SocConfig], mode: ReportingMode,
                threshold: int, max_cycles: int, rr_start: int,
                soc_hook, metrics, tracer, checkpoint_every: int,
                on_checkpoint, engine: str) -> RunResult:
    """The scheme-framework half of :func:`run_redundant`."""
    from ..schemes import make_scheme
    sch = make_scheme(scheme)
    with tracer.span("soc_build", benchmark=benchmark,
                     scheme=sch.kind):
        soc = sch.build(config, mode=mode, threshold=threshold,
                        rr_start=rr_start)
    with tracer.span("load_program", benchmark=benchmark,
                     stagger_nops=stagger_nops, scheme=sch.kind):
        sch.start(soc, program, stagger_nops=stagger_nops,
                  late_core=late_core, benchmark=benchmark)
    if soc_hook is not None:
        soc_hook(soc)
    from ..engine import run_soc
    with tracer.span("cycle_loop", benchmark=benchmark,
                     stagger_nops=stagger_nops, late_core=late_core,
                     rr_start=rr_start, engine=engine,
                     scheme=sch.kind):
        run_soc(soc, engine, program=sch.plan_program(program),
                max_cycles=max(0, max_cycles - soc.cycle),
                checkpoint_every=checkpoint_every,
                on_checkpoint=on_checkpoint)
        cycles = soc.cycle
    sch.finish(soc)
    if metrics is not None:
        with tracer.span("collect_metrics", benchmark=benchmark):
            soc.collect_metrics(metrics)
            sch.to_metrics(metrics, soc)
    watched = sch.watched()
    stats = soc.safedm.stats
    diff_stats = soc.safedm.instruction_diff.stats
    finished = all(soc.cores[idx].finished for idx in watched)
    committed = sum(soc.cores[idx].stats.committed for idx in watched)
    return RunResult(
        benchmark=benchmark,
        stagger_nops=stagger_nops,
        late_core=late_core,
        cycles=cycles,
        committed=committed,
        zero_staggering_cycles=diff_stats.zero_staggering_cycles,
        no_diversity_cycles=stats.no_diversity_cycles,
        no_data_diversity_cycles=stats.no_data_diversity_cycles,
        no_instruction_diversity_cycles=(
            stats.no_instruction_diversity_cycles),
        interrupts=stats.interrupts_raised,
        finished=finished,
        ipc=soc.cores[watched[0]].stats.ipc,
        scheme=sch.kind,
        scheme_stats=sch.result(soc),
    )


def run_redundant_captured(program: Program, benchmark: str = "program",
                           stagger_nops: int = 0, late_core: int = 1,
                           config: Optional[SocConfig] = None,
                           mode: ReportingMode = ReportingMode.POLLING,
                           threshold: int = 1,
                           max_cycles: int = 2_000_000,
                           rr_start: int = 0, metrics=None, tracer=None,
                           sim_key: str = "", engine: str = "reference"):
    """:func:`run_redundant` plus raw-stream capture.

    Returns ``(result, trace)`` where ``trace`` is a
    :class:`repro.trace.StreamTrace` holding everything
    :mod:`repro.replay` needs to recompute the monitor side of
    ``result`` — bit-identical — for *any* monitor configuration.
    """
    recorder = StreamRecorder()
    result = run_redundant(program, benchmark=benchmark,
                           stagger_nops=stagger_nops,
                           late_core=late_core, config=config, mode=mode,
                           threshold=threshold, max_cycles=max_cycles,
                           rr_start=rr_start, metrics=metrics,
                           tracer=tracer, capture=recorder,
                           engine=engine)
    trace = recorder.to_trace(TraceMeta(
        benchmark=benchmark,
        stagger_nops=stagger_nops,
        late_core=late_core,
        rr_start=rr_start,
        max_cycles=max_cycles,
        cycles=result.cycles,
        committed=result.committed,
        finished=result.finished,
        ipc=result.ipc,
        sim_key=sim_key,
    ))
    return result, trace


def run_cell(program: Program, benchmark: str, stagger_nops: int,
             config: Optional[SocConfig] = None,
             max_cycles: int = 2_000_000,
             engine: str = "reference") -> CellResult:
    """Run the paper's repetition protocol for one Table I cell: the
    runs of :func:`repro.runner.sweep.cell_specs`, folded by
    :func:`~repro.runner.sweep.merge_cell`."""
    from ..runner.sweep import cell_specs, execute_spec, merge_cell
    return merge_cell(benchmark, stagger_nops, [
        execute_spec(spec, config=config, program=program, engine=engine)
        for spec in cell_specs(benchmark, stagger_nops, max_cycles)])


def run_row(program: Program, benchmark: str,
            stagger_values: Sequence[int] = PAPER_STAGGER_VALUES,
            config: Optional[SocConfig] = None,
            max_cycles: int = 2_000_000,
            engine: str = "reference") -> List[CellResult]:
    """Run one full Table I row (all staggering setups)."""
    return [run_cell(program, benchmark, nops, config=config,
                     max_cycles=max_cycles, engine=engine)
            for nops in stagger_values]
