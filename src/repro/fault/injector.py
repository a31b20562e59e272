"""Single fault-injection runs on the MPSoC, plus the fork engine.

Historically every injection simulated its run from cycle 0, making a
campaign of N injections over a T-cycle run cost O(N * T).  The
snapshot protocol (:mod:`repro.checkpoint`) turns that into a
fork-from-checkpoint scheme:

* :func:`record_golden_run` performs ONE fault-free run, dropping a
  snapshot every K cycles and recording which registers are provably
  dead at each checkpoint (plus, for the Monte-Carlo classifier, the
  cycle-stamped access logs and per-cycle digests),
* a :class:`ForkEngine` then starts each injection from the nearest
  snapshot at or before its fault cycle — O(T + N * K) — and, once the
  forked run's dynamic state re-converges with the golden run's at a
  later checkpoint, reconstructs the rest of the result analytically
  instead of simulating it.

Both mechanisms are exact: an engine-driven injection returns an
:class:`InjectionResult` field-for-field identical to the from-scratch
one (``tests/test_checkpoint.py`` asserts this over every kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..baselines.unaware import RedundancyOutcome, compare_outputs
from ..checkpoint import Snapshot, dynamic_view, jsonable
from ..cpu.core import SimulationError
from ..cpu.pipeline import DE, FE, RA
from ..cpu.regfile import RegisterFile
from ..mem.memory import MemoryError_
from ..isa.program import Program
from ..isa.registers import NUM_REGISTERS, XMASK
from ..lint.masking import FRONTIER_HALTED
from ..soc.config import SocConfig
from ..soc.mpsoc import MPSoC
from .models import CommonCauseFault, TransientFault, state_digest


def _activity_digest(soc: MPSoC, index: int) -> int:
    """CRC of one core's SafeDM-visible signature window."""
    import zlib
    crc = 0
    for entry in soc.safedm.ds_units[index].signature():
        enable, value = entry
        crc = zlib.crc32(bytes([enable]) + value.to_bytes(8, "little"),
                         crc)
    for item in soc.safedm.is_units[index].signature():
        if isinstance(item, tuple):
            valid, word = item
            crc = zlib.crc32(bytes([valid]) + word.to_bytes(4, "little"),
                             crc)
        else:
            crc = zlib.crc32(int(item).to_bytes(4, "little"), crc)
    return crc & 0xFFFFFFFF

#: The kernels' checksum register (s0 == x8); read per core at halt so
#: outputs stay per-core even when both cores share one address space.
RESULT_REGISTER = 8


def _core_outputs(soc: MPSoC):
    """Per-replica checksums over the watched cores (the monitored
    pair by default; a scheme's full replica set when one overrode
    ``watched_cores``)."""
    return tuple(soc.cores[idx].regfile.values[RESULT_REGISTER]
                 for idx in soc._watched_indices())


def shared_address_config() -> SocConfig:
    """A (mis)configured redundancy where both cores share one data
    region — identical gp/sp, hence genuinely identical state during
    aligned execution.  This is the CCF-vulnerable deployment SafeDM
    exists to flag."""
    cfg = SocConfig()
    return SocConfig(data_bases=(cfg.data_bases[0], cfg.data_bases[0]))


@dataclass
class InjectionResult:
    """Outcome of one injected redundant run."""

    fault_cycle: int
    outcome: RedundancyOutcome
    #: SafeDM report at the injection cycle: True if diversity existed.
    diversity_at_injection: Optional[bool]
    #: Cumulative no-diversity cycles over the run.
    no_diversity_cycles: int
    effects: tuple
    finished: bool
    #: Cycle the run ended at (fault runs can end later than golden).
    #: Identical across scratch, fork, and batched Monte-Carlo paths.
    end_cycle: int = 0
    #: The corruption drove a replica into an architectural trap
    #: (misaligned access or illegal instruction) — a loudly-detected
    #: failure, reported as its own class.
    trapped: bool = False

    @property
    def effects_identical(self) -> bool:
        """True when the disturbance corrupted both cores identically."""
        return len(self.effects) == 2 and self.effects[0] == self.effects[1]

    @property
    def classification(self) -> str:
        if self.trapped:
            return "trap"
        if not self.finished:
            return "hang"
        if self.outcome.correct:
            return "masked"
        if self.outcome.detected:
            return "detected"
        return "silent_ccf"


def golden_run(program: Program, config: Optional[SocConfig] = None,
               max_cycles: int = 2_000_000,
               engine: str = "reference") -> int:
    """Fault-free redundant run; returns the golden checksum."""
    from ..engine import run_soc
    soc = MPSoC(config=config)
    soc.start_redundant(program)
    run_soc(soc, engine, program=program, max_cycles=max_cycles)
    golden0, golden1 = _core_outputs(soc)
    if golden0 != golden1:
        raise RuntimeError("golden run is not deterministic")
    return golden0


# -- the one injected-run loop -------------------------------------------------

def _tier_runner(soc: MPSoC, engine: str):
    """A :class:`~repro.engine.fast.FastRunner` for ``soc``, or ``None``.

    Mirrors :func:`repro.engine.run_soc`'s tier selection: the fast
    tier is used only when requested *and* supported for this SoC
    shape; otherwise the caller drives the reference interpreter.
    Engine statistics land on ``soc.engine_stats`` either way.
    """
    from ..engine import EngineStats, _fast_supported, resolve_engine
    engine = resolve_engine(engine)
    stats = EngineStats(engine=engine)
    soc.engine_stats = stats
    if engine != "fast":
        return None
    reason = _fast_supported(soc)
    if reason is not None:
        stats.fallback_reason = reason
        return None
    from ..engine.fast import FastRunner
    from ..engine.plan import ProgramPlan
    plan = ProgramPlan(soc.memory, soc.cores[0].config)
    runner = FastRunner(soc, plan, stats)
    return runner


def _drive(soc: MPSoC, cycle: int, golden: int, max_cycles: int,
           before_step=None, after_step=None,
           convergence=None, runner=None,
           probe_cycles=()) -> InjectionResult:
    """Drive one injected run to completion (or to convergence).

    ``before_step(soc)`` fires when ``soc.cycle == cycle`` — the
    transient model corrupts state and then simulates the cycle.
    ``after_step(soc)`` fires on the clock edge that ends the fault
    cycle — the common-cause corruption is modulated by the state
    SafeDM just sampled.  Either hook returns the fault effects.

    ``convergence(soc)`` (see :meth:`ForkEngine.convergence`) is
    consulted only after the fault has been applied; a non-``None``
    return is the analytically reconstructed
    ``(no_diversity_cycles, finished, outputs, end_cycle)`` tail of
    the run.

    ``runner`` (a :class:`~repro.engine.fast.FastRunner` over this SoC)
    switches the fault-free stretches to the fast tier: spans run to
    the fault cycle, between convergence probes, and to the budget.
    The fault cycle itself always executes under the reference
    interpreter so the injection hooks see mid-cycle reference state,
    and the runner is rebuilt afterwards (hooks mutate state behind
    the generated code's captured locals).  ``probe_cycles`` must list
    every cycle at which ``convergence`` can possibly return
    non-``None`` (the golden checkpoint cycles); the reference loop
    consults it every cycle but it is a no-op off the probe grid.

    The cycle budget is absolute (``soc.cycle < max_cycles``), so a SoC
    forked mid-run observes exactly the budget a from-scratch run would.
    """
    cores = [soc.cores[i] for i in soc.monitored]
    effects = ()
    diversity_at_injection = None

    def reconstruct(tail):
        no_diversity, finished, outputs, end_cycle = tail
        return InjectionResult(
            fault_cycle=cycle,
            outcome=compare_outputs(outputs[0], outputs[1], golden),
            diversity_at_injection=diversity_at_injection,
            no_diversity_cycles=no_diversity,
            effects=effects,
            finished=finished,
            end_cycle=end_cycle,
        )

    # A corruption can steer execution into an architectural trap
    # (misaligned access via a corrupted address register, illegal
    # instruction via a corrupted jump target).  The replica fails
    # loudly at that point: end the run there and report the trap as
    # its own outcome class.  ``soc.cycle`` still holds the trapping
    # cycle (it only advances on a completed step), so the result is
    # deterministic across scratch/fork and reference/fast paths.
    trapped = False
    try:
        if runner is not None:
            finished = runner.run_span(min(cycle, max_cycles))
            if not finished and soc.cycle == cycle \
                    and soc.cycle < max_cycles:
                if before_step is not None:
                    effects = before_step(soc)
                soc.step()
                if after_step is not None:
                    effects = after_step(soc)
                    if soc.safedm.last_report is not None:
                        diversity_at_injection = \
                            soc.safedm.last_report.diversity
                runner._rebuild()
                if convergence is not None:
                    tail = convergence(soc)
                    if tail is not None:
                        return reconstruct(tail)
                    for probe in probe_cycles:
                        if probe <= soc.cycle:
                            continue
                        if probe > max_cycles:
                            break
                        if runner.run_span(probe):
                            break
                        tail = convergence(soc)
                        if tail is not None:
                            return reconstruct(tail)
                runner.run_span(max_cycles)
        else:
            while soc.cycle < max_cycles:
                if all(core.finished for core in cores):
                    break
                if before_step is not None and soc.cycle == cycle:
                    effects = before_step(soc)
                soc.step()
                if after_step is not None and soc.cycle - 1 == cycle:
                    effects = after_step(soc)
                    if soc.safedm.last_report is not None:
                        diversity_at_injection = \
                            soc.safedm.last_report.diversity
                if convergence is not None and soc.cycle > cycle:
                    tail = convergence(soc)
                    if tail is not None:
                        return reconstruct(tail)
    except (MemoryError_, SimulationError):
        if runner is not None:
            # The fast tier's block granularity surfaces the trap at a
            # tier-dependent cycle (e.g. a group's eager fetch decodes
            # the corrupted path early).  The reference interpreter is
            # the oracle for trap timing: signal the injector to replay
            # this one trial without the fast tier.
            raise _FastTierTrap() from None
        trapped = True
    soc.safedm.finish()
    finished = all(core.finished for core in cores) and not trapped
    output0, output1 = _core_outputs(soc)
    return InjectionResult(
        fault_cycle=cycle,
        outcome=compare_outputs(output0, output1, golden),
        diversity_at_injection=diversity_at_injection,
        no_diversity_cycles=soc.safedm.stats.no_diversity_cycles,
        effects=effects,
        finished=finished,
        end_cycle=soc.cycle,
        trapped=trapped,
    )


class _FastTierTrap(Exception):
    """Internal: a corrupted run trapped inside the fast tier, where
    the mid-block machine state is not the reference oracle's.  The
    injectors catch this and replay the trial reference-tier (traps
    are rare — a few percent of live trials — so the retry is cheap).
    """


def _prepare(program: Program, cycle: int,
             config: Optional[SocConfig], fork, engine: str):
    """The SoC an injection runs on, its convergence probe, its tier."""
    if fork is not None:
        soc = fork.fork(cycle)
        return (soc, fork.convergence(),
                fork.artifact.checkpoint_cycles,
                _tier_runner(soc, engine))
    soc = MPSoC(config=config)
    soc.start_redundant(program)
    return soc, None, (), _tier_runner(soc, engine)


def _inject(program: Program, cycle: int, golden: int,
            config: Optional[SocConfig], max_cycles: int, fork,
            engine: str, **hooks) -> InjectionResult:
    """One injected run with the given :func:`_drive` hooks; a trap
    inside the fast tier replays the trial on the reference tier."""
    soc, convergence, probes, runner = _prepare(program, cycle, config,
                                                fork, engine)
    try:
        return _drive(soc, cycle, golden, max_cycles,
                      convergence=convergence, runner=runner,
                      probe_cycles=probes, **hooks)
    except _FastTierTrap:
        soc, convergence, probes, _ = _prepare(program, cycle, config,
                                               fork, "reference")
        return _drive(soc, cycle, golden, max_cycles,
                      convergence=convergence, probe_cycles=probes,
                      **hooks)


def inject_common_cause(program: Program, cycle: int, stimulus: int,
                        golden: int,
                        config: Optional[SocConfig] = None,
                        max_cycles: int = 2_000_000,
                        fork: Optional["ForkEngine"] = None,
                        engine: str = "reference") -> InjectionResult:
    """Run redundantly with one common-cause fault at ``cycle``.

    ``fork`` (a :class:`ForkEngine`) starts the run from the nearest
    golden checkpoint; ``engine`` picks the execution tier for the
    fault-free stretches (:mod:`repro.engine`).  Both are exact.
    """
    fault = CommonCauseFault(cycle=cycle, stimulus=stimulus)

    def after_step(soc):
        # Inject on the clock edge that ends the fault cycle: the
        # corruption is modulated by the state SafeDM just sampled.
        core0 = soc.cores[soc.monitored[0]]
        core1 = soc.cores[soc.monitored[1]]
        return fault.inject(core0, core1, _activity_digest(soc, 0),
                            _activity_digest(soc, 1))

    return _inject(program, cycle, golden, config, max_cycles, fork,
                   engine, after_step=after_step)


def inject_transient(program: Program, cycle: int, core: int,
                     register: int, bit: int, golden: int,
                     config: Optional[SocConfig] = None,
                     max_cycles: int = 2_000_000,
                     fork: Optional["ForkEngine"] = None,
                     engine: str = "reference") -> InjectionResult:
    """Run redundantly with one single-core transient at ``cycle``."""
    fault = TransientFault(cycle=cycle, core=core, register=register,
                           bit=bit)

    def before_step(soc):
        return (fault.inject(soc.cores[core]),)

    return _inject(program, cycle, golden, config, max_cycles, fork,
                   engine, before_step=before_step)


# -- golden run with checkpoints ----------------------------------------------

class _RecordingRegisterFile(RegisterFile):
    """A :class:`RegisterFile` that logs architectural accesses.

    Used only on the golden run, to drive the dead-register analysis:
    ``(0, r)`` = read of ``r``, ``(1, r)`` = write, ``(2, i)`` =
    checkpoint ``i`` was taken at this point in the access stream,
    ``(3, c)`` = cycle ``c`` starts (appended by
    :func:`record_golden_run`).
    Behaviour is bit-identical to the base class — the overrides only
    append to a list.
    """

    __slots__ = ("log",)

    def __init__(self, source: RegisterFile):
        super().__init__(num_read_ports=source.num_read_ports,
                         num_write_ports=source.num_write_ports)
        self.values = list(source.values)
        self.ready_cycle = list(source.ready_cycle)
        self.read_samples = list(source.read_samples)
        self.write_samples = list(source.write_samples)
        self.log: List[Tuple[int, int]] = []

    def read(self, index: int) -> int:
        if index:
            self.log.append((0, index))
            return self.values[index]
        return 0

    def write(self, index: int, value: int):
        if index:
            self.log.append((1, index))
            self.values[index] = value & XMASK


def _exempt_masks(log, num_checkpoints: int):
    """Per-checkpoint dead registers from one core's access log.

    Walking the log backwards, a register is exempt at a checkpoint iff
    its next architectural access afterwards is a write (or never
    comes): its value at the checkpoint then cannot influence anything
    observable, so a forked run may differ from the golden run in that
    register and still be bisimilar from the checkpoint on.

    Log kinds >= 3 (the per-cycle markers of
    :func:`record_golden_run`) are ignored here.
    """
    masks = [()] * num_checkpoints
    next_kind: Dict[int, int] = {}
    for kind, value in reversed(log):
        if kind == 2:
            masks[value] = tuple(
                register for register in range(1, NUM_REGISTERS)
                if next_kind.get(register, 1) != 0)
        elif kind < 2:
            next_kind[value] = kind
    return masks


@dataclass
class GoldenArtifact:
    """Everything a :class:`ForkEngine` needs from one golden run.

    Snapshots are kept encoded (``bytes``) so the artifact pickles
    cheaply to campaign pool workers; engines decode them lazily.
    """

    checksum: int
    outputs: Tuple[int, int]
    end_cycle: int
    finished: bool
    no_diversity_cycles: int
    monitored: Tuple[int, int]
    checkpoint_every: int
    #: Cycle each snapshot was taken at (ascending).
    checkpoint_cycles: Tuple[int, ...]
    #: Per checkpoint, per monitored core: registers provably dead there.
    exempt_masks: tuple
    #: Encoded snapshots, aligned with :attr:`checkpoint_cycles`.
    snapshots: Tuple[bytes, ...]
    sim_key: str = ""


@dataclass
class GoldenRecording:
    """One recorded golden run: the fork artifact plus the per-cycle
    columns the Monte-Carlo classifier reads (index c = cycle c; the
    digests and verdicts only with ``record_ccf``)."""

    base: GoldenArtifact
    #: Per monitored core: the access log, ``(3, c)`` marking cycle c.
    logs: Tuple[list, list]
    #: Per core: state digest after the step ending cycle c (what a
    #: CCF at cycle c modulates).
    state_digests: Tuple[List[int], List[int]]
    #: Per core: SafeDM-visible activity-window digest, same indexing.
    activity_digests: Tuple[List[int], List[int]]
    #: SafeDM diversity after the step ending cycle c (-1: no report).
    diversity: List[int]
    #: Per core: pc of the oldest unissued instruction at the start of
    #: cycle c (:data:`~repro.lint.masking.FRONTIER_HALTED` once none).
    frontier: Tuple[List[int], List[int]]


def _frontier_pc(core) -> int:
    """The pc of ``core``'s oldest **not-yet-issued** instruction.

    Functional register reads and writes both happen at issue time
    (``Core._issue`` is the single ``RegisterFile.read`` call site), so
    the oldest unissued instruction is the first program point whose
    architectural accesses can still be influenced by a corruption
    landing now.  Instructions already past RA have read *and* written;
    crediting their kills would be unsound, so they are ignored.

    Pre-issue stages, oldest first: RA, then DE, then FE.  With all
    three empty, the next instruction to issue is the one at
    ``fetch_pc`` — which is architecturally correct here, because any
    in-flight mispredicted path would still have its branch in a
    pre-issue stage (in-order issue), and issue-time redirects have
    already fixed ``fetch_pc``.  A halted core never issues again:
    :data:`~repro.lint.masking.FRONTIER_HALTED`.
    """
    stages = core.stages
    for stage in (RA, DE, FE):
        group = stages[stage]
        if group is not None:
            return group.instrs[0].pc
    if core.halted:
        return FRONTIER_HALTED
    return core.fetch_pc


def record_golden_run(program: Program,
                      config: Optional[SocConfig] = None,
                      max_cycles: int = 2_000_000,
                      checkpoint_every: int = 0,
                      benchmark: str = "program",
                      sim_key: str = "",
                      record_ccf: bool = True) -> GoldenRecording:
    """The one golden-run recording loop.

    A fault-free run on the reference interpreter (the recording
    register files and the per-cycle hooks need its cycle granularity)
    that drops a snapshot every ``checkpoint_every`` cycles — post-step,
    like :meth:`MPSoC.run` — and derives each checkpoint's dead-register
    map from the access logs.  ``record_ccf`` additionally records the
    per-cycle digests and diversity verdicts a common-cause fault's
    analytic effect needs; transient faults are fully specified and
    skip them.
    """
    soc = MPSoC(config=config)
    soc.start_redundant(program)
    if soc.cycle != 0:
        raise RuntimeError("fresh SoC expected at cycle 0")
    # Swap in recording register files AFTER start_redundant: the
    # gp/sp/tp environment writes are initial state, not accesses the
    # dead-register analysis should see.
    core0, core1 = (soc.cores[index] for index in soc.monitored)
    for core in (core0, core1):
        core.regfile = _RecordingRegisterFile(core.regfile)
    log0, log1 = core0.regfile.log, core1.regfile.log
    watched = [soc.cores[idx] for idx in soc._watched_indices()]
    blobs: List[bytes] = []
    cycles: List[int] = []
    diversity: List[int] = []
    sd0, sd1, ad0, ad1, frontier0, frontier1 = ([] for _ in range(6))
    step = soc.step
    take_checkpoints = checkpoint_every > 0
    while soc.cycle < max_cycles:
        if all(core.finished for core in watched):
            break
        now = soc.cycle
        log0.append((3, now))
        log1.append((3, now))
        # Frontier points are sampled before the step, like the
        # before-step transient injection hook they model.
        frontier0.append(_frontier_pc(core0))
        frontier1.append(_frontier_pc(core1))
        step()
        if record_ccf:
            sd0.append(state_digest(core0))
            sd1.append(state_digest(core1))
            ad0.append(_activity_digest(soc, 0))
            ad1.append(_activity_digest(soc, 1))
            report = soc.safedm.last_report
            diversity.append(-1 if report is None
                             else int(report.diversity))
        if take_checkpoints and soc.cycle % checkpoint_every == 0:
            index = len(blobs)
            log0.append((2, index))
            log1.append((2, index))
            cycles.append(soc.cycle)
            blobs.append(soc.snapshot(
                benchmark=benchmark, checkpoint_every=checkpoint_every,
                sim_key=sim_key).encode())
    for monitor in soc.monitors:
        monitor.finish()
    # The halt-time checksum readout is an architectural read, stamped
    # at the end cycle so result-register faults stay live to the end.
    end_cycle = soc.cycle
    for log in (log0, log1):
        log.append((3, end_cycle))
        log.append((0, RESULT_REGISTER))
    outputs = _core_outputs(soc)
    if outputs[0] != outputs[1]:
        raise RuntimeError("golden run is not deterministic")
    masks = [_exempt_masks(log, len(blobs)) for log in (log0, log1)]
    base = GoldenArtifact(
        checksum=outputs[0],
        outputs=outputs,
        end_cycle=end_cycle,
        finished=all(soc.cores[i].finished for i in soc.monitored),
        no_diversity_cycles=soc.safedm.stats.no_diversity_cycles,
        monitored=tuple(soc.monitored),
        checkpoint_every=checkpoint_every,
        checkpoint_cycles=tuple(cycles),
        exempt_masks=tuple(zip(*masks)) if blobs else (),
        snapshots=tuple(blobs),
        sim_key=sim_key,
    )
    return GoldenRecording(
        base=base,
        logs=(log0, log1),
        state_digests=(sd0, sd1),
        activity_digests=(ad0, ad1),
        diversity=diversity,
        frontier=(frontier0, frontier1),
    )


def golden_run_with_checkpoints(program: Program,
                                config: Optional[SocConfig] = None,
                                max_cycles: int = 2_000_000,
                                checkpoint_every: int = 0,
                                benchmark: str = "program",
                                sim_key: str = ""
                                ) -> GoldenArtifact:
    """Fault-free run that drops snapshots and a dead-register map:
    the fork substrate of :func:`record_golden_run`.

    With ``checkpoint_every == 0`` no snapshots are taken and the
    artifact only carries the golden summary (``checksum`` replaces a
    separate :func:`golden_run`).
    """
    return record_golden_run(program, config=config,
                             max_cycles=max_cycles,
                             checkpoint_every=checkpoint_every,
                             benchmark=benchmark, sim_key=sim_key,
                             record_ccf=False).base


# -- convergence views --------------------------------------------------------

def _campaign_view(state: dict, monitored, exempt_masks) -> dict:
    """Accumulator-free view of a (memory-less) state dict for the
    convergence compare: dead registers zeroed on the monitored cores,
    decode caches dropped (they influence only their own counters — a
    restored-then-dropped stale entry and a live stale entry both miss
    identically on their next access)."""
    view = dynamic_view(state)
    for entry in view["cores"]:
        entry.pop("fetch_cache", None)
    for core_id, mask in zip(monitored, exempt_masks):
        values = view["cores"][core_id]["regfile"]["values"]
        for register in mask:
            values[register] = 0
    return view


def _live_probe(soc: MPSoC, monitored, exempt_masks) -> tuple:
    """Cheap discriminator of a live SoC (subset of the full view)."""
    items = []
    for core_id, mask in zip(monitored, exempt_masks):
        core = soc.cores[core_id]
        values = list(core.regfile.values)
        for register in mask:
            values[register] = 0
        items.append((core.fetch_pc, bool(core.halted), tuple(values)))
    items.append(soc.safedm.instruction_diff.diff)
    return tuple(items)


def _state_probe(state: dict, monitored, exempt_masks) -> tuple:
    """:func:`_live_probe` computed from a decoded snapshot state."""
    items = []
    for core_id, mask in zip(monitored, exempt_masks):
        entry = state["cores"][core_id]
        values = [int(v) for v in entry["regfile"]["values"]]
        for register in mask:
            values[register] = 0
        items.append((int(entry["fetch_pc"]), bool(entry["halted"]),
                      tuple(values)))
    items.append(int(state["monitors"][0]["instruction_diff"]["diff"]))
    return tuple(items)


class _GoldenView:
    """Memoized convergence reference for one golden checkpoint."""

    __slots__ = ("probe", "rest", "pages", "versions", "no_div_at")

    def __init__(self, state: dict, monitored, exempt_masks):
        self.probe = _state_probe(state, monitored, exempt_masks)
        memory = state["memory"]
        self.pages = {int(key): bytes(page)
                      for key, page in memory["pages"].items()}
        self.versions = {int(key): int(version)
                         for key, version in memory["versions"].items()}
        rest = dict(state)
        del rest["memory"]
        self.rest = jsonable(_campaign_view(rest, monitored,
                                            exempt_masks))
        self.no_div_at = int(
            state["monitors"][0]["stats"]["no_diversity_cycles"])


class ForkEngine:
    """Fork injected runs from golden checkpoints instead of cycle 0.

    ``fork(cycle)`` restores the nearest golden snapshot at or before
    the fault cycle into a fresh :class:`MPSoC`; ``convergence()``
    builds the probe :func:`_drive` consults to cut a forked run short
    once its dynamic state provably rejoins the golden run's.
    """

    def __init__(self, program: Program, artifact: GoldenArtifact,
                 config: Optional[SocConfig] = None):
        self.program = program
        self.artifact = artifact
        self.config = config
        self._snapshots: Dict[int, Snapshot] = {}
        self._views: Dict[int, _GoldenView] = {}
        self._cycle_to_index = {
            cycle: index for index, cycle
            in enumerate(artifact.checkpoint_cycles)}
        self.forks = 0
        self.restores = 0
        self.scratch_runs = 0
        self.converged = 0

    # -- forking ----------------------------------------------------------

    def nearest_checkpoint(self, fault_cycle: int) -> Optional[int]:
        """Index of the latest checkpoint at or before ``fault_cycle``."""
        best = None
        for index, cycle in enumerate(self.artifact.checkpoint_cycles):
            if cycle > fault_cycle:
                break
            best = index
        return best

    def _snapshot(self, index: int) -> Snapshot:
        snapshot = self._snapshots.get(index)
        if snapshot is None:
            snapshot = Snapshot.decode(self.artifact.snapshots[index])
            self._snapshots[index] = snapshot
        return snapshot

    def fork(self, fault_cycle: int) -> MPSoC:
        """A SoC positioned to inject at ``fault_cycle``."""
        index = self.nearest_checkpoint(fault_cycle)
        if index is None:
            # Fault before the first checkpoint: plain from-scratch run.
            self.scratch_runs += 1
            soc = MPSoC(config=self.config)
            soc.start_redundant(self.program)
            return soc
        soc = MPSoC(config=self.config)
        soc.load_state_dict(self._snapshot(index).state)
        self.forks += 1
        self.restores += 1
        return soc

    # -- convergence ------------------------------------------------------

    def _golden_view(self, index: int) -> _GoldenView:
        view = self._views.get(index)
        if view is None:
            view = _GoldenView(self._snapshot(index).state,
                               self.artifact.monitored,
                               self.artifact.exempt_masks[index])
            self._views[index] = view
        return view

    def convergence(self):
        """A ``convergence(soc)`` callable for :func:`_drive`.

        At every golden checkpoint cycle the fork reaches (after the
        fault), compare its dynamic state against the golden run's,
        exempting provably dead registers.  A match means the two runs
        are bisimilar from here on, so the remaining cycles need not be
        simulated: the final counters are the fork's own (they include
        the restored golden prefix and the divergence window) plus the
        golden tail, and the outputs are the golden outputs.
        """
        artifact = self.artifact
        if not artifact.checkpoint_cycles:
            return None
        cycle_to_index = self._cycle_to_index

        def check(soc: MPSoC):
            index = cycle_to_index.get(soc.cycle)
            if index is None:
                return None
            golden = self._golden_view(index)
            mask = artifact.exempt_masks[index]
            if _live_probe(soc, artifact.monitored, mask) != golden.probe:
                return None
            # Memory compared natively (bytes, no JSON round trip) —
            # it dominates state size and almost always matches or
            # mismatches on the first page.
            pages = soc.memory._pages
            if pages.keys() != golden.pages.keys():
                return None
            for key, page in pages.items():
                if golden.pages[key] != page:
                    return None
            if soc.memory.page_versions != golden.versions:
                return None
            state = soc.state_dict()
            del state["memory"]
            if jsonable(_campaign_view(state, artifact.monitored,
                                       mask)) != golden.rest:
                return None
            self.converged += 1
            no_diversity = (soc.safedm.stats.no_diversity_cycles
                            + artifact.no_diversity_cycles
                            - golden.no_div_at)
            # A converged run is bisimilar to the golden run from this
            # checkpoint on, so it ends exactly when the golden run did.
            return (no_diversity, artifact.finished, artifact.outputs,
                    artifact.end_cycle)

        return check
