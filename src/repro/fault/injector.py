"""Single fault-injection runs on the MPSoC, plus the fork engine.

Historically every injection simulated its run from cycle 0, making a
campaign of N injections over a T-cycle run cost O(N * T).  The
snapshot protocol (:mod:`repro.checkpoint`) turns that into a
fork-from-checkpoint scheme:

* :func:`record_golden_run` performs ONE fault-free run, dropping a
  snapshot every K cycles and recording which registers are provably
  dead at each checkpoint (plus, for the Monte-Carlo classifier, the
  cycle-stamped access logs and per-cycle issue frontiers),
* a :class:`ForkEngine` then starts each injection from the nearest
  snapshot at or before its fault cycle — O(T + N * K) — and, once the
  forked run's dynamic state re-converges with the golden run's at a
  later checkpoint, reconstructs the rest of the result analytically
  instead of simulating it.  :meth:`ForkEngine.observe` walks the same
  checkpoints once to show what a common-cause fault would see at any
  set of golden cycles, so nothing is digested on cycles no trial
  samples.

Both mechanisms are exact: an engine-driven injection returns an
:class:`InjectionResult` field-for-field identical to the from-scratch
one (``tests/test_checkpoint.py`` asserts this over every kernel).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from typing import (Deque, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple)

from ..baselines.unaware import RedundancyOutcome, compare_outputs
from ..checkpoint import Snapshot, dynamic_view, jsonable
from ..cpu.core import SimulationError
from ..cpu.pipeline import DE, FE, RA
from ..cpu.regfile import RecordingRegisterFile
from ..mem.memory import MemoryError_
from ..isa.program import Program
from ..isa.registers import NUM_REGISTERS
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


def _ccf_digests(soc: MPSoC) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Per monitored core, ``(state digest, activity digest)``: what a
    common-cause disturbance on the clock edge ending the current
    cycle is modulated by (:func:`~repro.fault.models.ccf_target`)."""
    return tuple((state_digest(soc.cores[core_id]),
                  _activity_digest(soc, index))
                 for index, core_id in enumerate(soc.monitored))


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

    @property
    def verdict(self) -> Tuple[str, bool, Optional[bool]]:
        """``(classification, effects_identical,
        diversity_at_injection)``: what :func:`tally` counts."""
        return (self.classification, self.effects_identical,
                self.diversity_at_injection)


#: :attr:`InjectionResult.classification` values, in tally order.
OUTCOME_CLASSES = ("masked", "detected", "silent_ccf", "hang", "trap")

#: The paper's cross-checks: predicates over a trial's
#: :attr:`InjectionResult.verdict` that a campaign counts.
CROSS_CHECKS = {
    # Identical-effect silent escapes in cycles SafeDM called diverse.
    # Must be zero (the no-false-negative property): identical
    # corruption implies identical core state, which SafeDM by
    # construction reports as lack of diversity.
    "silent_despite_diversity": lambda cls, identical, diversity: (
        cls == "silent_ccf" and identical and diversity is True),
    # Silent escapes whose corruptions *differed* but still produced
    # matching wrong outputs — only possible when replicas share
    # writable state (one core's corrupted store poisons the data its
    # twin reads).  A shared-input CCF channel outside any diversity
    # scheme's reach; flags an unsound redundancy setup.
    "silent_via_shared_state": lambda cls, identical, diversity: (
        cls == "silent_ccf" and not identical),
    # Caught by comparison, or flagged by SafeDM at injection.
    "detected_or_flagged": lambda cls, identical, diversity: (
        cls == "detected"
        or (cls == "silent_ccf" and diversity is False)),
}


def tally(verdicts: Iterable[tuple]) -> Dict[str, int]:
    """How many :attr:`InjectionResult.verdict` tuples fall in each
    outcome class and satisfy each cross-check: the one count every
    campaign aggregate reports."""
    counts = dict.fromkeys(OUTCOME_CLASSES + tuple(CROSS_CHECKS), 0)
    for verdict in verdicts:
        counts[verdict[0]] += 1
        for name, check in CROSS_CHECKS.items():
            counts[name] += check(*verdict)
    return counts


def _fresh_pair(program: Program,
                config: Optional[SocConfig] = None) -> MPSoC:
    """A new SoC with the monitored pair started on ``program``."""
    soc = MPSoC(config=config)
    soc.start_redundant(program)
    return soc


def golden_run(program: Program, config: Optional[SocConfig] = None,
               max_cycles: int = 2_000_000,
               engine: str = "reference") -> int:
    """Fault-free redundant run; returns the golden checksum."""
    from ..engine import run_soc
    soc = _fresh_pair(program, config)
    run_soc(soc, engine, program=program, max_cycles=max_cycles)
    golden0, golden1 = _core_outputs(soc)
    if golden0 != golden1:
        raise RuntimeError("golden run is not deterministic")
    return golden0


# -- the one injected-run loop -------------------------------------------------

def _tier_runner(soc: MPSoC, engine: str,
                 program: Optional[Program] = None):
    """A :class:`~repro.engine.fast.FastRunner` for ``soc`` when
    :func:`repro.engine.select_tier` picks the fast tier, else ``None``
    (the caller drives the reference interpreter).  An injected run
    (no ``program``) compiles into a fresh
    :class:`~repro.engine.plan.ProgramPlan`; a run from the freshly
    loaded ``program`` reuses its compiled template.
    """
    from ..engine import select_tier
    stats, fast = select_tier(soc, engine)
    if not fast:
        return None
    from ..engine.fast import FastRunner
    from ..engine.plan import ProgramPlan
    plan = ProgramPlan.for_soc(soc.memory, soc.cores[0].config, program)
    return FastRunner(soc, plan, stats)


class _ReferenceSpan:
    """:meth:`~repro.engine.fast.FastRunner.run_span` on the reference
    interpreter, so :func:`_drive` runs one loop on either tier."""

    def __init__(self, soc: MPSoC):
        self.soc = soc
        self.watched = [soc.cores[i] for i in soc._watched_indices()]

    def run_span(self, stop: int) -> bool:
        soc, watched = self.soc, self.watched
        while soc.cycle < stop:
            if all(core.finished for core in watched):
                return True
            soc.step()
        return all(core.finished for core in watched)

    def _rebuild(self):
        """Nothing to recapture: the interpreter reads live state."""


def _drive(soc: MPSoC, cycle: int, max_cycles: int, result,
           before_step=None, after_step=None,
           convergence=None, runner=None, probe_cycles=()):
    """Drive one injected run to completion (or to convergence).

    ``before_step(soc)`` fires when ``soc.cycle == cycle`` — the
    transient model corrupts state and then simulates the cycle.
    ``after_step(soc)`` fires on the clock edge that ends the fault
    cycle — the common-cause corruption is modulated by the state
    SafeDM just sampled.  Either hook returns the fault effects.

    ``convergence(soc)`` (see :meth:`ForkEngine.convergence`) is
    consulted after the fault cycle and at every cycle of
    ``probe_cycles`` (the golden checkpoint cycles, the only ones at
    which it can hold); a non-``None`` return is the analytically
    reconstructed ``(no_diversity_cycles, finished, outputs,
    end_cycle)`` tail of the run, which ends it there.

    ``runner`` (a :class:`~repro.engine.fast.FastRunner` over this SoC)
    runs the fault-free stretches as fast-tier spans: to the fault
    cycle, between convergence probes, and to the budget; without
    one, the reference interpreter runs them.  The fault cycle itself
    always executes under the reference interpreter so the injection
    hooks see mid-cycle reference state, and the runner is rebuilt
    afterwards (hooks mutate state behind the generated code's
    captured locals).  The run ends when every watched core has
    finished.  Then every monitor is finished and
    ``result(soc, effects, diversity_at_injection, trapped, tail)``
    builds the return value (``tail`` is ``None`` unless the run
    converged): the pair's :class:`InjectionResult`
    (:func:`_pair_result`) or a redundancy scheme's own trial.

    The cycle budget is absolute (``soc.cycle < max_cycles``), so a SoC
    forked mid-run observes exactly the budget a from-scratch run would.
    """
    fast = runner is not None
    span = runner if fast else _ReferenceSpan(soc)
    effects = ()
    diversity_at_injection = None
    tail = None
    # A corruption can steer execution into an architectural trap
    # (misaligned access via a corrupted address register, illegal
    # instruction via a corrupted jump target).  The replica fails
    # loudly at that point: end the run there and report the trap as
    # its own outcome class.  ``soc.cycle`` still holds the trapping
    # cycle (it only advances on a completed step), so the result is
    # deterministic across scratch/fork and reference/fast paths.
    trapped = False
    try:
        finished = span.run_span(min(cycle, max_cycles))
        if not finished and soc.cycle == cycle and soc.cycle < max_cycles:
            if before_step is not None:
                effects = before_step(soc)
            soc.step()
            if after_step is not None:
                effects = after_step(soc)
                if soc.safedm.last_report is not None:
                    diversity_at_injection = \
                        soc.safedm.last_report.diversity
            span._rebuild()
            if convergence is not None:
                tail = convergence(soc)
                for probe in probe_cycles:
                    if tail is not None or probe > max_cycles:
                        break
                    if probe <= soc.cycle:
                        continue
                    finished = span.run_span(probe)
                    # Probe the cycle the cores finish on too.
                    if soc.cycle == probe:
                        tail = convergence(soc)
                    if finished:
                        break
            if tail is None:
                span.run_span(max_cycles)
    except (MemoryError_, SimulationError):
        if fast:
            # The fast tier's block granularity surfaces the trap at a
            # tier-dependent cycle (e.g. a group's eager fetch decodes
            # the corrupted path early).  The reference interpreter is
            # the oracle for trap timing: signal the injector to replay
            # this one trial without the fast tier.
            raise _FastTierTrap() from None
        trapped = True
    for monitor in soc.monitors:
        monitor.finish()
    return result(soc, effects, diversity_at_injection, trapped, tail)


def _pair_result(cycle: int, golden: int, soc: MPSoC, effects,
                 diversity_at_injection, trapped: bool,
                 tail) -> InjectionResult:
    """The monitored pair's :func:`_drive` result callback (bind
    ``cycle`` and the ``golden`` checksum)."""
    if tail is None:
        finished = not trapped and all(
            soc.cores[i].finished for i in soc._watched_indices())
        tail = (soc.safedm.stats.no_diversity_cycles, finished,
                _core_outputs(soc), soc.cycle)
    no_diversity, finished, outputs, end_cycle = tail
    return InjectionResult(
        fault_cycle=cycle,
        outcome=compare_outputs(outputs[0], outputs[1], golden),
        diversity_at_injection=diversity_at_injection,
        no_diversity_cycles=no_diversity,
        effects=effects,
        finished=finished,
        end_cycle=end_cycle,
        trapped=trapped,
    )


class _FastTierTrap(Exception):
    """Internal: a corrupted run trapped inside the fast tier, where
    the mid-block machine state is not the reference oracle's.  The
    injectors catch this and replay the trial reference-tier (traps
    are rare — a few percent of live trials — so the retry is cheap).
    """


def run_injection(start, cycle: int, max_cycles: int, result,
                  fork: Optional["ForkEngine"] = None,
                  engine: str = "reference", **hooks):
    """One injected run with the given :func:`_drive` hooks and
    ``result`` callback, on the SoC ``start()`` builds from scratch
    or, with a ``fork`` engine, on one forked from the nearest golden
    checkpoint.  A trap inside the fast tier replays the trial on the
    reference tier."""

    probes = {} if fork is None else {
        "convergence": fork.convergence(),
        "probe_cycles": fork.artifact.checkpoint_cycles}

    def prepare(tier):
        soc = start() if fork is None else fork.fork(cycle)
        return soc, _tier_runner(soc, tier)

    soc, runner = prepare(engine)
    try:
        return _drive(soc, cycle, max_cycles, result, runner=runner,
                      **probes, **hooks)
    except _FastTierTrap:
        soc, _ = prepare("reference")
        return _drive(soc, cycle, max_cycles, result, **probes, **hooks)


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
        return fault.inject(core0, core1, _ccf_digests(soc))

    return run_injection(partial(_fresh_pair, program, config), cycle,
                         max_cycles, partial(_pair_result, cycle, golden),
                         fork, engine, after_step=after_step)


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

    return run_injection(partial(_fresh_pair, program, config), cycle,
                         max_cycles, partial(_pair_result, cycle, golden),
                         fork, engine, before_step=before_step)


# -- golden run with checkpoints ----------------------------------------------

#: Starting cadence of an automatic checkpoint schedule (cycles); below
#: this, snapshot overhead beats the saved simulation (the
#: bench_campaign sweet spot).
MIN_CADENCE = 200

#: An automatic schedule thins its snapshots whenever it holds this
#: many: every other one goes and the cadence doubles.
MAX_AUTO_SNAPSHOTS = 50


def _exempt_masks(log, checkpoint_cycles):
    """Per-checkpoint dead registers from one core's access log.

    Walking the log backwards, a register is exempt at a checkpoint iff
    its next architectural access afterwards is a write (or never
    comes): its value at the checkpoint then cannot influence anything
    observable, so a forked run may differ from the golden run in that
    register and still be bisimilar from the checkpoint on.

    The checkpoint at cycle ``k`` is taken after the step ending cycle
    ``k``, so in the log it sits immediately before the ``(3, k)``
    cycle marker: the mask is read off at that marker.
    """
    index_of = {cycle: index
                for index, cycle in enumerate(checkpoint_cycles)}
    masks = [()] * len(checkpoint_cycles)
    next_kind: Dict[int, int] = {}
    for kind, value in reversed(log):
        if kind == 3:
            index = index_of.get(value)
            if index is not None:
                masks[index] = tuple(
                    register for register in range(1, NUM_REGISTERS)
                    if next_kind.get(register, 1) != 0)
        else:
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
    #: The cadence of :attr:`checkpoint_cycles` (an automatic
    #: schedule's final one).
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
    columns the Monte-Carlo classifier reads (index c = cycle c).  What
    a common-cause fault sees at its cycle is observed on demand
    (:meth:`ForkEngine.observe`)."""

    base: GoldenArtifact
    #: Per monitored core: the access log of its
    #: :class:`~repro.cpu.regfile.RecordingRegisterFile`, ``(3, c)``
    #: marking cycle c.
    logs: Tuple[Deque[Tuple[int, int]], Deque[Tuple[int, int]]]
    #: Per core: pc of the oldest unissued instruction at the start of
    #: cycle c (:data:`~repro.lint.masking.FRONTIER_HALTED` once none).
    frontier: Tuple[array, array]


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
                      checkpoint_every: Optional[int] = 0,
                      benchmark: str = "program",
                      sim_key: str = "",
                      engine: str = "reference") -> GoldenRecording:
    """The one golden-run recording loop.

    A fault-free run on ``engine``'s tier (picked by
    :func:`repro.engine.select_tier`; the reference interpreter is the
    fallback and the oracle) with
    :class:`~repro.cpu.regfile.RecordingRegisterFile` on the monitored
    cores.  It advances to the next checkpoint cycle, drops a snapshot
    there — post-step, like :meth:`MPSoC.run` — and repeats, while
    every cycle is stamped into the access logs along with the cheap
    issue frontiers.  Each checkpoint's dead-register map is derived
    from the logs at the end.  The digests and verdict a common-cause
    fault sees at its cycle come from :meth:`ForkEngine.observe`.

    ``checkpoint_every`` is a fixed cadence (``0``: no snapshots) or
    ``None`` for an automatic one: start at :data:`MIN_CADENCE` and,
    whenever :data:`MAX_AUTO_SNAPSHOTS` snapshots exist, drop every
    other one and double the cadence.  The recording then equals one
    at the final cadence, which the artifact reports; each snapshot's
    metadata keeps the cadence it was taken at.
    """
    soc = _fresh_pair(program, config)
    if soc.cycle != 0:
        raise RuntimeError("fresh SoC expected at cycle 0")
    # Swap in recording register files AFTER start_redundant: the
    # gp/sp/tp environment writes are initial state, not accesses the
    # dead-register analysis should see.
    core0, core1 = (soc.cores[index] for index in soc.monitored)
    for core in (core0, core1):
        core.regfile = RecordingRegisterFile(core.regfile)
    runner = _tier_runner(soc, engine, program)
    watched = [soc.cores[idx] for idx in soc._watched_indices()]
    auto = checkpoint_every is None
    every = MIN_CADENCE if auto else checkpoint_every
    blobs: List[bytes] = []
    cycles: List[int] = []
    finished = False
    while not finished and soc.cycle < max_cycles:
        stop = max_cycles
        if every > 0:
            stop = min(stop, (soc.cycle // every + 1) * every)
        if runner is not None:
            finished = runner.run_span(stop)
        else:
            finished = _record_steps(soc, stop, watched, core0, core1)
        if every > 0 and soc.cycle == stop and stop % every == 0:
            cycles.append(stop)
            blobs.append(soc.snapshot(
                benchmark=benchmark, checkpoint_every=every,
                sim_key=sim_key).encode())
            if auto and len(blobs) == MAX_AUTO_SNAPSHOTS:
                del blobs[::2], cycles[::2]
                every *= 2
    for monitor in soc.monitors:
        monitor.finish()
    # The halt-time checksum readout is an architectural read, stamped
    # at the end cycle so result-register faults stay live to the end.
    end_cycle = soc.cycle
    logs = (core0.regfile.log, core1.regfile.log)
    for log in logs:
        log.append((3, end_cycle))
        log.append((0, RESULT_REGISTER))
    outputs = _core_outputs(soc)
    if outputs[0] != outputs[1]:
        raise RuntimeError("golden run is not deterministic")
    masks = [_exempt_masks(log, cycles) for log in logs]
    base = GoldenArtifact(
        checksum=outputs[0],
        outputs=outputs,
        end_cycle=end_cycle,
        finished=all(soc.cores[i].finished for i in soc.monitored),
        no_diversity_cycles=soc.safedm.stats.no_diversity_cycles,
        monitored=tuple(soc.monitored),
        checkpoint_every=every,
        checkpoint_cycles=tuple(cycles),
        exempt_masks=tuple(zip(*masks)) if blobs else (),
        snapshots=tuple(blobs),
        sim_key=sim_key,
    )
    return GoldenRecording(
        base=base, logs=logs,
        frontier=(core0.regfile.frontier, core1.regfile.frontier))


def _record_steps(soc: MPSoC, stop: int, watched, core0, core1) -> bool:
    """The reference tier's recording span: step until ``stop`` or
    until every watched core finishes, stamping each cycle into both
    recording register files first (the generated span's stamp);
    True when they all have finished."""
    log0, log1 = core0.regfile.log, core1.regfile.log
    frontier0, frontier1 = core0.regfile.frontier, core1.regfile.frontier
    step = soc.step
    while soc.cycle < stop:
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
    return all(core.finished for core in watched)


def golden_run_with_checkpoints(program: Program,
                                config: Optional[SocConfig] = None,
                                max_cycles: int = 2_000_000,
                                checkpoint_every: Optional[int] = 0,
                                benchmark: str = "program",
                                sim_key: str = "",
                                engine: str = "reference"
                                ) -> GoldenArtifact:
    """Fault-free run that drops snapshots and a dead-register map:
    the fork substrate of :func:`record_golden_run`, on ``engine``'s
    tier.

    With ``checkpoint_every == 0`` no snapshots are taken and the
    artifact only carries the golden summary (``checksum`` replaces a
    separate :func:`golden_run`).
    """
    recording = record_golden_run(program, config=config,
                                  max_cycles=max_cycles,
                                  checkpoint_every=checkpoint_every,
                                  benchmark=benchmark, sim_key=sim_key,
                                  engine=engine)
    for log in recording.logs:
        # The recording SoC is reference-cycle garbage that still
        # holds the logs; empty them now, not at the collector's next
        # full pass.
        log.clear()
    return recording.base


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


class GoldenPoint(NamedTuple):
    """What a common-cause fault at cycle ``c`` sees of the golden run:
    the state after the step that ends ``c``, where the ``after_step``
    injection hook strikes."""

    #: Per monitored core, ``(state digest, activity digest)``
    #: (:func:`_ccf_digests`).
    digests: Tuple[Tuple[int, int], Tuple[int, int]]
    #: SafeDM's verdict on the step that ended cycle ``c`` (-1: no
    #: report yet).
    diversity: int


def _golden_point(soc: MPSoC) -> GoldenPoint:
    report = soc.safedm.last_report
    return GoldenPoint(_ccf_digests(soc),
                       -1 if report is None else int(report.diversity))


class ForkEngine:
    """Fork injected runs from golden checkpoints instead of cycle 0.

    ``fork(cycle)`` restores the nearest golden snapshot at or before
    the fault cycle into a fresh :class:`MPSoC`; ``convergence()``
    builds the probe :func:`_drive` consults to cut a forked run short
    once its dynamic state provably rejoins the golden run's;
    ``observe(cycles)`` walks the golden run to the cycles CCF trials
    sample.
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
            return _fresh_pair(self.program, self.config)
        soc = MPSoC(config=self.config)
        soc.load_state_dict(self._snapshot(index).state)
        self.forks += 1
        self.restores += 1
        return soc

    # -- observation ------------------------------------------------------

    def observe(self, cycles: Iterable[int],
                engine: str = "reference") -> Dict[int, GoldenPoint]:
        """What a common-cause fault at each of ``cycles`` sees.

        One forward walk in ascending order.  It restores the nearest
        checkpoint only when that checkpoint is ahead of where the walk
        already stands, runs ``engine``'s tier up to each cycle and
        steps that cycle on the reference interpreter, as :func:`_drive`
        does at a fault cycle, so the walk sees exactly the state the
        ``after_step`` hook sees.  Cycles lie in ``[0, end_cycle)``.
        """
        wanted = sorted(set(cycles))
        end = self.artifact.end_cycle
        if wanted and not 0 <= wanted[0] <= wanted[-1] < end:
            raise ValueError("golden cycles must lie in [0, %d), got "
                             "%d..%d" % (end, wanted[0], wanted[-1]))
        soc = _fresh_pair(self.program, self.config)
        runner = _tier_runner(soc, engine)
        checkpoints = self.artifact.checkpoint_cycles
        observed: Dict[int, GoldenPoint] = {}
        for cycle in wanted:
            index = self.nearest_checkpoint(cycle)
            if index is not None and checkpoints[index] > soc.cycle:
                soc.load_state_dict(self._snapshot(index).state)
                if runner is not None:
                    # A restore replaces the objects the generated code
                    # captured.  A reference step mutates them in place
                    # and the span re-checks its carried fetch link
                    # against ``fetch_pc``, so only a restore needs a
                    # rebuild (one per sampled cycle would double a
                    # dense walk).
                    runner._rebuild()
            if runner is not None and soc.cycle < cycle:
                runner.run_span(cycle)
            while soc.cycle <= cycle:
                soc.step()
            observed[cycle] = _golden_point(soc)
        return observed

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
