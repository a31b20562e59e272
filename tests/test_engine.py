"""Tiered execution engine tests: fast tier == reference, bit for bit.

The contract under test (ISSUE 6, tentpole): for every kernel,
configuration, stagger, reporting mode, capture run, checkpoint, and
fault injection, running under ``engine="fast"`` produces *exactly*
the observables of the reference interpreter — full platform
state dicts, monitor statistics, histograms, capture streams, and
telemetry counters.  The fast tier is a performance tier, never a
semantics tier.
"""

import dataclasses
from functools import lru_cache

import pytest

from repro.checkpoint import Snapshot, jsonable
from repro.core.monitor import ReportingMode
from repro.core.signatures import IsVariant, SignatureConfig
from repro.cpu.core import CoreConfig, SimulationError
from repro.engine import (
    EngineStats,
    ReferenceRunner,
    make_runner,
    resolve_engine,
    run_soc,
)
from repro.engine.fast import _SPAN_CACHE, FastRunner
from repro.fault import (
    ForkEngine,
    golden_run,
    golden_run_with_checkpoints,
    inject_common_cause,
    inject_transient,
    shared_address_config,
)
from repro.fault import injector
from repro.fault.models import TransientFault
from repro.mem.memory import MemoryError_
from repro.schemes import make_scheme
from repro.soc.config import SocConfig
from repro.soc.experiment import run_redundant
from repro.soc.mpsoc import MPSoC
from repro.telemetry import NULL_REGISTRY, MetricsRegistry
from repro.trace import StreamRecorder
from repro.workloads import all_names, program

#: Truncated so the 29-kernel property sweep stays test-suite cheap;
#: every kernel still executes thousands of monitored cycles, compiles
#: dozens of blocks, and crosses plenty of deopt points.
MAX_CYCLES = 12_000

KERNEL = "countnegative"  # short, memory-touching kernel


def _pair_run(name, engine, stagger=0, late_core=1,
              mode=ReportingMode.POLLING, threshold=1, config=None,
              max_cycles=MAX_CYCLES, scheme=None):
    """Build a fresh platform (the monitored pair, or ``scheme``'s
    topology) and run it under ``engine``."""
    prog = program(name)
    if scheme is None:
        soc = MPSoC(config=config, mode=mode, threshold=threshold)
        soc.start_redundant(prog, stagger_nops=stagger,
                            late_core=late_core)
    else:
        sch = make_scheme(scheme)
        soc = sch.build(config, mode=mode, threshold=threshold)
        sch.start(soc, prog, stagger_nops=stagger, late_core=late_core)
    cycles, stats = run_soc(soc, engine, program=prog,
                            max_cycles=max_cycles)
    return soc, cycles, stats


def _sans_engine(registry):
    """Counter samples minus the ``repro_engine_*`` family.

    Engine counters legitimately differ across tiers (that is what
    they measure); everything else must be identical.
    """
    return {key: value
            for key, value in registry.counter_values().items()
            if not key[0].startswith("repro_engine_")}


# --- the headline property: fast == reference, every kernel -----------------

@pytest.mark.parametrize("name", all_names())
def test_fast_matches_reference_every_kernel(name):
    ref, ref_cycles, _ = _pair_run(name, "reference")
    fast, fast_cycles, stats = _pair_run(name, "fast")
    assert stats.fallback_reason is None, name
    assert fast_cycles == ref_cycles, name
    assert jsonable(fast.state_dict()) == jsonable(ref.state_dict()), name


@pytest.mark.parametrize("stagger,late_core", [(100, 1), (1000, 0)])
@pytest.mark.parametrize("name", ["cosf", KERNEL])
def test_fast_matches_reference_staggered(name, stagger, late_core):
    prog = program(name)
    ref_reg, fast_reg = MetricsRegistry(), MetricsRegistry()
    ref = run_redundant(prog, benchmark=name, stagger_nops=stagger,
                        late_core=late_core, max_cycles=MAX_CYCLES,
                        metrics=ref_reg)
    fast = run_redundant(prog, benchmark=name, stagger_nops=stagger,
                         late_core=late_core, max_cycles=MAX_CYCLES,
                         metrics=fast_reg, engine="fast")
    assert dataclasses.asdict(fast) == dataclasses.asdict(ref)
    assert _sans_engine(fast_reg) == _sans_engine(ref_reg)


def _interrupt_cases():
    """(mode, threshold, scheme) cases; the monitored pair (scheme
    None) keeps its historical ``[mode-threshold]`` test ids."""
    for mode, threshold in ((ReportingMode.INTERRUPT_FIRST, 1),
                            (ReportingMode.INTERRUPT_THRESHOLD, 4)):
        for scheme in (None, "multipair", "tmr"):
            ident = "%s-%d" % (mode, threshold)
            if scheme is not None:
                ident += "-" + scheme
            yield pytest.param(mode, threshold, scheme, id=ident)


def _irq_logged_run(mode, threshold, scheme, engine):
    """Run with every monitor's IRQ line logged: each raise appends the
    cycle and the raising monitor's statistics at that instant.
    Returns the result, the log, and the run's engine statistics."""
    log, socs = [], []

    def hook(soc):
        socs.append(soc)
        for monitor in soc.monitors:
            monitor.irq.subscribe(
                lambda cycle, monitor=monitor: log.append(
                    (cycle, dataclasses.astuple(monitor.stats))))

    result = run_redundant(program(KERNEL), benchmark=KERNEL, mode=mode,
                           threshold=threshold, max_cycles=MAX_CYCLES,
                           engine=engine, scheme=scheme, soc_hook=hook)
    return result, log, socs[0].engine_stats


@pytest.mark.parametrize("mode,threshold,scheme", _interrupt_cases())
def test_fast_matches_reference_interrupt_modes(mode, threshold, scheme):
    ref, ref_log, _ = _irq_logged_run(mode, threshold, scheme,
                                      "reference")
    fast, fast_log, stats = _irq_logged_run(mode, threshold, scheme,
                                            "fast")
    assert stats.fallback_reason is None
    assert dataclasses.asdict(fast) == dataclasses.asdict(ref)
    assert ref_log
    assert fast_log == ref_log


def _captured(name, engine, late_core, mode, checkpoint_every=0):
    """A run of ``name`` at stagger 100 captured into a fresh
    :class:`StreamRecorder`: its result, its trace, the engine
    statistics and the number of checkpoint callbacks."""
    socs, checkpoints = [], []
    recorder = StreamRecorder()
    result = run_redundant(program(name), benchmark=name,
                           stagger_nops=100, late_core=late_core,
                           mode=mode, threshold=8, max_cycles=MAX_CYCLES,
                           soc_hook=socs.append, capture=recorder,
                           checkpoint_every=checkpoint_every,
                           on_checkpoint=checkpoints.append,
                           engine=engine)
    return (result, recorder.to_trace(), socs[0].engine_stats,
            len(checkpoints))


#: The columns a StreamTrace stores a capture in.
TRACE_COLUMNS = ("cycles", "hold", "commits", "ports", "stages")

_POLL, _IRQ = ReportingMode.POLLING, ReportingMode.INTERRUPT_THRESHOLD
_CAPTURE_CASES = [(name, late_core, _POLL, 0)
                  for name in ("cosf", "fft", KERNEL, "binarysearch")
                  for late_core in (0, 1)] + [
    ("cosf", 1, _IRQ, 0), (KERNEL, 0, _IRQ, 0), (KERNEL, 1, _POLL, 500)]


@pytest.mark.parametrize(
    "name,late_core,mode,checkpoint_every", _CAPTURE_CASES,
    ids=["%s-late%d-%s%s" % (name, late_core,
                              "poll" if mode is _POLL else "irq",
                              "-checkpoints" if every else "")
         for name, late_core, mode, every in _CAPTURE_CASES])
def test_fast_capture_stream_equals_reference(name, late_core, mode,
                                              checkpoint_every):
    """Raw monitor taps (the replay substrate) must match column for
    column and byte for byte, so trace-cache entries stay
    engine-independent: on both span kinds, with either core late, and
    across the runner rebuilds that follow checkpoints (each rebinds
    the span's appends to the same columns)."""
    ref_res, ref_trace, _, _ = _captured(name, "reference", late_core,
                                         mode)
    fast_res, fast_trace, stats, checkpoints = _captured(
        name, "fast", late_core, mode, checkpoint_every)
    assert stats.fallback_reason is None
    assert stats.fast_cycles == fast_res.cycles
    if checkpoint_every:
        assert checkpoints == fast_res.cycles // checkpoint_every > 1
    assert dataclasses.asdict(fast_res) == dataclasses.asdict(ref_res)
    assert len(fast_trace) > 1000
    for column in TRACE_COLUMNS:
        assert getattr(fast_trace, column) == getattr(ref_trace, column), \
            column
    assert fast_trace.encode() == ref_trace.encode()


# --- cross-tier checkpoints -------------------------------------------------

@pytest.mark.parametrize("first,second", [("reference", "fast"),
                                          ("fast", "reference")])
def test_cross_tier_checkpoint_resume(first, second):
    """A snapshot taken under one tier resumes under the other and
    still reproduces the uninterrupted run's absolute counters."""
    prog = program(KERNEL)
    full = run_redundant(prog, benchmark=KERNEL, stagger_nops=100,
                         max_cycles=MAX_CYCLES)
    grabbed = {}

    def keep_first(soc):
        if "snap" not in grabbed:
            grabbed["snap"] = soc.snapshot(benchmark=KERNEL)

    run_redundant(prog, benchmark=KERNEL, stagger_nops=100,
                  max_cycles=MAX_CYCLES, checkpoint_every=500,
                  on_checkpoint=keep_first, engine=first)
    snap = Snapshot.decode(grabbed["snap"].encode())
    resumed = run_redundant(prog, benchmark=KERNEL, stagger_nops=100,
                            max_cycles=MAX_CYCLES, resume_from=snap,
                            engine=second)
    assert dataclasses.asdict(resumed) == dataclasses.asdict(full)


def test_shared_decode_cache_links_pair_and_survives_restore():
    """Pair cores share one per-PC decode cache; a snapshot/restore
    round trip re-links the sharing and continues bit-identically."""
    prog = program("cosf")
    soc = MPSoC()
    soc.start_redundant(prog)
    a, b = soc.monitored
    assert soc.cores[a]._fetch_cache is soc.cores[b]._fetch_cache
    for _ in range(400):
        soc.step()
    snap = Snapshot.decode(soc.snapshot(benchmark="cosf").encode())
    restored = MPSoC()
    restored.load_state_dict(snap.state)
    ra, rb = restored.monitored
    assert restored.cores[ra]._fetch_cache \
        is restored.cores[rb]._fetch_cache
    soc.run(max_cycles=400)
    restored.run(max_cycles=400)
    assert jsonable(restored.state_dict()) == jsonable(soc.state_dict())


# --- the one run loop -------------------------------------------------------

#: Cycle countnegative's monitored pair finishes on under the default
#: config: 71 x 193, so cadence 193 ends on a checkpoint.
KERNEL_END = 13_703


@pytest.mark.parametrize("every,calls", [(193, 71), (500, 27)])
def test_checkpoint_callbacks_fire_at_the_same_cycles_on_both_tiers(
        every, calls):
    """``run_soc``'s chunk loop calls back at every cadence multiple
    the run reaches, post-step, on either tier — including the cycle
    the watched cores finish on."""
    prog = program(KERNEL)
    seen = {}
    for engine in ("reference", "fast"):
        soc = MPSoC()
        soc.start_redundant(prog)
        cycles = []
        ran, stats = run_soc(soc, engine, program=prog,
                             checkpoint_every=every,
                             on_checkpoint=lambda s: cycles.append(s.cycle))
        assert ran == soc.cycle == KERNEL_END
        assert stats.fallback_reason is None
        seen[engine] = cycles
    assert seen["fast"] == seen["reference"] \
        == list(range(every, KERNEL_END + 1, every))
    assert len(seen["reference"]) == calls


@pytest.mark.parametrize("engine,kind", [("reference", ReferenceRunner),
                                         ("fast", FastRunner)])
def test_run_span_reports_cores_that_finish_on_stop(engine, kind):
    prog = program(KERNEL)
    soc = MPSoC()
    soc.start_redundant(prog)
    runner = make_runner(soc, engine, prog)
    assert type(runner) is kind
    assert runner.run_span(KERNEL_END - 1) is False
    assert soc.cycle == KERNEL_END - 1
    assert runner.run_span(KERNEL_END) is True
    assert soc.cycle == KERNEL_END
    # A finished SoC stays where it is.
    assert runner.run_span(KERNEL_END + 10) is True
    assert soc.cycle == KERNEL_END


@pytest.mark.parametrize("max_cycles", [5_000, 2_000_000],
                         ids=["truncated", "complete"])
def test_mpsoc_run_is_run_soc_on_the_reference_tier(max_cycles):
    prog = program(KERNEL)
    socs = [MPSoC(), MPSoC()]
    for soc in socs:
        soc.start_redundant(prog, stagger_nops=100)
    cycles = socs[0].run(max_cycles=max_cycles)
    ran, _ = run_soc(socs[1], "reference", max_cycles=max_cycles)
    assert cycles == ran == socs[1].cycle
    assert jsonable(socs[0].state_dict()) == jsonable(socs[1].state_dict())


# --- fault injection --------------------------------------------------------

def test_fault_injection_fast_equals_reference():
    prog = program(KERNEL)
    golden = golden_run(prog)
    ref_ccf = inject_common_cause(prog, 2000, 0x5EED, golden=golden)
    fast_ccf = inject_common_cause(prog, 2000, 0x5EED, golden=golden,
                                   engine="fast")
    assert dataclasses.asdict(fast_ccf) == dataclasses.asdict(ref_ccf)

    ref_tr = inject_transient(prog, 2000, core=0, register=5, bit=17,
                              golden=golden)
    fast_tr = inject_transient(prog, 2000, core=0, register=5, bit=17,
                               golden=golden, engine="fast")
    assert dataclasses.asdict(fast_tr) == dataclasses.asdict(ref_tr)


def test_fault_injection_fork_cross_tier():
    """Fork-from-checkpoint plus fast-tier stretches still equals a
    from-scratch reference injection."""
    prog = program(KERNEL)
    artifact = golden_run_with_checkpoints(prog, checkpoint_every=500)
    fork = ForkEngine(prog, artifact)
    cycle = artifact.checkpoint_cycles[0] + 137
    base = inject_common_cause(prog, cycle, 0x5EED,
                               golden=artifact.checksum)
    forked = inject_common_cause(prog, cycle, 0x5EED,
                                 golden=artifact.checksum, fork=fork,
                                 engine="fast")
    assert dataclasses.asdict(forked) == dataclasses.asdict(base)


@lru_cache(maxsize=1)
def _checkpointed_golden():
    return golden_run_with_checkpoints(program(KERNEL),
                                       checkpoint_every=500)


@pytest.mark.parametrize("forked", [False, True],
                         ids=["scratch", "fork"])
@pytest.mark.parametrize("kind", ["ccf", "transient"])
def test_fault_at_golden_end_cycle_fast_equals_reference(kind, forked):
    """A fault at the golden end cycle strikes a finished SoC: no tier
    applies it or steps past the end, so a fast-tier span must report
    cores that finish on its stop cycle as finished."""
    prog = program(KERNEL)
    artifact = _checkpointed_golden()
    end = artifact.end_cycle
    results = []
    for engine in ("reference", "fast"):
        fork = ForkEngine(prog, artifact) if forked else None
        if kind == "ccf":
            result = inject_common_cause(prog, end, 7,
                                         golden=artifact.checksum,
                                         fork=fork, engine=engine)
        else:
            result = inject_transient(prog, end, core=0, register=5,
                                      bit=3, golden=artifact.checksum,
                                      fork=fork, engine=engine)
        results.append(dataclasses.asdict(result))
    assert results[1] == results[0]
    assert results[0]["effects"] == ()
    assert results[0]["end_cycle"] == end


#: ``(kernel, fault cycle, register, bit, trap cycle)``: transients on
#: core 1 that trap, at the reference tier's cycle, on a misaligned
#: 8-byte store, a misaligned instruction fetch and an undecodable word.
TRAPS = [
    pytest.param("cosf", 8657, 19, 2, 8668, id="misaligned-store"),
    pytest.param("fac", 6804, 2, 3, 6834, id="misaligned-fetch"),
    pytest.param("fac", 970, 2, 39, 1150, id="undecodable"),
]


def _trapped_run(name, cycle, register, bit, mode, engine):
    """Drive a fresh pair to ``cycle`` on ``engine``'s runner, flip the
    bit, step the fault cycle and run on until the trap.  Returns the
    exception, the state it left and the run's engine statistics."""
    soc = MPSoC(mode=mode, threshold=4)
    soc.start_redundant(program(name))
    runner = make_runner(soc, engine)
    runner.run_span(cycle)
    TransientFault(cycle=cycle, core=1, register=register,
                   bit=bit).inject(soc.cores[1])
    soc.step()
    runner._rebuild()
    with pytest.raises((MemoryError_, SimulationError)) as info:
        runner.run_span(200_000)
    return ((type(info.value), str(info.value)),
            jsonable(soc.state_dict()), soc.engine_stats)


@pytest.mark.parametrize("mode", [ReportingMode.POLLING,
                                  ReportingMode.INTERRUPT_THRESHOLD])
@pytest.mark.parametrize("name,cycle,register,bit,trap", TRAPS)
def test_trap_leaves_the_same_state_on_both_tiers(name, cycle, register,
                                                  bit, trap, mode):
    """A trap inside a fast-tier span leaves the SoC where the
    interpreter leaves it: the trapping cycle, the trapping core's
    cycle counted, every completed cycle's deferred counters and
    monitor accounting written back."""
    ref_exc, ref_state, _ = _trapped_run(name, cycle, register, bit,
                                         mode, "reference")
    fast_exc, fast_state, stats = _trapped_run(name, cycle, register, bit,
                                               mode, "fast")
    assert ref_state["cycle"] == trap
    assert fast_exc == ref_exc
    assert fast_state == ref_state
    assert stats.fallback_reason is None
    # Every cycle but the injected one ran in a span, the trapping
    # span's included.
    assert stats.fast_cycles == trap - 1


@lru_cache(maxsize=None)
def _golden_artifact(name, shared):
    config = shared_address_config() if shared else None
    return golden_run_with_checkpoints(program(name), config=config,
                                       checkpoint_every=500,
                                       engine="fast")


@pytest.mark.parametrize("forked", [False, True], ids=["scratch", "fork"])
@pytest.mark.parametrize("name,shared,cycle,stimulus,trap", [
    pytest.param("binarysearch", False, 27199, 3909215068, 31181,
                 id="binarysearch"),
    pytest.param("bsort", True, 21285, 2325348894, 21703,
                 id="bsort-shared"),
])
def test_trapping_ccf_trial_runs_once_on_the_fast_tier(
        monkeypatch, name, shared, cycle, stimulus, trap, forked):
    """A CCF trial that traps on the fast tier equals the reference
    trial field for field, from scratch and forked, and no reference
    runner is built for it."""
    prog = program(name)
    config = shared_address_config() if shared else None
    artifact = _golden_artifact(name, shared)
    built = []

    def spy(soc, engine, program=None):
        runner = make_runner(soc, engine, program)
        built.append(type(runner))
        return runner

    monkeypatch.setattr(injector, "make_runner", spy)
    results = {}
    for engine, kind in (("reference", ReferenceRunner),
                         ("fast", FastRunner)):
        built.clear()
        fork = ForkEngine(prog, artifact, config=config) if forked else None
        results[engine] = dataclasses.asdict(inject_common_cause(
            prog, cycle, stimulus, golden=artifact.checksum,
            config=config, fork=fork, engine=engine))
        assert built == [kind]
    assert results["reference"]["trapped"]
    assert results["reference"]["end_cycle"] == trap
    assert results["fast"] == results["reference"]


# --- engine behaviour -------------------------------------------------------

def test_fast_tier_engagement_and_deopt_ceiling():
    _, cycles, stats = _pair_run("cosf", "fast")
    assert stats.fallback_reason is None
    assert stats.blocks_compiled > 0
    assert stats.fast_cycles == cycles
    assert stats.tier_hit_rate > 0.9
    # Matches the CI benchmark gate (--max-deopt-rate 0.01); the
    # superblock tier runs the TACLe kernels deopt-free in steady
    # state, so 1% leaves generous room for warm-up transients.
    assert stats.deopts <= 0.01 * cycles


@pytest.mark.parametrize("name", ["bsort", "binarysearch"])
def test_fast_matches_reference_without_branch_predictor(name):
    """With the predictor off, every generated branch handler follows
    its fall-through link; the taken link is built but never read."""
    config = SocConfig(core=CoreConfig(predictor_enabled=False))
    ref, ref_cycles, _ = _pair_run(name, "reference", stagger=100,
                                   config=config)
    fast, fast_cycles, stats = _pair_run(name, "fast", stagger=100,
                                         config=config)
    assert stats.fallback_reason is None
    assert stats.deopt_reasons == {}
    assert fast_cycles == ref_cycles
    assert jsonable(fast.state_dict()) == jsonable(ref.state_dict())


@pytest.mark.parametrize("scheme", [None, "tmr", "multipair"])
def test_unsupported_shape_falls_back_and_stays_correct(scheme):
    config = SocConfig(signature=SignatureConfig(
        is_variant=IsVariant.INFLIGHT))
    ref, ref_cycles, _ = _pair_run(KERNEL, "reference", config=config,
                                   scheme=scheme)
    fast, fast_cycles, stats = _pair_run(KERNEL, "fast", config=config,
                                         scheme=scheme)
    assert stats.fallback_reason is not None
    assert "PER_STAGE" in stats.fallback_reason
    assert fast_cycles == ref_cycles
    assert jsonable(fast.state_dict()) == jsonable(ref.state_dict())


# --- adversarial superblock side exits --------------------------------------
# Hand-written kernels aimed at the superblock tier's hard cases: a
# branch that changes direction mid-run, in-line memory guards (L1
# store miss), and page-version guards (self-modifying code).  Each
# must stay bit-identical to the reference tier.

from repro.isa.assembler import assemble  # noqa: E402
from repro.workloads import store_result  # noqa: E402

#: A branch taken for 600 iterations, then not-taken for 600 more: the
#: superblock tier links both arms when it builds the branch's block,
#: so the change of direction never leaves the trace.
BIAS_FLIP_SOURCE = """
_start:
    li t0, 0
    li t1, 1200
    li t2, 600
    li s0, 0
loop:
    blt t0, t2, small
    addi s0, s0, 3
    j merge
small:
    addi s0, s0, 1
merge:
    addi t0, t0, 1
    blt t0, t1, loop
%s
""" % store_result("s0")

#: Stores striding 4 KiB apart all map to one L1 set (64 sets x 32 B
#: lines), so the in-line tag probe keeps missing inside the hot
#: superblock and the memory op deopts to the reference memory stage.
STORE_MISS_SOURCE = """
_start:
    li t0, 0
    li t1, 300
    li s0, 0
    addi t2, gp, 64
sloop:
    sw t0, 0(t2)
    lw t3, 0(t2)
    add s0, s0, t3
    li t4, 4096
    add t2, t2, t4
    addi t0, t0, 1
    blt t0, t1, sloop
%s
""" % store_result("s0")

#: An inner loop hot enough to compile, then a store over its own
#: first instruction (same word, so semantics are unchanged) bumping
#: the code-page version; the compiled superblock must be invalidated
#: and rebuilt, and the next outer iteration re-enters the rebuilt
#: code.
SELF_MODIFY_SOURCE = """
_start:
    li s0, 0
    li s2, 0
outer:
    li t0, 0
inner:
    addi s0, s0, 1
    addi t0, t0, 1
    li t1, 100
    blt t0, t1, inner
    la t6, inner
    lw t5, 0(t6)
    sw t5, 0(t6)
    addi s2, s2, 1
    li t3, 3
    blt s2, t3, outer
%s
""" % store_result("s0")


def _adversarial_run(source, engine):
    prog = assemble(source, base=0x0001_0000)
    soc = MPSoC()
    soc.start_redundant(prog)
    cycles, stats = run_soc(soc, engine, program=prog,
                            max_cycles=MAX_CYCLES)
    return soc, cycles, stats


def test_branch_changing_direction_stays_on_the_trace():
    ref, ref_cycles, _ = _adversarial_run(BIAS_FLIP_SOURCE, "reference")
    fast, fast_cycles, stats = _adversarial_run(BIAS_FLIP_SOURCE, "fast")
    assert stats.fallback_reason is None
    assert fast_cycles == ref_cycles
    assert jsonable(fast.state_dict()) == jsonable(ref.state_dict())
    # Both arms were linked when the branch's block was built: the
    # change of direction costs no side exit and no rebuild.
    assert stats.deopt_reasons == {}
    assert stats.recompilations == 0
    assert stats.delegations == 0
    assert stats.superblock_links > 0


def test_store_missing_l1_handled_inline_within_superblock():
    ref, ref_cycles, _ = _adversarial_run(STORE_MISS_SOURCE, "reference")
    fast, fast_cycles, stats = _adversarial_run(STORE_MISS_SOURCE, "fast")
    assert stats.fallback_reason is None
    assert fast_cycles == ref_cycles
    assert jsonable(fast.state_dict()) == jsonable(ref.state_dict())
    # The kernel really did thrash L1 from inside compiled code...
    assert fast.cores[0].dcache.stats.misses > 200
    # ...and the guarded in-line memory path absorbed every miss:
    # the block tier (PR 6) delegated each one to the reference memory
    # stage, the superblock tier must delegate none.
    assert stats.deopt_reasons.get("mem_stage", 0) == 0
    assert stats.delegations == 0
    assert stats.superblock_links > 0


def test_self_modifying_code_invalidates_superblock_page():
    ref, ref_cycles, _ = _adversarial_run(SELF_MODIFY_SOURCE,
                                          "reference")
    fast, fast_cycles, stats = _adversarial_run(SELF_MODIFY_SOURCE,
                                                "fast")
    assert stats.fallback_reason is None
    assert fast_cycles == ref_cycles
    assert jsonable(fast.state_dict()) == jsonable(ref.state_dict())
    # Each outer iteration's store bumps the code-page version; the
    # compiled blocks on that page must be rebuilt, not trusted stale.
    assert stats.recompilations >= 1
    assert stats.deopt_reasons.get("recompile", 0) >= 1


def test_resolve_engine_validates():
    assert resolve_engine(None) == "reference"
    assert resolve_engine("fast") == "fast"
    with pytest.raises(ValueError):
        resolve_engine("warp")


def test_engine_counters_exported():
    registry = MetricsRegistry()
    run_redundant(program(KERNEL), benchmark=KERNEL,
                  max_cycles=MAX_CYCLES, metrics=registry, engine="fast")
    labels = (("engine", "fast"),)
    assert registry.value("repro_engine_blocks_compiled_total",
                          labels) > 0
    assert registry.value("repro_engine_fast_cycles_total", labels) > 0
    assert registry.value("repro_engine_deopts_total", labels,
                          default=None) is not None
    stats = EngineStats(engine="fast", blocks_compiled=1)
    stats.to_metrics(NULL_REGISTRY)  # disabled registry: a no-op
    assert len(NULL_REGISTRY) == 0


# --- telemetry reads the monitor's counters once, after the run -------------

def test_telemetry_compiles_no_span_of_its_own():
    """A registry never reaches the cycle loop: a fast run with one
    reuses the spans of the same run without, and its monitor counters
    are the run's own."""
    run_redundant(program(KERNEL), benchmark=KERNEL, engine="fast")
    spans = set(_SPAN_CACHE)
    registry = MetricsRegistry()
    result = run_redundant(program(KERNEL), benchmark=KERNEL,
                           metrics=registry, engine="fast")
    assert set(_SPAN_CACHE) == spans
    assert result.no_diversity_cycles > 0
    assert registry.value("repro_monitor_no_diversity_cycles_total",
                          (("pair", "0"),)) == result.no_diversity_cycles
