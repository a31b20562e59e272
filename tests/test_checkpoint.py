"""Snapshot/restore tests: determinism, codec, stores, fork campaigns.

The load-bearing property: for ANY kernel, snapshotting the MPSoC at
cycle k, restoring into a *fresh* platform, and continuing the run
reproduces the uninterrupted run bit-for-bit — every counter, stream,
and verdict.  The fork-from-checkpoint fault campaign rests entirely
on this.
"""

import dataclasses

import pytest

from repro.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointMeta,
    Snapshot,
    jsonable,
)
from repro.fault import (
    ForkEngine,
    golden_run_with_checkpoints,
    inject_common_cause,
    run_ccf_campaign,
    shared_address_config,
    spread_cycles,
)
from repro.fault.injector import record_golden_run
from repro.isa.assembler import assemble
from repro.runner.cache import (
    CheckpointIndexStore,
    CheckpointStore,
    checkpoint_index_key,
    checkpoint_key,
)
from repro.soc.experiment import run_redundant
from repro.soc.mpsoc import MPSoC
from repro.workloads import all_names, program, store_result

from conftest import golden_points

#: Truncated so the 29-kernel property sweep stays test-suite cheap;
#: every kernel still exercises thousands of monitored cycles.
MAX_CYCLES = 4000

PROGRAM = "countnegative"  # short, memory-touching kernel


def _reference_run(prog, **kwargs):
    """The uninterrupted run: final state dict plus cycle count."""
    soc = MPSoC()
    soc.start_redundant(prog, **kwargs)
    soc.run(max_cycles=MAX_CYCLES)
    return soc


def _interrupted_run(prog, k, **kwargs):
    """Step to cycle ``k`` (no monitor finish) and snapshot."""
    soc = MPSoC()
    soc.start_redundant(prog, **kwargs)
    while soc.cycle < k:
        soc.step()
    return soc.snapshot(benchmark="interrupted")


def _continue_from(snapshot):
    """Restore ``snapshot`` into a fresh platform and finish the run."""
    soc = MPSoC()
    soc.load_state_dict(snapshot.state)
    soc.run(max_cycles=MAX_CYCLES - soc.cycle)
    return soc


# --- the headline property: restore == uninterrupted, every kernel ----------

@pytest.mark.slow
@pytest.mark.parametrize("name", all_names())
def test_restore_matches_uninterrupted_for_every_kernel(name):
    prog = program(name)
    reference = _reference_run(prog)
    k = max(1, reference.cycle // 2)
    snapshot = _interrupted_run(prog, k)
    # Round-trip through the binary codec: the restored platform sees
    # exactly what a disk checkpoint would provide.
    resumed = _continue_from(Snapshot.decode(snapshot.encode()))
    assert resumed.cycle == reference.cycle
    assert jsonable(resumed.state_dict()) == \
        jsonable(reference.state_dict()), name


@pytest.mark.slow
def test_restore_mid_staggered_preload():
    """Snapshotting while the late core is still inside its nop sled
    must preserve the staggering correction and diff preload."""
    prog = program("cosf")
    for late_core in (0, 1):
        reference = _reference_run(prog, stagger_nops=100,
                                   late_core=late_core)
        # Cycle 40: the 100-nop sled is still draining.
        snapshot = _interrupted_run(prog, 40, stagger_nops=100,
                                    late_core=late_core)
        resumed = _continue_from(Snapshot.decode(snapshot.encode()))
        assert jsonable(resumed.state_dict()) == \
            jsonable(reference.state_dict()), late_core


def test_run_redundant_resume_matches_uninterrupted():
    """The experiment layer's resume path reports the absolute result."""
    prog = program(PROGRAM)
    grabbed = {}

    def keep_first(soc):
        if "snap" not in grabbed:
            grabbed["snap"] = soc.snapshot(benchmark=PROGRAM)

    full = run_redundant(prog, benchmark=PROGRAM, max_cycles=MAX_CYCLES,
                         checkpoint_every=500, on_checkpoint=keep_first)
    resumed = run_redundant(prog, benchmark=PROGRAM,
                            max_cycles=MAX_CYCLES,
                            resume_from=grabbed["snap"])
    assert dataclasses.asdict(resumed) == dataclasses.asdict(full)


def test_run_redundant_rejects_resume_with_capture():
    prog = program(PROGRAM)
    snap = MPSoC().snapshot()
    with pytest.raises(ValueError):
        run_redundant(prog, resume_from=snap, capture=object())


# --- codec ------------------------------------------------------------------

def _small_snapshot():
    soc = MPSoC()
    soc.start_redundant(program(PROGRAM))
    for _ in range(200):
        soc.step()
    return soc.snapshot(benchmark=PROGRAM, checkpoint_every=100,
                        sim_key="abc123")


def test_codec_round_trip_preserves_state_and_meta():
    snapshot = _small_snapshot()
    decoded = Snapshot.decode(snapshot.encode())
    assert jsonable(decoded.state) == jsonable(snapshot.state)
    assert dataclasses.asdict(decoded.meta) == \
        dataclasses.asdict(snapshot.meta)
    assert decoded.meta.cycle == 200
    assert decoded.meta.sim_key == "abc123"


def test_codec_digest_is_content_addressed():
    snapshot = _small_snapshot()
    decoded = Snapshot.decode(snapshot.encode())
    assert decoded.digest() == snapshot.digest()
    other = Snapshot({"cycle": 1}, CheckpointMeta())
    assert other.digest() != snapshot.digest()


def test_codec_rejects_garbage():
    with pytest.raises(ValueError):
        Snapshot.decode(b"NOPE" + b"\x00" * 16)


def test_codec_rejects_truncation():
    blob = _small_snapshot().encode()
    with pytest.raises((ValueError, EOFError)):
        Snapshot.decode(blob[: len(blob) // 2])


def test_codec_file_round_trip(tmp_path):
    snapshot = _small_snapshot()
    path = tmp_path / "state.ckpt"
    snapshot.save(path)
    loaded = Snapshot.load(path)
    assert jsonable(loaded.state) == jsonable(snapshot.state)
    assert loaded.meta.checkpoint_every == 100


# --- cache stores -----------------------------------------------------------

def test_checkpoint_store_round_trip(tmp_path):
    store = CheckpointStore(tmp_path)
    snapshot = _small_snapshot()
    key = checkpoint_key("simkey", cycle=200, every=100)
    store.put(key, snapshot)
    assert store.bytes_written > 0
    cached = store.get(key)
    assert jsonable(cached.state) == jsonable(snapshot.state)
    blob = store.get_blob(key)
    assert blob == snapshot.encode()


def test_checkpoint_store_evicts_corrupt_entry(tmp_path):
    store = CheckpointStore(tmp_path)
    bad = tmp_path / ("badkey" + CheckpointStore.SUFFIX)
    bad.write_bytes(b"NOPE not a snapshot")
    assert store.get("badkey") is None
    assert store.evictions == 1
    assert not bad.exists()


def test_checkpoint_index_store_evicts_stale_schema(tmp_path):
    store = CheckpointIndexStore(tmp_path)
    old = tmp_path / ("oldkey" + CheckpointIndexStore.SUFFIX)
    old.write_text('{"schema": 1, "index": {"cycles": [100]}}')
    assert store.get("oldkey") is None
    assert store.evictions == 1
    assert not old.exists()


def test_checkpoint_index_store_round_trip(tmp_path):
    store = CheckpointIndexStore(tmp_path)
    key = checkpoint_index_key("simkey", every=100)
    store.put(key, {"every": 100, "cycles": [100, 200]})
    assert store.get(key) == {"every": 100, "cycles": [100, 200]}
    assert checkpoint_key("simkey", cycle=100, every=100) != \
        checkpoint_key("simkey", cycle=100, every=200)
    assert checkpoint_index_key("a", every=100) != \
        checkpoint_index_key("b", every=100)


def test_schema_version_is_live():
    assert Snapshot.decode(_small_snapshot().encode())
    assert CHECKPOINT_SCHEMA_VERSION >= 1


# --- fork engine ------------------------------------------------------------

@pytest.fixture(scope="module")
def artifact():
    return golden_run_with_checkpoints(program(PROGRAM),
                                       checkpoint_every=500)


def test_golden_artifact_shape(artifact):
    assert artifact.checkpoint_cycles
    assert all(c % 500 == 0 for c in artifact.checkpoint_cycles)
    assert len(artifact.snapshots) == len(artifact.checkpoint_cycles)
    assert len(artifact.exempt_masks) == len(artifact.checkpoint_cycles)
    for masks in artifact.exempt_masks:
        assert len(masks) == len(artifact.monitored)
    assert artifact.finished
    assert artifact.outputs[0] == artifact.outputs[1]


def test_fork_restores_nearest_checkpoint(artifact):
    engine = ForkEngine(program(PROGRAM), artifact)
    first = artifact.checkpoint_cycles[0]
    soc = engine.fork(first + first // 2)
    assert soc.cycle == first
    assert engine.forks == 1 and engine.restores == 1
    # Before the first checkpoint there is nothing to fork from.
    scratch = engine.fork(first - 1)
    assert scratch.cycle == 0
    assert engine.scratch_runs == 1


#: A loop over t0, t1 and s0 (x5, x6, x8) whose epilogue reads s1 (x9),
#: writes a1 (x11) before reading it, and stores the checksum through
#: gp (x3).
DEAD_REGISTERS_SOURCE = """
_start:
    li t0, 0
    li t1, 1000
    li s0, 0
    li s1, 7
    li a1, 5
loop:
    addi s0, s0, 1
    addi t0, t0, 1
    blt t0, t1, loop
    add s0, s0, s1
    li a1, 9
    add s0, s0, a1
%s
""" % store_result("s0")


def _all_but(*live):
    return tuple(r for r in range(1, 32) if r not in live)


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_checkpoint_masks_name_the_dead_registers(engine):
    recording = record_golden_run(
        assemble(DEAD_REGISTERS_SOURCE, base=0x0001_0000),
        checkpoint_every=200, engine=engine)
    artifact = recording.base
    # The loop runs about 2,000 cycles: every checkpoint lands in it,
    # where only the loop's registers, s1 and gp are read again.
    assert artifact.checkpoint_cycles == tuple(range(200, 2001, 200))
    in_loop = _all_but(3, 5, 6, 8, 9)
    assert artifact.exempt_masks == ((in_loop, in_loop),) * 10
    for index in recording.access:
        # The prologue writes every register it reads but gp...
        assert index.dead_registers(0) == _all_but(3)
        # ...and after the run only the checksum readout of s0 remains.
        assert index.dead_registers(artifact.end_cycle) == _all_but(8)


def test_fork_equals_scratch_single_injection(artifact):
    prog = program(PROGRAM)
    fork = ForkEngine(prog, artifact)
    cycle = artifact.checkpoint_cycles[0] + 137
    base = inject_common_cause(prog, cycle, 0x5EED,
                               golden=artifact.checksum)
    forked = inject_common_cause(prog, cycle, 0x5EED,
                                 golden=artifact.checksum, fork=fork)
    assert dataclasses.asdict(forked) == dataclasses.asdict(base)


# --- on-demand observation: the walk == the per-cycle golden loop ----------

#: (kernel, shared-address config, checkpoint cadence, max_cycles).
OBSERVED = [
    ("countnegative", True, 547, 2_000_000),
    ("cosf", False, 500, 2_000_000),
    ("ludcmp", True, 400, 2_000_000),
    ("fft", False, 600, 2_000_000),
    ("md5", True, 500, 3_000),  # truncated mid-run
]


@pytest.fixture(scope="module", params=OBSERVED,
                ids=lambda case: "%s-%s-%d" % (
                    case[0], "shared" if case[1] else "default",
                    case[3]))
def observed(request):
    """A checkpointed golden run and its per-cycle oracle points."""
    kernel, shared, every, max_cycles = request.param
    prog = program(kernel)
    config = shared_address_config() if shared else None
    artifact = golden_run_with_checkpoints(
        prog, config=config, max_cycles=max_cycles,
        checkpoint_every=every, benchmark=kernel)
    return prog, config, artifact, golden_points(prog, config,
                                                 max_cycles)


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_observe_matches_per_cycle_golden_loop(observed, engine,
                                               monkeypatch):
    """:meth:`ForkEngine.observe` returns what the per-cycle loop
    records, at every cycle: densely (the walk only steps forward),
    every seventh cycle (engine spans follow reference steps with no
    restore in between) and sparsely (gaps span more than a cadence,
    so the walk restores checkpoints ahead of itself)."""
    prog, config, artifact, oracle = observed
    restores = []
    load = MPSoC.load_state_dict
    monkeypatch.setattr(MPSoC, "load_state_dict", lambda soc, state: (
        restores.append(state["cycle"]), load(soc, state)))
    end = artifact.end_cycle
    assert len(oracle) == end
    fork = ForkEngine(prog, artifact, config=config)
    dense = fork.observe(range(end), engine)
    wrong = [c for c in range(end) if dense[c] != oracle[c]]
    assert not wrong, "dense walk differs at cycles %s" % wrong[:5]
    assert restores == []
    medium = list(range(0, end, 7))
    seen = fork.observe(medium, engine)
    wrong = [c for c in medium if seen[c] != oracle[c]]
    assert not wrong, "7-cycle walk differs at cycles %s" % wrong[:5]
    restores.clear()
    gap = 2 * artifact.checkpoint_every + 13
    sparse = list(range(0, end - 1, gap)) + [end - 1]
    seen = fork.observe(reversed(sparse), engine)
    assert sorted(seen) == sparse
    wrong = [c for c in sparse if seen[c] != oracle[c]]
    assert not wrong, "sparse walk differs at cycles %s" % wrong[:5]
    assert len(restores) >= len(sparse) - 2


def test_observe_rejects_cycles_outside_the_golden_run(artifact):
    fork = ForkEngine(program(PROGRAM), artifact)
    assert fork.observe([]) == {}
    for cycle in (-1, artifact.end_cycle):
        with pytest.raises(ValueError, match="golden cycles"):
            fork.observe([cycle])


# --- campaigns: fork == scratch == parallel ---------------------------------

@pytest.mark.slow
def test_campaign_fork_and_parallel_bit_identical(tmp_path):
    """Every InjectionResult field matches across the three engines,
    and the no-false-negative property holds throughout."""
    prog = program(PROGRAM)
    config = shared_address_config()
    probe = run_redundant(prog, config=config)
    cycles = spread_cycles(probe.cycles, 4)

    scratch = run_ccf_campaign(prog, cycles, config=config)
    fork = run_ccf_campaign(prog, cycles, config=config,
                            checkpoint_every=500, cache_dir=tmp_path)
    par = run_ccf_campaign(prog, cycles, config=config,
                           checkpoint_every=500, cache_dir=tmp_path,
                           jobs=2)

    for other in (fork, par):
        assert len(other.injections) == len(scratch.injections)
        for a, b in zip(scratch.injections, other.injections):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert scratch.silent_despite_diversity == 0
    assert fork.summary() == scratch.summary()


@pytest.mark.slow
def test_campaign_warm_start_reuses_cached_golden(tmp_path):
    from repro.telemetry import MetricsRegistry
    prog = program(PROGRAM)
    config = shared_address_config()
    probe = run_redundant(prog, config=config)
    cycles = spread_cycles(probe.cycles, 3)

    cold = MetricsRegistry()
    first = run_ccf_campaign(prog, cycles, config=config,
                             checkpoint_every=500, cache_dir=tmp_path,
                             metrics=cold)
    assert cold.value("repro_checkpoint_saves_total") > 0
    assert cold.value("repro_checkpoint_index_hits_total") == 0

    warm = MetricsRegistry()
    second = run_ccf_campaign(prog, cycles, config=config,
                              checkpoint_every=500, cache_dir=tmp_path,
                              metrics=warm)
    assert warm.value("repro_checkpoint_index_hits_total") == 1
    assert warm.value("repro_checkpoint_saves_total", default=0) == 0
    for a, b in zip(first.injections, second.injections):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
