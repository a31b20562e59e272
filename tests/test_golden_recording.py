"""The golden recording on either engine tier.

Contracts under test:

* a fast-tier recording equals the reference-tier recording: access
  logs, issue frontiers and every :class:`GoldenArtifact` field,
  snapshot bytes included;
* an automatic checkpoint schedule (thinning) equals an explicit
  recording at the cadence it settles on, and a Monte-Carlo campaign
  spends no run on measuring a kernel's length;
* the fast tier models exactly the recording register file, and a
  recording leaves no trace in later plain fast-tier runs.
"""

import dataclasses

import pytest

from repro.checkpoint import Snapshot
from repro.cpu.regfile import RecordingRegisterFile, RegisterFile
from repro.engine import _fast_supported
from repro.fault import shared_address_config
from repro.fault.injector import (
    MAX_AUTO_SNAPSHOTS,
    MIN_CADENCE,
    record_golden_run,
)
from repro.isa.assembler import assemble
from repro.montecarlo import BatchedCampaign
from repro.soc.experiment import run_redundant
from repro.soc.mpsoc import MPSoC
from repro.workloads import all_names, program

from test_engine import (
    BIAS_FLIP_SOURCE,
    SELF_MODIFY_SOURCE,
    STORE_MISS_SOURCE,
)

MAX_CYCLES = 200_000

KERNEL = "countnegative"


def _record(prog, engine, shared=False, every=500,
            max_cycles=MAX_CYCLES, benchmark="program"):
    config = shared_address_config() if shared else None
    return record_golden_run(prog, config=config, max_cycles=max_cycles,
                             checkpoint_every=every, benchmark=benchmark,
                             engine=engine)


def _assert_same_recording(fast, ref):
    assert fast.logs == ref.logs
    assert fast.frontier == ref.frontier
    assert dataclasses.asdict(fast.base) == dataclasses.asdict(ref.base)


# --- fast == reference -------------------------------------------------------

#: deg2rad's golden run on the shared config is not deterministic; it
#: has its own test below.
CONTRACT_CASES = [
    (name, shared, 500, MAX_CYCLES)
    for name in all_names() for shared in (False, True)
    if (name, shared) != ("deg2rad", True)
] + [("md5", False, 300, 3_000), ("md5", False, 0, 3_000)]


@pytest.mark.slow
@pytest.mark.parametrize(
    "name,shared,every,max_cycles", CONTRACT_CASES,
    ids=["%s-%s-%d-%d" % (name, "shared" if shared else "default",
                          every, max_cycles)
         for name, shared, every, max_cycles in CONTRACT_CASES])
def test_fast_recording_equals_reference(name, shared, every, max_cycles):
    recordings = [_record(program(name), engine, shared=shared,
                          every=every, max_cycles=max_cycles,
                          benchmark=name)
                  for engine in ("reference", "fast")]
    _assert_same_recording(recordings[1], recordings[0])
    assert recordings[0].base.finished == (max_cycles == MAX_CYCLES)


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_nondeterministic_golden_run_raises_on_both_tiers(engine):
    with pytest.raises(RuntimeError,
                       match="^golden run is not deterministic$"):
        _record(program("deg2rad"), engine, shared=True,
                benchmark="deg2rad")


@pytest.mark.parametrize("source", [BIAS_FLIP_SOURCE, STORE_MISS_SOURCE,
                                    SELF_MODIFY_SOURCE],
                         ids=["bias-flip", "store-miss", "self-modify"])
def test_fast_recording_equals_reference_through_side_exits(source):
    """Guard failures, in-line memory misses and code-page rebuilds
    all log exactly what the reference recorder logs."""
    prog = assemble(source, base=0x0001_0000)
    _assert_same_recording(_record(prog, "fast", every=300),
                           _record(prog, "reference", every=300))


def test_fast_recording_runs_the_fast_tier(monkeypatch):
    import repro.engine

    tiers = []
    select_tier = repro.engine.select_tier

    def spy(soc, engine):
        stats, fast = select_tier(soc, engine)
        tiers.append((fast, stats.fallback_reason))
        return stats, fast

    monkeypatch.setattr(repro.engine, "select_tier", spy)
    _record(program(KERNEL), "fast", benchmark=KERNEL)
    assert tiers == [(True, None)]


# --- automatic cadence -------------------------------------------------------

@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_auto_cadence_equals_explicit_recording(engine, monkeypatch):
    taken = []
    snapshot = MPSoC.snapshot

    def spy(self, **meta):
        taken.append(meta["checkpoint_every"])
        return snapshot(self, **meta)

    monkeypatch.setattr(MPSoC, "snapshot", spy)
    prog = program(KERNEL)
    auto = _record(prog, engine, shared=True, every=None,
                   benchmark=KERNEL)
    # 13,694 cycles: 50 snapshots at the starting cadence, then every
    # other one dropped and the cadence doubled, once.
    every = auto.base.checkpoint_every
    assert every == 2 * MIN_CADENCE
    assert taken.count(MIN_CADENCE) == MAX_AUTO_SNAPSHOTS
    assert len(auto.base.snapshots) < MAX_AUTO_SNAPSHOTS
    assert auto.base.checkpoint_cycles == tuple(
        range(every, auto.base.end_cycle + 1, every))

    explicit = _record(prog, engine, shared=True, every=every,
                       benchmark=KERNEL)
    assert auto.logs == explicit.logs
    assert auto.frontier == explicit.frontier
    fields = dataclasses.asdict(auto.base)
    want = dataclasses.asdict(explicit.base)
    # Snapshot metadata keeps the cadence each snapshot was taken at;
    # the machine states are the same.
    assert [Snapshot.decode(blob).state for blob in fields.pop("snapshots")] \
        == [Snapshot.decode(blob).state for blob in want.pop("snapshots")]
    assert fields == want


def test_prepare_runs_no_cadence_probe(monkeypatch):
    import repro.soc.experiment

    def probe(*args, **kwargs):
        raise AssertionError("prepare() spent a run on the cadence")

    monkeypatch.setattr(repro.soc.experiment, "run_redundant", probe)
    campaign = BatchedCampaign(program(KERNEL), benchmark=KERNEL,
                               config=shared_address_config(),
                               max_cycles=MAX_CYCLES, engine="fast")
    artifact = campaign.prepare()
    assert artifact.base.checkpoint_every == 2 * MIN_CADENCE
    result = campaign.run(campaign.sample_ccf(8, seed=1))
    assert result.checkpoint_every == 2 * MIN_CADENCE


# --- tier selection and cache isolation --------------------------------------

class _TappedRegisterFile(RegisterFile):
    """Some other instrumented register file."""


class _TappedRecordingRegisterFile(RecordingRegisterFile):
    """A recording register file with behaviour of its own."""


def _soc_with(make_regfile):
    soc = MPSoC()
    soc.start_redundant(program(KERNEL))
    for index in soc.monitored:
        core = soc.cores[index]
        core.regfile = make_regfile(core.regfile)
    return soc


def test_fast_tier_models_the_recording_register_file():
    assert _fast_supported(_soc_with(RecordingRegisterFile)) is None


@pytest.mark.parametrize("make_regfile", [
    lambda source: _TappedRegisterFile(),
    _TappedRecordingRegisterFile,
], ids=["RegisterFile-subclass", "RecordingRegisterFile-subclass"])
def test_fast_tier_refuses_other_register_files(make_regfile):
    soc = _soc_with(make_regfile)
    assert _fast_supported(soc) == "instrumented register file (%s)" \
        % type(soc.cores[0].regfile).__name__


def test_recording_leaves_plain_fast_runs_untouched():
    """Logging handlers and spans are cached apart from plain ones: a
    plain fast run after a fast recording of the same program neither
    appends to the recording's logs nor differs from the reference."""
    prog = program(KERNEL)
    recording = _record(prog, "fast", benchmark=KERNEL)
    sizes = [len(column) for column in recording.logs + recording.frontier]
    fast = run_redundant(prog, benchmark=KERNEL, max_cycles=MAX_CYCLES,
                         engine="fast")
    assert [len(column) for column
            in recording.logs + recording.frontier] == sizes
    reference = run_redundant(prog, benchmark=KERNEL,
                              max_cycles=MAX_CYCLES)
    assert dataclasses.asdict(fast) == dataclasses.asdict(reference)
