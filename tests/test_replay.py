"""Capture/replay tests: codec losslessness and bit-exact replay.

The load-bearing property: for ANY kernel and ANY monitor
configuration, replaying a captured stream trace produces exactly the
stats, histograms, and diff counters a live simulation with that
configuration would have — SafeDM is observational, so the streams
are monitor-independent.
"""

import dataclasses
import hashlib

import pytest

from repro.core.monitor import ReportingMode
from repro.core.signatures import (
    IsVariant,
    SignatureConfig,
    inflight_from_stage_words,
)
from repro.replay import (
    MonitorPoint,
    MonitorSweep,
    ReplayEngine,
    ReplayMonitor,
    replay_run,
    threshold_points,
)
from repro.soc.config import SocConfig
from repro.soc.experiment import run_redundant, run_redundant_captured
from repro.trace.stream_trace import (
    CoreSample,
    CycleSample,
    StreamTrace,
    TraceMeta,
)
from repro.workloads import all_names, program

#: Truncated so the 29-kernel property sweep stays test-suite cheap;
#: every kernel still exercises thousands of monitored cycles.
MAX_CYCLES = 4000

#: Monitor configurations spanning both IS variants, non-default DS
#: geometry, and all three reporting modes.
CONFIGS = (
    (SignatureConfig(), ReportingMode.POLLING, 1),
    (SignatureConfig(is_variant=IsVariant.INFLIGHT),
     ReportingMode.INTERRUPT_FIRST, 1),
    (SignatureConfig(num_ports=2, ds_depth=3),
     ReportingMode.INTERRUPT_THRESHOLD, 8),
)


def _histogram_state(history):
    return {name: dict(bins=list(h.bins), episodes=h.episodes,
                       total_cycles=h.total_cycles, longest=h.longest)
            for name, h in history.histograms.items()}


def _live(prog, name, signature, mode, threshold, **kwargs):
    """A live run exposing its monitor (histograms and diff unit)."""
    grabbed = {}
    result = run_redundant(prog, benchmark=name,
                           config=SocConfig(signature=signature),
                           mode=mode, threshold=threshold,
                           max_cycles=MAX_CYCLES,
                           soc_hook=lambda soc: grabbed.update(soc=soc),
                           **kwargs)
    return result, grabbed["soc"].safedm


# --- the headline property: live == replayed, every kernel -------------------

@pytest.mark.slow
@pytest.mark.parametrize("name", all_names())
def test_replay_matches_live_for_every_kernel(name):
    prog = program(name)
    _, trace = run_redundant_captured(prog, benchmark=name,
                                      max_cycles=MAX_CYCLES)
    engine = ReplayEngine(trace)
    for signature, mode, threshold in CONFIGS:
        live_result, live_monitor = _live(prog, name, signature, mode,
                                          threshold)
        # Fast path (memoized accounting + closed-form interrupts).
        replayed = engine.run_result(signature=signature, mode=mode,
                                     threshold=threshold)
        assert dataclasses.asdict(replayed) == \
            dataclasses.asdict(live_result), (name, signature, mode)
        outcome = engine.replay(signature=signature, mode=mode,
                                threshold=threshold)
        assert dataclasses.asdict(outcome.diff_stats) == \
            dataclasses.asdict(live_monitor.instruction_diff.stats)
        assert _histogram_state(outcome.history) == \
            _histogram_state(live_monitor.history)
        # Reference path (a real DiversityMonitor driven per cycle).
        reference = ReplayMonitor(trace, signature=signature, mode=mode,
                                  threshold=threshold)
        assert dataclasses.asdict(reference.run_result()) == \
            dataclasses.asdict(live_result)
        assert dataclasses.asdict(reference.stats) == \
            dataclasses.asdict(live_monitor.stats)
        assert _histogram_state(reference.history) == \
            _histogram_state(live_monitor.history)


@pytest.mark.slow
def test_replay_matches_live_when_staggered():
    """Staggering preloads the instruction-diff counter; the preload
    must ride along in the trace metadata."""
    name = "cosf"
    prog = program(name)
    for late_core in (0, 1):
        _, trace = run_redundant_captured(prog, benchmark=name,
                                          stagger_nops=100,
                                          late_core=late_core,
                                          max_cycles=MAX_CYCLES)
        for signature, mode, threshold in CONFIGS:
            live_result, _ = _live(prog, name, signature, mode,
                                   threshold, stagger_nops=100,
                                   late_core=late_core)
            replayed = replay_run(trace, signature=signature, mode=mode,
                                  threshold=threshold)
            assert dataclasses.asdict(replayed) == \
                dataclasses.asdict(live_result), (late_core, signature)


def test_engine_memoizes_accounting_across_thresholds():
    prog = program("cosf")
    _, trace = run_redundant_captured(prog, benchmark="cosf",
                                      max_cycles=MAX_CYCLES)
    engine = ReplayEngine(trace)
    for threshold in range(1, 17):
        engine.run_result(mode=ReportingMode.INTERRUPT_THRESHOLD,
                          threshold=threshold)
    assert engine.accounting_passes == 1
    engine.run_result(signature=CONFIGS[2][0])
    assert engine.accounting_passes == 2


# --- codec round trips -------------------------------------------------------

def _round_trip(trace):
    blob = trace.encode()
    decoded = StreamTrace.decode(blob)
    assert decoded.samples == trace.samples
    assert dataclasses.asdict(decoded.meta) == \
        dataclasses.asdict(trace.meta)
    return decoded, blob


def test_codec_round_trip_empty():
    trace = StreamTrace(meta=TraceMeta(benchmark="empty"))
    decoded, _ = _round_trip(trace)
    assert len(decoded) == 0


def test_codec_round_trip_single_cycle():
    sample = CycleSample(7, (
        CoreSample(False, 1, ((1, 0xDEAD), (0, 0)),
                   ((0x1234,), None, (0x5678, 0x9ABC))),
        CoreSample(True, 0, None, None),
    ))
    trace = StreamTrace(meta=TraceMeta(benchmark="one", cycles=8),
                        samples=[sample])
    decoded, _ = _round_trip(trace)
    assert decoded.samples[0] == sample


def _edge_case_trace():
    """Holds, empty stages, repeated dictionary words, 32-bit values,
    a (enable=0, value!=0) port sample, and a cycle gap."""
    samples = [
        CycleSample(0, (
            CoreSample(False, 2, ((1, 0xFFFF_FFFF), (0, 5)),
                       (None, None, None)),
            CoreSample(False, 0, ((1, 0), (1, 1)),
                       ((0xAAAA_0001, 0xAAAA_0001), (0xAAAA_0001,))),
        )),
        CycleSample(1, (
            CoreSample(True, 1, None, None),
            CoreSample(True, 0, None, None),
        )),
        CycleSample(5, (
            CoreSample(False, 0, ((0, 0xFFFF_FFFF), (1, 5)),
                       ((), (0xAAAA_0001,), None)),
            CoreSample(False, 3, ((1, 123), (0, 0)),
                       ((0xBBBB_0002,), ())),
        )),
    ]
    return StreamTrace(meta=TraceMeta(benchmark="synthetic",
                                      diff_preload=42),
                       samples=samples)


def test_codec_round_trip_synthetic_edge_cases():
    decoded, _ = _round_trip(_edge_case_trace())
    assert decoded.meta.diff_preload == 42


#: sha256 of ``encode()`` for the edge-case trace and for a cosf capture
#: of MAX_CYCLES cycles (the same on either tier).  The codec's bytes
#: are its schema: trace-cache files written earlier must decode, so an
#: encoder change that moves a byte must bump TRACE_SCHEMA_VERSION.
#: (zlib level 6 output; a zlib build that deflates differently moves
#: these digests too.)
ENCODED_SHA256 = {
    "edge cases":
        "8ada169bfe226fcd0da251122a6343a22c200e95932584a8d73577cb60b343be",
    "cosf":
        "cd688341a199530c538ba1477c39e1d6cf7fcdbafbdaf9c847cc2a9bcd2e076c",
}


@pytest.mark.slow
def test_codec_bytes_are_pinned():
    _, cosf = run_redundant_captured(program("cosf"), benchmark="cosf",
                                     max_cycles=MAX_CYCLES, engine="fast")
    for name, trace in (("edge cases", _edge_case_trace()),
                        ("cosf", cosf)):
        assert hashlib.sha256(trace.encode()).hexdigest() == \
            ENCODED_SHA256[name], name


@pytest.mark.slow
def test_codec_round_trip_real_capture_and_compression():
    _, trace = run_redundant_captured(program("cosf"), benchmark="cosf",
                                      max_cycles=MAX_CYCLES)
    _, blob = _round_trip(trace)
    # The codec must actually compress: raw per-cycle state dwarfs it.
    assert len(blob) < 40 * len(trace)


def test_codec_rejects_garbage():
    with pytest.raises(ValueError):
        StreamTrace.decode(b"NOPE" + b"\x00" * 16)
    blob = StreamTrace(meta=TraceMeta()).encode()
    with pytest.raises(ValueError):
        StreamTrace.decode(blob[:6])


def test_trace_file_round_trip(tmp_path):
    trace = StreamTrace(meta=TraceMeta(benchmark="disk"), samples=[
        CycleSample(0, (CoreSample(True, 0, None, None),
                        CoreSample(True, 0, None, None)))])
    path = tmp_path / "t.trace"
    trace.save(path)
    loaded = StreamTrace.load(path)
    assert loaded.samples == trace.samples


def test_inflight_from_stage_words():
    stages = ((1, 2), None, (), (3,))
    # Reversed stage order, Nones and empties dropped.
    assert inflight_from_stage_words(stages) == (3, 1, 2)
    assert inflight_from_stage_words((None, None)) == ()


# --- the sweep driver --------------------------------------------------------

@pytest.mark.slow
def test_monitor_sweep_capture_once_replay_many(tmp_path):
    sweep = MonitorSweep(cache_dir=tmp_path)
    points = threshold_points(range(1, 9)) + (
        MonitorPoint(mode=ReportingMode.POLLING,
                     signature=CONFIGS[1][0]),)
    outcome = sweep.sweep("cosf", points, max_cycles=MAX_CYCLES)
    assert outcome.captured
    assert len(outcome.results) == len(points)
    assert sweep.traces.stores == 1

    # Interrupt count must be monotonically non-increasing in the
    # threshold (a higher bar can only fire later or never).
    irqs = [r.interrupts for r in outcome.results[:8]]
    assert irqs == sorted(irqs, reverse=True)

    # Same sweep again: pure run-cache hits, no capture, no replay.
    again = MonitorSweep(cache_dir=tmp_path)
    outcome2 = again.sweep("cosf", points, max_cycles=MAX_CYCLES)
    assert not outcome2.captured
    assert outcome2.cache_hits == len(points)
    assert [dataclasses.asdict(r) for r in outcome2.results] == \
        [dataclasses.asdict(r) for r in outcome.results]

    # New points over the same simulation: trace reused, not recaptured.
    more = MonitorSweep(cache_dir=tmp_path)
    outcome3 = more.sweep("cosf", threshold_points((20, 40)),
                          max_cycles=MAX_CYCLES)
    assert not outcome3.captured
    assert more.traces.hits == 1


def test_monitor_sweep_encodes_each_trace_once(tmp_path, monkeypatch):
    """``trace_bytes`` comes from the one encode a sweep needs: the
    trace-cache store on capture, the stored entry on a trace-cache
    hit, and a single encode without the cache."""
    encode = StreamTrace.encode
    calls = []

    def counting_encode(trace):
        calls.append(trace)
        return encode(trace)

    monkeypatch.setattr(StreamTrace, "encode", counting_encode)
    sweeps = [
        (MonitorSweep(cache_dir=tmp_path), threshold_points((1, 8)), 1),
        (MonitorSweep(cache_dir=tmp_path), threshold_points((16,)), 0),
        (MonitorSweep(use_cache=False), threshold_points((1,)), 1),
    ]
    outcomes = []
    for sweep, points, encodes in sweeps:
        del calls[:]
        outcome = sweep.sweep("cosf", points, max_cycles=MAX_CYCLES)
        assert len(calls) == encodes
        outcomes.append(outcome)
    assert [outcome.captured for outcome in outcomes] == \
        [True, False, True]
    assert sweeps[1][0].traces.hits == 1

    trace = sweeps[1][0].traces.get(outcomes[0].sim_key)
    size = len(encode(trace))
    assert [outcome.trace_bytes for outcome in outcomes] == [size] * 3
