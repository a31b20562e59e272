"""Monitor-parameter sweeps: one simulation, N replayed configurations.

The classic SafeDM design-space question — "which episode threshold /
IS variant / DS depth should the platform integrator program?" — needs
the *same* simulation evaluated under many monitor configurations.
Re-simulating per point wastes almost all of the work: the cores never
see the monitor.  :class:`MonitorSweep` instead

1. answers points whose full (simulation + monitor) key is already in
   the run cache,
2. captures the simulation **once** (live run with the first pending
   point's configuration, raw streams recorded) if no stream trace is
   cached for the simulation key — and cross-checks that replaying that
   point reproduces the live result bit for bit,
3. replays every remaining point from the trace through
   :class:`repro.replay.engine.ReplayEngine` (one accounting pass per
   distinct signature geometry, O(1) per mode/threshold point), and
4. populates the run cache so later sweeps skip even the replay.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.monitor import ReportingMode
from ..core.signatures import SignatureConfig
from ..runner.cache import (
    RunCache,
    TraceCache,
    monitor_key,
    program_digest,
    signature_digest,
    sim_config_digest,
    simulation_key,
)
from ..soc.config import SocConfig
from ..soc.experiment import RunResult, run_redundant_captured
from .engine import ReplayEngine


@dataclass(frozen=True)
class MonitorPoint:
    """One monitor configuration to evaluate."""

    mode: ReportingMode = ReportingMode.POLLING
    threshold: int = 1
    signature: SignatureConfig = field(default_factory=SignatureConfig)

    def describe(self) -> str:
        return "%s thr=%d is=%s ports=%d depth=%d" % (
            self.mode.value, self.threshold,
            self.signature.is_variant.value, self.signature.num_ports,
            self.signature.ds_depth)


def threshold_points(thresholds: Sequence[int],
                     mode: ReportingMode = (
                         ReportingMode.INTERRUPT_THRESHOLD),
                     signature: Optional[SignatureConfig] = None
                     ) -> Tuple[MonitorPoint, ...]:
    """Points for a plain threshold sweep (the common case)."""
    sig = signature or SignatureConfig()
    return tuple(MonitorPoint(mode=mode, threshold=t, signature=sig)
                 for t in thresholds)


def check_points(points: Sequence[MonitorPoint],
                 config: SocConfig) -> None:
    """Raise ``ValueError`` for a point whose signature geometry the
    cores of ``config`` cannot fill."""
    # A core samples two read ports and one write port per issue slot.
    ports = 3 * config.core.issue_width
    for sig in (point.signature for point in points):
        if sig.ds_depth < 1:
            raise ValueError("DS depth must be at least 1, got %d"
                             % sig.ds_depth)
        if not 1 <= sig.num_ports <= ports:
            raise ValueError("the DS unit monitors 1 to %d register "
                             "ports, got %d" % (ports, sig.num_ports))


@dataclass
class MonitorSweepResult:
    """Outcome of one monitor-parameter sweep over one simulation."""

    benchmark: str
    sim_key: str
    points: Tuple[MonitorPoint, ...]
    #: One RunResult per point, same order as ``points``.
    results: List[RunResult]
    #: True when this sweep ran the simulation live (trace not cached).
    captured: bool
    capture_seconds: float
    replay_seconds: float
    trace_bytes: int
    cycles: int
    #: Points answered straight from the run cache.
    cache_hits: int

    def by_point(self) -> Dict[MonitorPoint, RunResult]:
        return dict(zip(self.points, self.results))

    def speedup_estimate(self) -> Optional[float]:
        """Estimated speedup vs simulating every point live.

        Uses this sweep's own capture time as the per-point live cost
        (a capture *is* a live run, plus recording overhead — so the
        estimate is conservative).  None when nothing was captured or
        replayed this sweep (pure cache hits: nothing to compare).
        """
        replayed = len(self.points) - self.cache_hits
        if not self.captured or replayed <= 0:
            return None
        live_cost = self.capture_seconds * replayed
        actual = self.capture_seconds + self.replay_seconds
        if actual <= 0:
            return None
        return live_cost / actual


class ReplayMismatchError(AssertionError):
    """A replayed point disagreed with its live capture run."""


class MonitorSweep:
    """Capture-once / replay-many sweep driver (see module docstring).

    Parameters
    ----------
    use_cache:
        Consult/populate the run cache for full (sim + monitor) keys
        and the trace cache for captured simulations.  With
        ``use_cache=False`` every sweep captures fresh and nothing is
        persisted (still one capture for N points).
    cache_dir:
        Override for both caches' directory.
    metrics:
        Optional :class:`repro.telemetry.MetricsRegistry`; receives
        ``repro_replay_captures_total`` / ``repro_replay_replays_total``
        / ``repro_replay_cache_hits_total`` counters and the
        ``repro_replay_trace_bytes`` gauge.
    """

    def __init__(self, use_cache: bool = True, cache_dir=None,
                 metrics=None, tracer=None, engine: str = "reference"):
        self.use_cache = use_cache
        self.cache = RunCache(cache_dir) if use_cache else None
        self.traces = TraceCache(cache_dir) if use_cache else None
        #: Execution tier for the capture run (not part of any cache
        #: key: tiers are bit-identical, traces engine-independent).
        self.engine = engine
        self.metrics = metrics
        if tracer is None:
            from ..telemetry import NULL_TRACER
            tracer = NULL_TRACER
        self.tracer = tracer

    def sweep(self, benchmark: str, points: Sequence[MonitorPoint],
              stagger_nops: int = 0, late_core: int = 1,
              rr_start: int = 0, max_cycles: int = 2_000_000,
              config: Optional[SocConfig] = None,
              program=None) -> MonitorSweepResult:
        """Evaluate every monitor ``point`` over one simulation."""
        if not points:
            raise ValueError("monitor sweep needs at least one point")
        points = tuple(points)
        base_config = config if config is not None else SocConfig()
        check_points(points, base_config)
        if program is None:
            from ..workloads import program as build_program
            program = build_program(benchmark)
        sim_key = simulation_key(
            program_digest(program), sim_config_digest(base_config),
            benchmark=benchmark, stagger_nops=stagger_nops,
            late_core=late_core, rr_start=rr_start,
            max_cycles=max_cycles)
        keys = [monitor_key(sim_key,
                            signature_dig=signature_digest(p.signature),
                            mode_value=p.mode.value,
                            threshold=p.threshold)
                for p in points]

        results: Dict[int, RunResult] = {}
        pending: List[int] = []
        if self.cache is not None:
            for index, key in enumerate(keys):
                cached = self.cache.get(key)
                if cached is not None:
                    results[index] = cached
                else:
                    pending.append(index)
        else:
            pending = list(range(len(points)))
        cache_hits = len(points) - len(pending)

        captured = False
        capture_seconds = 0.0
        replay_seconds = 0.0
        trace = None
        trace_bytes = 0
        cycles = 0

        if pending:
            if self.traces is not None:
                trace = self.traces.get(sim_key)
            if trace is None:
                # Capture with the first pending point's configuration:
                # its live result doubles as a bit-exactness witness
                # for the replay path below.
                first = points[pending[0]]
                live_config = dataclasses.replace(
                    base_config, signature=first.signature)
                start = time.perf_counter()
                with self.tracer.span("capture", benchmark=benchmark,
                                      point=first.describe()):
                    live, trace = run_redundant_captured(
                        program, benchmark=benchmark,
                        stagger_nops=stagger_nops, late_core=late_core,
                        config=live_config, mode=first.mode,
                        threshold=first.threshold,
                        max_cycles=max_cycles, rr_start=rr_start,
                        sim_key=sim_key, engine=self.engine)
                capture_seconds = time.perf_counter() - start
                captured = True
                if self.traces is not None:
                    self.traces.put(sim_key, trace)
            else:
                live = None

            engine = ReplayEngine(trace)
            cycles = trace.meta.cycles
            start = time.perf_counter()
            with self.tracer.span("replay", benchmark=benchmark,
                                  points=len(pending)):
                for index in pending:
                    point = points[index]
                    replayed = engine.run_result(
                        signature=point.signature, mode=point.mode,
                        threshold=point.threshold)
                    if live is not None and index == pending[0]:
                        self._check(live, replayed, point)
                    results[index] = replayed
                    if self.cache is not None:
                        self.cache.put(keys[index], replayed)
            replay_seconds = time.perf_counter() - start
            trace_bytes = trace.byte_size()
        elif results:
            cycles = results[0].cycles if 0 in results else \
                next(iter(results.values())).cycles

        outcome = MonitorSweepResult(
            benchmark=benchmark,
            sim_key=sim_key,
            points=points,
            results=[results[index] for index in range(len(points))],
            captured=captured,
            capture_seconds=capture_seconds,
            replay_seconds=replay_seconds,
            trace_bytes=trace_bytes,
            cycles=cycles,
            cache_hits=cache_hits,
        )
        self._record_metrics(outcome, replayed=len(pending))
        return outcome

    @staticmethod
    def _check(live: RunResult, replayed: RunResult, point: MonitorPoint):
        """The capture point's replay must equal its live run exactly."""
        if dataclasses.asdict(live) != dataclasses.asdict(replayed):
            raise ReplayMismatchError(
                "replay diverged from live run at %s:\n live:   %r\n"
                " replay: %r" % (point.describe(), live, replayed))

    def _record_metrics(self, outcome: MonitorSweepResult, replayed: int):
        registry = self.metrics
        if registry is None:
            return
        labels = (("benchmark", outcome.benchmark),)
        if outcome.captured:
            registry.counter("repro_replay_captures_total", labels).inc()
        registry.counter("repro_replay_replays_total",
                         labels).inc(replayed)
        registry.counter("repro_replay_cache_hits_total",
                         labels).inc(outcome.cache_hits)
        if outcome.trace_bytes:
            registry.gauge("repro_replay_trace_bytes",
                           labels).set(outcome.trace_bytes)
        if self.cache is not None:
            registry.counter("repro_runner_cache_evictions_total").inc(
                self.cache.evictions + (self.traces.evictions
                                        if self.traces else 0))
            self.cache.evictions = 0
            if self.traces is not None:
                self.traces.evictions = 0
