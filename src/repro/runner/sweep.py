"""Parallel sweep engine for the Table I experiment protocol.

The paper's headline artefact is an embarrassingly parallel workload:
29 kernels x 4 staggering values x 2 repeated runs, every run a fully
independent simulation.  :class:`ParallelSweep` fans those runs out
across worker processes and merges the results deterministically:

* work is expressed as :class:`RunSpec` values whose canonical order
  per cell mirrors the serial protocol in
  :func:`repro.soc.experiment.run_cell` exactly,
* results are merged by spec, never by completion order, so the
  produced :class:`CellResult` values are field-for-field identical to
  the serial path's no matter how the pool schedules the work,
* an optional content-addressed :class:`RunCache` skips runs whose
  (program bytes, SocConfig, run parameters) digest has been simulated
  before.

Runs go through the package's one ordered executor
(:func:`~repro.runner.executor.map_ordered`): ``jobs=1`` is a plain
in-process loop (no pool, no pickling), ``jobs=N`` the same calls on a
process pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.monitor import ReportingMode
from ..isa.program import Program
from ..soc.config import SocConfig
from ..soc.experiment import (
    PAPER_STAGGER_VALUES,
    CellResult,
    RunResult,
    run_redundant,
)
from .cache import (
    RunCache,
    TraceCache,
    monitor_key,
    program_digest,
    signature_digest,
    sim_config_digest,
    simulation_key,
)
from .executor import map_ordered, resolve_jobs
from .progress import NullProgress, SweepProgress


@dataclass(frozen=True)
class RunSpec:
    """One independent redundant run, identified by value.

    Benchmarks are referenced by registry name so a spec pickles as a
    few strings/ints; workers rebuild the program image locally.
    """

    benchmark: str
    stagger_nops: int
    late_core: int
    rr_start: int
    max_cycles: int

    def describe(self) -> str:
        return "%s nops=%d late=%d rr=%d" % (
            self.benchmark, self.stagger_nops, self.late_core,
            self.rr_start)


def cell_specs(benchmark: str, stagger_nops: int,
               max_cycles: int = 2_000_000) -> Tuple[RunSpec, ...]:
    """The canonical run list for one Table I cell.

    Mirrors :func:`repro.soc.experiment.run_cell`: without staggering,
    repeated runs vary the arbiter start; with staggering, one run per
    late-core choice.
    """
    if stagger_nops == 0:
        return tuple(RunSpec(benchmark, 0, 1, rr_start, max_cycles)
                     for rr_start in (0, 1))
    return tuple(RunSpec(benchmark, stagger_nops, late_core, 0,
                         max_cycles)
                 for late_core in (0, 1))


def merge_cell(benchmark: str, stagger_nops: int,
               runs: Sequence[RunResult]) -> CellResult:
    """Fold a cell's runs into its Table I entry (max across runs)."""
    return CellResult(
        benchmark=benchmark,
        stagger_nops=stagger_nops,
        zero_staggering_cycles=max(r.zero_staggering_cycles
                                   for r in runs),
        no_diversity_cycles=max(r.no_diversity_cycles for r in runs),
        runs=list(runs),
    )


def execute_spec(spec: RunSpec, config: Optional[SocConfig] = None,
                 mode: ReportingMode = ReportingMode.POLLING,
                 threshold: int = 1,
                 program: Optional[Program] = None,
                 engine: str = "reference") -> RunResult:
    """Simulate one spec (building the program image if not supplied)."""
    if program is None:
        from ..workloads import program as build_program
        program = build_program(spec.benchmark)
    return run_redundant(program, benchmark=spec.benchmark,
                         stagger_nops=spec.stagger_nops,
                         late_core=spec.late_core,
                         rr_start=spec.rr_start,
                         config=config, mode=mode, threshold=threshold,
                         max_cycles=spec.max_cycles, engine=engine)


# -- one simulated spec (in-process or in a pool worker) ----------------------

def _simulate_spec(context, task: Tuple[RunSpec, Optional[str]]
                   ) -> Tuple[RunResult, float]:
    """Simulate one ``(spec, sim_key)`` task under ``context`` =
    ``(config, mode, threshold, engine, traces)``.

    Returns the result together with the simulation's own wall time,
    so the parent can report per-spec timings without trusting its own
    scheduling-noise-laden completion deltas.  A capturing sweep
    (``traces`` set) writes the trace straight into the shared trace
    cache (atomic one-file-per-key store) instead of shipping megabytes
    of samples back from a pool worker.
    """
    config, mode, threshold, engine, traces = context
    spec, sim_key = task
    start = time.perf_counter()
    if traces is None:
        result = execute_spec(spec, config=config, mode=mode,
                              threshold=threshold, engine=engine)
    else:
        from ..soc.experiment import run_redundant_captured
        from ..workloads import program
        result, trace = run_redundant_captured(
            program(spec.benchmark), benchmark=spec.benchmark,
            stagger_nops=spec.stagger_nops, late_core=spec.late_core,
            config=config, mode=mode, threshold=threshold,
            max_cycles=spec.max_cycles, rr_start=spec.rr_start,
            sim_key=sim_key, engine=engine)
        traces.put(sim_key, trace)
    return result, time.perf_counter() - start


# -- the engine ---------------------------------------------------------------

class ParallelSweep:
    """Fan Table I cells out over a process pool, with result caching.

    Parameters
    ----------
    jobs:
        Worker-process count (at least 1); ``None`` means one per
        core.  ``jobs=1`` runs serially in-process.
    use_cache:
        Consult/populate the content-addressed run cache.
    cache_dir:
        Cache location override (default:
        ``benchmarks/out/.runcache/``).
    progress:
        ``True`` for stderr progress/ETA lines, ``False`` for silence,
        or any object with ``update(description, cached)`` /
        ``finish()``.
    metrics:
        Optional :class:`repro.telemetry.MetricsRegistry`; every
        ``run_cells`` folds per-spec wall time, cache hits, and worker
        utilization into it.  Counter folds walk the canonical spec
        order — never completion order — so counter values are
        identical whatever ``jobs`` is (mirroring the result merge).
    tracer:
        Optional :class:`repro.telemetry.Tracer`; receives one span
        per executed run plus a ``sweep`` umbrella span.
    capture:
        Record every *executed* run's raw signature streams into the
        trace cache (keyed by simulation key), so later sweeps with a
        different monitor configuration can replay instead of
        re-simulate.
    replay:
        Before simulating a run-cache miss, look for a cached stream
        trace of the same simulation and recompute the result from it
        via :mod:`repro.replay` (bit-identical, orders of magnitude
        cheaper).
    engine:
        Execution tier for live simulations (:mod:`repro.engine`):
        ``"reference"`` or ``"fast"``.  Deliberately *not* part of the
        run-cache or trace-cache keys — the tiers are bit-identical,
        so a result simulated under one engine is valid for the other
        and cache entries stay shareable across engines.

    When ``jobs`` is unspecified, hosts without real parallelism clamp
    to serial in-process execution (see
    :func:`~repro.runner.executor.resolve_jobs`); the decision is
    recorded as the ``repro_runner_serial_fallback`` gauge.
    """

    def __init__(self, jobs: Optional[int] = None, use_cache: bool = True,
                 cache_dir=None, progress=False,
                 mode: ReportingMode = ReportingMode.POLLING,
                 threshold: int = 1, metrics=None, tracer=None,
                 capture: bool = False, replay: bool = False,
                 engine: str = "reference"):
        self.jobs = resolve_jobs(jobs)
        self.serial_fallback = jobs is None and self.jobs == 1
        self.cache = RunCache(cache_dir) if use_cache else None
        self.capture = capture
        self.replay = replay
        self.traces = TraceCache(cache_dir) if (capture or replay) \
            else None
        self.mode = mode
        self.threshold = threshold
        self.engine = engine
        self.metrics = metrics
        if tracer is None:
            from ..telemetry import NULL_TRACER
            tracer = NULL_TRACER
        self.tracer = tracer
        self._progress_setting = progress
        #: Worker-side wall seconds per executed spec, last run_cells.
        self._timings: Dict[RunSpec, float] = {}
        self._cached_specs: set = set()
        self._replayed_specs: set = set()
        self._captured_specs: set = set()
        #: Evictions already folded into the metrics registry.
        self._evictions_folded = 0

    # -- public API -----------------------------------------------------

    def run_cells(self, work: Iterable[Tuple[str, int]],
                  config: Optional[SocConfig] = None,
                  max_cycles: int = 2_000_000
                  ) -> Dict[Tuple[str, int], CellResult]:
        """Run every ``(benchmark, stagger_nops)`` cell in ``work``.

        Returns cells keyed by ``(benchmark, stagger_nops)``; the
        mapping preserves the order work was given in, while execution
        order is whatever the pool decides — merging is keyed by spec,
        so the two never interact.
        """
        cells: List[Tuple[str, int]] = []
        for item in work:
            if item not in cells:
                cells.append(item)
        spec_lists = {cell: cell_specs(cell[0], cell[1], max_cycles)
                      for cell in cells}
        all_specs: List[RunSpec] = []
        for cell in cells:
            all_specs.extend(spec_lists[cell])

        progress = self._make_progress(len(all_specs))
        wall_start = time.perf_counter()
        with self.tracer.span("sweep", runs=len(all_specs),
                              jobs=self.jobs):
            results = self._execute(all_specs, config, progress)
        progress.finish()
        self._record_metrics(all_specs, results,
                             time.perf_counter() - wall_start)

        return {cell: merge_cell(cell[0], cell[1],
                                 [results[spec]
                                  for spec in spec_lists[cell]])
                for cell in cells}

    def run_table(self, names: Sequence[str],
                  stagger_values: Sequence[int] = PAPER_STAGGER_VALUES,
                  config: Optional[SocConfig] = None,
                  max_cycles: int = 2_000_000
                  ) -> Dict[str, List[CellResult]]:
        """Run full Table I rows; same shape as serial ``run_row`` maps."""
        work = [(name, nops) for name in names
                for nops in stagger_values]
        merged = self.run_cells(work, config=config,
                                max_cycles=max_cycles)
        return {name: [merged[(name, nops)] for nops in stagger_values]
                for name in names}

    # -- internals ------------------------------------------------------

    def _make_progress(self, total: int):
        setting = self._progress_setting
        if setting is True:
            return SweepProgress(total, label="sweep")
        if setting:
            return setting
        return NullProgress()

    def _execute(self, specs: Sequence[RunSpec],
                 config: Optional[SocConfig],
                 progress) -> Dict[RunSpec, RunResult]:
        results: Dict[RunSpec, RunResult] = {}
        keys: Dict[RunSpec, str] = {}
        sim_keys: Dict[RunSpec, str] = {}
        pending: List[RunSpec] = []
        self._timings = {}
        self._cached_specs = set()
        self._replayed_specs = set()
        self._captured_specs = set()

        if self.cache is not None or self.traces is not None:
            resolved = config if config is not None else SocConfig()
            sim_cfg_dig = sim_config_digest(resolved)
            sig_dig = signature_digest(resolved.signature)
            prog_digs: Dict[str, str] = {}
            from ..workloads import program as build_program
            for spec in specs:
                prog_dig = prog_digs.get(spec.benchmark)
                if prog_dig is None:
                    prog_dig = program_digest(build_program(spec.benchmark))
                    prog_digs[spec.benchmark] = prog_dig
                sim_key = simulation_key(prog_dig, sim_cfg_dig,
                                         benchmark=spec.benchmark,
                                         stagger_nops=spec.stagger_nops,
                                         late_core=spec.late_core,
                                         rr_start=spec.rr_start,
                                         max_cycles=spec.max_cycles)
                sim_keys[spec] = sim_key
                keys[spec] = monitor_key(sim_key, signature_dig=sig_dig,
                                         mode_value=self.mode.value,
                                         threshold=self.threshold)
                if self.cache is not None:
                    cached = self.cache.get(keys[spec])
                    if cached is not None:
                        results[spec] = cached
                        self._cached_specs.add(spec)
                        progress.update(spec.describe(), cached=True)
                        continue
                pending.append(spec)
        else:
            pending = list(specs)

        if self.replay and self.traces is not None and pending:
            pending = self._replay_pending(pending, config, results,
                                           progress, sim_keys)

        self._simulate(pending, config, results, progress, sim_keys)

        if self.cache is not None:
            for spec in pending:
                self.cache.put(keys[spec], results[spec])
            for spec in self._replayed_specs:
                self.cache.put(keys[spec], results[spec])
        return results

    def _replay_pending(self, pending: Sequence[RunSpec],
                        config: Optional[SocConfig],
                        results: Dict[RunSpec, RunResult],
                        progress,
                        sim_keys: Dict[RunSpec, str]) -> List[RunSpec]:
        """Answer run-cache misses from cached stream traces.

        Returns the specs still needing live simulation.  Imported
        lazily: ``repro.replay`` itself depends on this package.
        """
        from ..replay.engine import replay_run
        resolved = config if config is not None else SocConfig()
        still_pending: List[RunSpec] = []
        for spec in pending:
            trace = self.traces.get(sim_keys[spec])
            if trace is None:
                still_pending.append(spec)
                continue
            with self.tracer.span("replay", spec=spec.describe()):
                start = time.perf_counter()
                results[spec] = replay_run(
                    trace, signature=resolved.signature,
                    mode=self.mode, threshold=self.threshold)
                self._timings[spec] = time.perf_counter() - start
            self._replayed_specs.add(spec)
            progress.update(spec.describe(), cached=True)
        return still_pending

    def _record_metrics(self, all_specs: Sequence[RunSpec],
                        results: Dict[RunSpec, RunResult],
                        wall_seconds: float):
        """Fold one run_cells pass into the attached registry.

        Counter folds iterate ``all_specs`` (the canonical protocol
        order), exactly like result merging — so ``jobs=1`` and
        ``jobs=N`` sweeps produce identical counter values.  Gauges
        and the wall-time histogram carry the schedule-dependent part
        (timings, utilization) and are excluded from that guarantee.
        """
        registry = self.metrics
        if registry is None:
            return
        registry.gauge("repro_runner_jobs").set(self.jobs)
        registry.gauge("repro_runner_serial_fallback").set(
            1 if self.serial_fallback else 0)
        runs = registry.counter("repro_runner_runs_total")
        cached = registry.counter("repro_runner_cache_hits_total")
        executed = registry.counter("repro_runner_executed_total")
        cycles = registry.counter("repro_runner_simulated_cycles_total")
        committed = registry.counter("repro_runner_committed_total")
        no_div = registry.counter(
            "repro_runner_no_diversity_cycles_total")
        seconds = registry.histogram("repro_runner_run_seconds")
        for spec in all_specs:
            result = results[spec]
            runs.inc()
            cycles.inc(result.cycles)
            committed.inc(result.committed)
            no_div.inc(result.no_diversity_cycles)
            if spec in self._cached_specs:
                cached.inc()
            else:
                executed.inc()
                timing = self._timings.get(spec)
                if timing is not None:
                    seconds.observe(timing)
        if self.capture or self.replay:
            replays = registry.counter("repro_replay_replays_total")
            captures = registry.counter("repro_replay_captures_total")
            for spec in all_specs:
                if spec in self._replayed_specs:
                    replays.inc()
                if spec in self._captured_specs:
                    captures.inc()
        if self.cache is not None or self.traces is not None:
            seen = ((self.cache.evictions if self.cache is not None
                     else 0)
                    + (self.traces.evictions if self.traces is not None
                       else 0))
            registry.counter("repro_runner_cache_evictions_total").inc(
                seen - self._evictions_folded)
            self._evictions_folded = seen
        busy = sum(self._timings.values())
        if wall_seconds > 0:
            registry.gauge("repro_runner_worker_utilization").set(
                busy / (wall_seconds * self.jobs))

    def _simulate(self, pending, config, results, progress, sim_keys):
        capturing = self.capture and self.traces is not None
        context = (config, self.mode, self.threshold, self.engine,
                   self.traces if capturing else None)
        tasks = [(spec, sim_keys.get(spec)) for spec in pending]
        # Pool runs overlap in time: give them their own timeline row.
        tid = 0 if self.jobs == 1 else 1
        for spec, (result, seconds) in zip(
                pending, map_ordered(_simulate_spec, context, tasks,
                                     self.jobs)):
            results[spec] = result
            self._timings[spec] = seconds
            self.tracer.add_event("run", self.tracer.now() - seconds,
                                  seconds, tid=tid, spec=spec.describe())
            progress.update(spec.describe())
        if capturing:
            self._captured_specs.update(pending)
