"""Fault-injection campaigns: CCF coverage of SafeDM vs plain redundancy.

A campaign sweeps common-cause injections across a run's timeline and
cross-references each silent escape with SafeDM's diversity verdict at
the injection instant.  The paper's no-false-negative claim translates
to: *every* silent CCF escape happens in a cycle where SafeDM reported
lack of diversity (SafeDM may over-report — false positives — but a
CCF cannot slip through a cycle SafeDM called diverse).

Execution modes (all bit-identical in their results), all through one
trial loop, :func:`run_trials`, which the batched Monte-Carlo driver
(:mod:`repro.montecarlo`) shares for its live trials:

* plain — every injection simulates its run from cycle 0,
* ``checkpoint_every > 0`` — one golden run drops snapshots; each
  injection forks from the nearest one (see
  :class:`repro.fault.injector.ForkEngine`),
* ``jobs > 1`` — injections fan out over a process pool; results and
  telemetry counters are folded in the canonical (stimulus-outer,
  cycle-inner) order, never completion order, so ``jobs=1`` and
  ``jobs=N`` campaigns are field-for-field identical,
* ``cache_dir`` — golden snapshots and their index persist in the
  content-addressed run-cache store, so a repeated campaign warm-starts
  without re-simulating the golden run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

from ..isa.program import Program
from ..runner.executor import map_ordered, resolve_jobs
from ..soc.config import SocConfig
from ..telemetry import NULL_TRACER
from .injector import (
    ForkEngine,
    GoldenArtifact,
    InjectionResult,
    golden_run,
    golden_run_with_checkpoints,
    inject_common_cause,
    inject_transient,
)


@dataclass
class CampaignResult:
    """Aggregated campaign outcome."""

    injections: List[InjectionResult] = field(default_factory=list)

    def count(self, classification: str) -> int:
        return sum(1 for r in self.injections
                   if r.classification == classification)

    @property
    def masked(self) -> int:
        return self.count("masked")

    @property
    def detected(self) -> int:
        return self.count("detected")

    @property
    def silent_ccf(self) -> int:
        return self.count("silent_ccf")

    @property
    def silent_despite_diversity(self) -> int:
        """Identical-effect silent escapes in cycles SafeDM called
        diverse.  Must be zero for the paper's no-false-negative
        property: identical corruption implies identical core state,
        which SafeDM by construction reports as lack of diversity.
        """
        return sum(1 for r in self.injections
                   if r.classification == "silent_ccf"
                   and r.effects_identical
                   and r.diversity_at_injection is True)

    @property
    def silent_via_shared_state(self) -> int:
        """Silent escapes where the corruptions *differed* but still
        produced matching wrong outputs — only possible when replicas
        share writable state (one core's corrupted store poisons the
        data its twin reads).  A shared-input CCF channel outside any
        diversity scheme's reach; flags an unsound redundancy setup.
        """
        return sum(1 for r in self.injections
                   if r.classification == "silent_ccf"
                   and not r.effects_identical)

    @property
    def detected_or_flagged(self) -> int:
        """Faults either caught by comparison or flagged by SafeDM."""
        return sum(1 for r in self.injections
                   if r.classification == "detected"
                   or (r.classification == "silent_ccf"
                       and r.diversity_at_injection is False))

    def summary(self) -> str:
        total = len(self.injections)
        return ("injections=%d masked=%d detected=%d silent_ccf=%d "
                "silent_despite_diversity=%d silent_via_shared_state=%d"
                % (total, self.masked, self.detected, self.silent_ccf,
                   self.silent_despite_diversity,
                   self.silent_via_shared_state))

    def to_metrics(self, registry):
        """Fold per-classification counts into a telemetry registry."""
        for classification in ("masked", "detected", "silent_ccf",
                               "hang"):
            registry.counter(
                "repro_fault_injections_total",
                (("classification", classification),)
            ).inc(self.count(classification))
        registry.counter("repro_fault_silent_despite_diversity_total"
                         ).inc(self.silent_despite_diversity)
        registry.counter("repro_fault_silent_via_shared_state_total"
                         ).inc(self.silent_via_shared_state)
        registry.counter("repro_fault_detected_or_flagged_total"
                         ).inc(self.detected_or_flagged)


# -- golden artifact acquisition (with warm start) ----------------------------

def _index_payload(artifact: GoldenArtifact) -> dict:
    return {
        "every": artifact.checkpoint_every,
        "cycles": list(artifact.checkpoint_cycles),
        "exempt_masks": [[list(mask) for mask in pair]
                         for pair in artifact.exempt_masks],
        "monitored": list(artifact.monitored),
        "checksum": artifact.checksum,
        "outputs": list(artifact.outputs),
        "end_cycle": artifact.end_cycle,
        "finished": artifact.finished,
        "no_diversity_cycles": artifact.no_diversity_cycles,
    }


def _artifact_from_index(index: dict, sim_key: str, snapshots,
                         checkpoint_every: int
                         ) -> Optional[GoldenArtifact]:
    """Rebuild a :class:`GoldenArtifact` from a cached index, fetching
    each snapshot from the checkpoint store.  Any missing or stale
    snapshot voids the warm start (``None`` — rerun the golden run)."""
    from ..runner.cache import checkpoint_key
    try:
        cycles = [int(cycle) for cycle in index["cycles"]]
        if int(index["every"]) != checkpoint_every:
            return None
        blobs = []
        for cycle in cycles:
            blob = snapshots.get_blob(
                checkpoint_key(sim_key, cycle=cycle,
                               every=checkpoint_every))
            if blob is None:
                return None
            blobs.append(blob)
        return GoldenArtifact(
            checksum=int(index["checksum"]),
            outputs=tuple(int(v) for v in index["outputs"]),
            end_cycle=int(index["end_cycle"]),
            finished=bool(index["finished"]),
            no_diversity_cycles=int(index["no_diversity_cycles"]),
            monitored=tuple(int(c) for c in index["monitored"]),
            checkpoint_every=checkpoint_every,
            checkpoint_cycles=tuple(cycles),
            exempt_masks=tuple(
                tuple(tuple(int(r) for r in mask) for mask in pair)
                for pair in index["exempt_masks"]),
            snapshots=tuple(blobs),
            sim_key=sim_key,
        )
    except (KeyError, TypeError, ValueError):
        return None


def _golden_artifact(program: Program, config: Optional[SocConfig],
                     max_cycles: int, checkpoint_every: int,
                     cache_dir, benchmark: str, engine: str):
    """(artifact, warm): record the checkpointed golden run on
    ``engine``'s tier, or warm-start it from the persistent checkpoint
    store when ``cache_dir`` is set (``cache_dir=True`` selects the
    default run-cache location)."""
    if not cache_dir:
        return golden_run_with_checkpoints(
            program, config=config, max_cycles=max_cycles,
            checkpoint_every=checkpoint_every,
            benchmark=benchmark, engine=engine), False
    from ..runner.cache import (
        CheckpointIndexStore,
        CheckpointStore,
        checkpoint_index_key,
        checkpoint_key,
        program_digest,
        sim_config_digest,
        simulation_key,
    )
    root = None if cache_dir is True else cache_dir
    resolved = config if config is not None else SocConfig()
    sim_key = simulation_key(program_digest(program),
                             sim_config_digest(resolved),
                             benchmark=benchmark, stagger_nops=0,
                             late_core=1, rr_start=0,
                             max_cycles=max_cycles)
    indexes = CheckpointIndexStore(root)
    snapshots = CheckpointStore(root)
    index_key = checkpoint_index_key(sim_key, every=checkpoint_every)
    index = indexes.get(index_key)
    if index is not None:
        artifact = _artifact_from_index(index, sim_key, snapshots,
                                        checkpoint_every)
        if artifact is not None:
            return artifact, True
    artifact = golden_run_with_checkpoints(
        program, config=config, max_cycles=max_cycles,
        checkpoint_every=checkpoint_every, benchmark=benchmark,
        sim_key=sim_key, engine=engine)
    for cycle, blob in zip(artifact.checkpoint_cycles,
                           artifact.snapshots):
        snapshots.put_blob(checkpoint_key(sim_key, cycle=cycle,
                                          every=checkpoint_every), blob)
    indexes.put(index_key, _index_payload(artifact))
    return artifact, False


# -- the one trial loop -------------------------------------------------------

@dataclass
class TrialRun:
    """The injections of :func:`run_trials`, in task order."""

    results: List[InjectionResult]
    #: Tasks forked from a golden checkpoint (the rest ran from cycle
    #: 0): a pure function of the tasks and the checkpoint grid.
    forks: int = 0
    #: Forked runs the convergence probe cut short.
    converged: int = 0


def _run_trial(context, task: tuple):
    """One injection, in-process or in a pool worker.

    ``context`` is ``(inject, fork)``: the injector with every argument
    but the task bound, and its fork engine (or ``None``).  Returns the
    result, how often the convergence early exit fired (so the fold
    can count it in task order), and the injection's wall time.
    """
    inject, fork = context
    before = fork.converged if fork is not None else 0
    start = time.perf_counter()
    result = inject(*task)
    seconds = time.perf_counter() - start
    return (result, fork.converged - before if fork is not None else 0,
            seconds)


def run_trials(program: Program, tasks: List[tuple], golden: int,
               artifact: Optional[GoldenArtifact] = None,
               kind: str = "ccf",
               config: Optional[SocConfig] = None,
               max_cycles: int = 2_000_000,
               engine: str = "reference",
               jobs: int = 1, tracer=NULL_TRACER) -> TrialRun:
    """Inject one fault per task and fold the results in task order.

    ``kind="ccf"`` tasks are ``(cycle, stimulus)`` common-cause faults,
    ``kind="transient"`` tasks ``(cycle, core, register, bit)``
    single-core flips.  With an ``artifact`` holding snapshots each
    injection forks from its nearest checkpoint (see
    :class:`ForkEngine`), otherwise it runs from cycle 0.  ``jobs`` (a
    resolved worker count) fans the injections out through
    :func:`~repro.runner.executor.map_ordered`; results and tallies
    are identical for any ``jobs``.  ``tracer`` gets one ``inject``
    span per injection.
    """
    fork = (ForkEngine(program, artifact, config=config)
            if artifact is not None and artifact.snapshots else None)
    injector = inject_common_cause if kind == "ccf" else inject_transient
    context = (partial(injector, program, golden=golden, config=config,
                       max_cycles=max_cycles, fork=fork, engine=engine),
               fork)
    run = TrialRun(results=[])
    for task, (result, converged, seconds) in zip(
            tasks, map_ordered(_run_trial, context, tasks, jobs)):
        tracer.add_event("inject", tracer.now() - seconds, seconds,
                         cycle=task[0])
        run.results.append(result)
        run.converged += converged
    if fork is not None:
        first = artifact.checkpoint_cycles[0]
        run.forks = sum(1 for task in tasks if task[0] >= first)
    return run


# -- the campaign -------------------------------------------------------------

def run_ccf_campaign(program: Program, cycles: List[int],
                     stimuli: Optional[List[int]] = None,
                     config: Optional[SocConfig] = None,
                     max_cycles: int = 2_000_000,
                     metrics=None, tracer=None,
                     checkpoint_every: int = 0,
                     jobs: Optional[int] = 1,
                     cache_dir=None,
                     benchmark: str = "program",
                     engine: str = "reference") -> CampaignResult:
    """Inject one common-cause fault per (cycle, stimulus) pair.

    ``metrics``/``tracer`` are optional telemetry sinks: the tracer
    gets one span per injection (plus the golden run), the registry
    the per-classification counts of the finished campaign and — when
    checkpointing is on — the ``repro_checkpoint_*`` counters.
    ``jobs=None`` means one worker per core (serial on boxes without
    real parallelism, see :func:`~repro.runner.executor.resolve_jobs`).
    ``engine`` selects the execution tier (:mod:`repro.engine`) for the
    golden run, plain or checkpointed (recorded), and every fault-free
    stretch of the injected runs; results are bit-identical across
    tiers.
    """
    if tracer is None:
        tracer = NULL_TRACER
    stimuli = list(stimuli) if stimuli else [0x5EED]
    cycles = list(cycles)
    jobs = resolve_jobs(jobs)

    artifact = None
    warm = False
    if checkpoint_every > 0:
        with tracer.span("golden_run",
                         checkpoint_every=checkpoint_every):
            artifact, warm = _golden_artifact(program, config,
                                              max_cycles,
                                              checkpoint_every,
                                              cache_dir, benchmark,
                                              engine)
        golden = artifact.checksum
    else:
        with tracer.span("golden_run"):
            golden = golden_run(program, config=config,
                                max_cycles=max_cycles, engine=engine)

    tasks = [(cycle, stimulus) for stimulus in stimuli
             for cycle in cycles]
    trials = run_trials(program, tasks, golden, artifact=artifact,
                        config=config, max_cycles=max_cycles,
                        engine=engine, jobs=jobs, tracer=tracer)
    result = CampaignResult(injections=trials.results)

    if metrics is not None:
        result.to_metrics(metrics)
        if artifact is not None:
            if not warm:
                metrics.counter("repro_checkpoint_saves_total").inc(
                    len(artifact.snapshots))
                metrics.counter("repro_checkpoint_bytes_total").inc(
                    sum(len(blob) for blob in artifact.snapshots))
            metrics.counter("repro_checkpoint_index_hits_total").inc(
                1 if warm else 0)
            metrics.counter("repro_checkpoint_forks_total").inc(
                trials.forks)
            metrics.counter("repro_checkpoint_restores_total").inc(
                trials.forks)
            metrics.counter("repro_checkpoint_converged_total").inc(
                trials.converged)
    return result


def run_scheme_matrix(program: Program, benchmark: str = "program",
                      schemes=None, config: Optional[SocConfig] = None,
                      num_faults: int = 8, stimuli=None,
                      max_cycles: int = 2_000_000,
                      metrics=None, tracer=None):
    """The matrix-mode CCF campaign: one shared fault grid, one
    coverage row per redundancy scheme.

    Where :func:`run_ccf_campaign` asks how well SafeDM protects *one*
    monitored pair, this asks the comparative question across every
    scheme in :data:`repro.schemes.SCHEME_KINDS` (or the given subset):
    each scheme replays the same (cycle fraction, stimulus) grid and
    classifies each trial with its own checker.  Returns the list of
    :class:`repro.schemes.matrix.SchemeMatrixRow`.
    """
    from ..schemes.matrix import DEFAULT_STIMULI, scheme_matrix
    from ..schemes.spec import SCHEME_KINDS
    if tracer is None:
        tracer = NULL_TRACER
    schemes = tuple(schemes) if schemes else SCHEME_KINDS
    stimuli = tuple(stimuli) if stimuli else DEFAULT_STIMULI
    with tracer.span("scheme_matrix", benchmark=benchmark,
                     schemes=",".join(str(s) for s in schemes)):
        return scheme_matrix(program, benchmark=benchmark,
                             schemes=schemes, config=config,
                             num_faults=num_faults, stimuli=stimuli,
                             max_cycles=max_cycles, metrics=metrics)


def spread_cycles(total_cycles: int, count: int,
                  start: int = 16) -> List[int]:
    """Deterministic injection instants spread across a run."""
    if count < 1:
        return []
    span = max(total_cycles - start, 1)
    return [start + (i * span) // count for i in range(count)]
