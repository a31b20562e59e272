"""Batched Monte-Carlo fault campaigns over one shared golden run.

The drive train, per kernel:

1. ``prepare()`` — one instrumented golden run on the campaign's tier
   (:func:`~repro.montecarlo.golden.mc_golden_run`) records
   checkpoints, the cycle-stamped access log and the per-cycle issue
   frontier; it serves CCF and transient batches alike.  When no
   checkpoint cadence is given, the recording picks one by thinning
   (start at :data:`~repro.fault.injector.MIN_CADENCE`; at 50
   snapshots drop every other one and double the cadence), so no
   run is spent measuring the kernel's length.
2. ``sample_ccf()/sample_transient()`` — a seeded
   :class:`random.Random` draws the trial grid into a
   :class:`~repro.montecarlo.batch.TrialBatch`.  Sampling happens in
   the parent only, so the grid is a pure function of the seed.
3. ``run()`` — :func:`~repro.montecarlo.golden.classify_batch`
   (for a CCF batch, after one walk over the golden run on the
   campaign's tier to the cycles the batch samples) resolves
   provably-masked trials analytically (typically the large
   majority), and labels those the static
   masking proofs also cover
   (:class:`~repro.lint.masking.StaticMaskFilter`); the remaining
   live trials go, in ascending trial order, through the scalar
   campaign's trial loop
   (:func:`~repro.fault.campaign.run_trials`) — serially or over a
   process pool, folded in task order, so ``jobs=1`` and ``jobs=N``
   produce bit-identical batches (asserted in
   ``tests/test_montecarlo.py``).

Every live trial therefore runs the *same* code a scalar campaign
does, so batched results are field-for-field identical to per-trial
results by construction for the simulated subset and by the
bisimilarity argument (see :mod:`repro.montecarlo.golden`) for the
analytic subset.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from ..fault.campaign import run_trials
from ..isa.program import Program
from ..isa.registers import NUM_REGISTERS
from ..lint.masking import StaticMaskFilter
from ..runner.executor import resolve_jobs
from ..soc.config import SocConfig
from .batch import STATUS_SIMULATED, STATUS_STATIC, TrialBatch
from .golden import McGoldenArtifact, classify_batch, mc_golden_run


# -- results ------------------------------------------------------------------

@dataclass
class McCampaignResult:
    """One finished batched campaign."""

    benchmark: str
    kind: str
    seed: int
    batch: TrialBatch
    golden_cycles: int
    golden_checksum: int
    checkpoint_every: int
    jobs: int = 1
    engine: str = "reference"
    #: Masked trials the static proofs also cover, the other masked
    #: trials the dynamic log resolves, and forked simulations.
    static: int = 0
    analytic: int = 0
    simulated: int = 0
    #: Fork-engine tallies over the simulated subset (canonical fold:
    #: identical for jobs=1 and jobs=N).
    forks: int = 0
    scratch_runs: int = 0
    converged: int = 0
    golden_wall_s: float = 0.0
    classify_wall_s: float = 0.0
    simulate_wall_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def summary_dict(self) -> dict:
        """Deterministic summary: a pure function of (program, config,
        seed, trials) — no wall times, no job counts.  The RNG
        determinism tests compare this dict bit-for-bit."""
        return {
            "benchmark": self.benchmark,
            "kind": self.kind,
            "seed": self.seed,
            "trials": self.batch.n,
            "golden_cycles": self.golden_cycles,
            "golden_checksum": self.golden_checksum,
            "static": self.static,
            "analytic": self.analytic,
            "simulated": self.simulated,
            "forks": self.forks,
            "scratch_runs": self.scratch_runs,
            "converged": self.converged,
            "counts": dict(self.counts),
        }

    def summary(self) -> str:
        return ("%s kind=%s trials=%d static=%d analytic=%d "
                "simulated=%d %s"
                % (self.benchmark, self.kind, self.batch.n, self.static,
                   self.analytic, self.simulated, self.batch.summary()))

    def to_metrics(self, registry):
        """Fold campaign tallies into a telemetry registry."""
        for name in ("masked", "detected", "silent_ccf", "hang",
                     "trap"):
            registry.counter(
                "repro_montecarlo_trials_total",
                (("classification", name),)).inc(self.counts[name])
        registry.counter("repro_montecarlo_static_total").inc(
            self.static)
        registry.counter("repro_montecarlo_analytic_total").inc(
            self.analytic)
        registry.counter("repro_montecarlo_simulated_total").inc(
            self.simulated)
        registry.counter("repro_montecarlo_forks_total").inc(self.forks)
        registry.counter("repro_montecarlo_scratch_runs_total").inc(
            self.scratch_runs)
        registry.counter("repro_montecarlo_converged_total").inc(
            self.converged)
        registry.counter("repro_montecarlo_golden_cycles_total").inc(
            self.golden_cycles)
        registry.counter(
            "repro_montecarlo_silent_despite_diversity_total").inc(
            self.counts["silent_despite_diversity"])


# -- the campaign driver ------------------------------------------------------

class BatchedCampaign:
    """Shared-golden-run Monte-Carlo campaign over one kernel."""

    #: The one :class:`TrialBatch` column store, kept as an attribute
    #: for callers that still pass it through as ``backend=``.
    backend = "python"

    def __init__(self, program: Program, benchmark: str = "program",
                 config: Optional[SocConfig] = None,
                 max_cycles: int = 2_000_000,
                 checkpoint_every: int = 0,
                 engine: str = "reference"):
        self.program = program
        self.benchmark = benchmark
        self.config = config
        self.max_cycles = max_cycles
        self.checkpoint_every = checkpoint_every
        self.engine = engine
        self.mask_filter: Optional[StaticMaskFilter] = None
        self.artifact: Optional[McGoldenArtifact] = None
        self.golden_wall_s = 0.0

    # -- golden run -------------------------------------------------------

    def prepare(self, kind: str = "ccf") -> McGoldenArtifact:
        """The instrumented golden run on the campaign's tier
        (memoized).  One recording serves CCF and transient batches
        alike, so ``kind`` changes nothing.  A cadence of 0 or less
        asks the recording for an automatic one, and
        ``checkpoint_every`` then holds the cadence it settled on."""
        if self.artifact is not None:
            return self.artifact
        start = time.perf_counter()
        self.artifact = mc_golden_run(
            self.program, config=self.config,
            max_cycles=self.max_cycles,
            checkpoint_every=(self.checkpoint_every
                              if self.checkpoint_every > 0 else None),
            benchmark=self.benchmark, engine=self.engine)
        self.checkpoint_every = self.artifact.base.checkpoint_every
        if self.mask_filter is None:
            # Static masking proofs are per-program, not per-run; a
            # program the CFG builder cannot analyze simply gets no
            # static labels.
            try:
                self.mask_filter = StaticMaskFilter.from_program(
                    self.program)
            except Exception:
                self.mask_filter = None
        self.golden_wall_s = time.perf_counter() - start
        return self.artifact

    # -- seeded samplers --------------------------------------------------

    @staticmethod
    def _last_cycle(artifact: McGoldenArtifact) -> int:
        """The golden end cycle, the exclusive bound of the sampled
        fault cycles ``[1, end)``; ``ValueError`` if that is empty."""
        if artifact.end_cycle < 2:
            raise ValueError("the golden run ended at cycle %d: no "
                             "fault cycle in [1, %d) to sample"
                             % (artifact.end_cycle, artifact.end_cycle))
        return artifact.end_cycle

    def sample_ccf(self, trials: int, seed: int = 0) -> TrialBatch:
        """``trials`` common-cause faults: uniform cycle in
        ``[1, end)``, uniform 32-bit stimulus.  Parent-side
        :class:`random.Random` only — the grid is a pure function of
        the seed, independent of jobs."""
        artifact = self.prepare()
        rng = random.Random(seed)
        batch = TrialBatch("ccf", trials, golden_checksum=artifact.checksum)
        last = self._last_cycle(artifact)
        for i in range(trials):
            batch.set_ccf_trial(i, rng.randrange(1, last),
                                rng.getrandbits(32))
        return batch

    def sample_transient(self, trials: int, seed: int = 0) -> TrialBatch:
        """``trials`` single-core transients: uniform cycle, core,
        architectural register (x1..x31), bit."""
        artifact = self.prepare()
        rng = random.Random(seed)
        batch = TrialBatch("transient", trials,
                           golden_checksum=artifact.checksum)
        last = self._last_cycle(artifact)
        for i in range(trials):
            batch.set_transient_trial(
                i, rng.randrange(1, last), rng.randrange(2),
                rng.randrange(1, NUM_REGISTERS), rng.randrange(64))
        return batch

    # -- execution --------------------------------------------------------

    def _task(self, batch: TrialBatch, i: int):
        cols = batch.columns
        if batch.kind == "ccf":
            return cols["cycle"][i], cols["stimulus"][i]
        return (cols["cycle"][i], cols["core"][i], cols["register"][i],
                cols["bit"][i])

    def run(self, batch: TrialBatch, jobs: Optional[int] = 1,
            seed: int = 0, metrics=None) -> McCampaignResult:
        """Classify analytically, simulate the live rest, aggregate."""
        artifact = self.prepare()
        base = artifact.base
        jobs = resolve_jobs(jobs)

        start = time.perf_counter()
        live = classify_batch(artifact, batch,
                              static_filter=self.mask_filter,
                              engine=self.engine)
        static = batch.count_status(STATUS_STATIC)
        classify_wall = time.perf_counter() - start

        start = time.perf_counter()
        trials = run_trials(self.program,
                            [self._task(batch, i) for i in live],
                            base.checksum, artifact=base,
                            kind=batch.kind, config=self.config,
                            max_cycles=self.max_cycles,
                            engine=self.engine, jobs=jobs)
        for i, injection in zip(live, trials.results):
            batch.fill_from_result(i, injection, status=STATUS_SIMULATED)
        simulate_wall = time.perf_counter() - start

        result = McCampaignResult(
            benchmark=self.benchmark,
            kind=batch.kind,
            seed=seed,
            batch=batch,
            golden_cycles=base.end_cycle,
            golden_checksum=base.checksum,
            checkpoint_every=self.checkpoint_every,
            jobs=jobs,
            engine=self.engine,
            static=static,
            analytic=batch.n - len(live) - static,
            simulated=len(live),
            forks=trials.forks,
            scratch_runs=len(live) - trials.forks,
            converged=trials.converged,
            golden_wall_s=self.golden_wall_s,
            classify_wall_s=classify_wall,
            simulate_wall_s=simulate_wall,
            counts=batch.counts(),
        )
        if metrics is not None:
            result.to_metrics(metrics)
        return result
