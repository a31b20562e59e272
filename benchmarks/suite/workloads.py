"""The four benchmark workloads.

A workload turns a seed into one *round*: a fixed mix of timed calls
into the program's public API (an :class:`Op` each).  The seed draws
only the inputs of those calls — staggers, trial grids, stimuli and
thresholds — never the kernels, configs or sizes, so every seed's
round does comparable work.  ``worker.py`` repeats the round (in a
fresh seeded order each time) as often as it fits in the run's time.

Each workload also knows how to warm itself up (set-up), how to check
a finished round against its oracles, and which part of a round's
results its outputs digest covers.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

#: Fault campaigns keep the CLI's cycle budget.
FAULT_MAX_CYCLES = 200_000
#: Batched trials per campaign replayed through the scalar fork-path
#: injector.
CHECK_TRIALS = 12
#: Phase-B injections re-run from cycle 0 (no fork).
CHECK_INJECTIONS = 6


@dataclass
class Op:
    """One timed call into the program.

    ``call(telemetry)`` performs it; ``telemetry`` is ``None`` or a
    ``(MetricsRegistry, Tracer)`` pair to hand to APIs that accept
    them.  ``ops`` counts the runs, trials, injections or points the
    call performs.
    """

    label: str
    ops: int
    call: Callable[[Any], Any]


@dataclass
class Round:
    """A round: its generated inputs and the ops that consume them."""

    inputs: Dict[str, Any]
    ops: List[Op]


@dataclass
class Failure:
    """``ops`` operations of op ``label`` failed for ``reason``."""

    label: str
    ops: int
    reason: str


def canonical(value) -> Any:
    """A JSON-ready, order-stable view of results (dataclasses, enums,
    tuples and non-string dict keys included)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return canonical(dataclasses.asdict(value))
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): canonical(item)
                for key, item in sorted(value.items(),
                                        key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def digest(value) -> str:
    """SHA-256 over the canonical JSON of ``value``."""
    text = json.dumps(canonical(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _program(name):
    from repro.workloads import program
    return program(name)


class Workload:
    """Base class: subclasses fill in the round, warm-up and oracles."""

    name = ""
    #: Nominal-host seconds (see ``worker.HostClock``) one untraced
    #: round may take: about twice what it takes today.  A round past
    #: twice this budget fails the run.
    budget_s = 0.0

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def kernels(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def warm_up(self):
        """Untimed set-up work beyond imports and assembly."""
        raise NotImplementedError

    def make_round(self, rng: random.Random) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round, results: List[Any]) -> List[Failure]:
        """Oracle failures of a finished round (``results`` aligned with
        ``rnd.ops``; ``None`` for an op that raised)."""
        return []

    def outputs(self, rnd: Round, results: List[Any]):
        """The part of a round's results its outputs digest covers:
        simulated outputs only, never timings or counts of how the
        program got there (a faster program must reproduce it)."""
        return [[op.label, result] for op, result in zip(rnd.ops, results)]

    def tier_cycles(self, op: Op, result) -> Dict[str, int]:
        """Simulated cycles ``op`` ran, keyed ``"fast"``/``"reference"``
        (and ``"<scheme> fast"``); empty for ops that are not plain
        runs."""
        return {}

    def layer_extras(self, rnd: Round, results: List[Any]
                     ) -> Dict[str, float]:
        """Per-layer metrics read from results or measured untraced
        after the passes."""
        return {}


# -- pair-run -----------------------------------------------------------------

class PairRun(Workload):
    """Table I cells on the classic monitored pair, both tiers."""

    name = "pair-run"
    budget_s = 9.0

    KERNELS = ("bitcount", "cosf", "binarysearch", "md5", "quicksort",
               "matrix1")
    #: Reference cells: L1D-missing (cosf) and bus-heavy (quicksort).
    #: The interpreter's cycles/s is flat across kernels, so two stand
    #: for all six and keep the round inside its time budget.
    REF_KERNELS = ("cosf", "quicksort")

    def kernels(self):
        return self.KERNELS[:2] if self.smoke else self.KERNELS

    def ref_kernels(self):
        return self.REF_KERNELS[:1] if self.smoke else self.REF_KERNELS

    def warm_up(self):
        from repro.soc.experiment import run_redundant
        for name in self.kernels():
            run_redundant(_program(name), benchmark=name,
                          max_cycles=2000, engine="fast")
        run_redundant(_program("cosf"), benchmark="cosf",
                      max_cycles=2000, engine="reference")

    def make_round(self, rng):
        from repro.runner import ParallelSweep
        # Half the kernels run the unstaggered cell (two arbiter
        # starts), half a staggered one (either core late); which half
        # is seeded.  A stagger of < 500 nops changes a run's length by
        # under 4%, so the split barely moves the round's cost.
        stagger = rng.randrange(50, 500)
        parity = rng.randrange(2)
        column = {name: 0 if (i + parity) % 2 else stagger
                  for i, name in enumerate(self.kernels())}

        def cell(name, engine):
            def call(telemetry):
                metrics, tracer = telemetry or (None, None)
                sweep = ParallelSweep(jobs=1, use_cache=False,
                                      engine=engine, metrics=metrics,
                                      tracer=tracer)
                return sweep.run_table([name], [column[name]])
            return call

        ops = [Op("fast %s" % name, 2, cell(name, "fast"))
               for name in self.kernels()]
        ops += [Op("reference %s" % name, 2, cell(name, "reference"))
                for name in self.ref_kernels()]
        return Round({"stagger_nops": column}, ops)

    def check(self, rnd, results):
        by_label = dict(zip((op.label for op in rnd.ops), results))
        failures = []
        for name in self.ref_kernels():
            fast = by_label.get("fast %s" % name)
            ref = by_label.get("reference %s" % name)
            if fast is not None and ref is not None \
                    and canonical(fast) != canonical(ref):
                failures.append(Failure("fast %s" % name, 2,
                                        "fast tier != reference"))
        return failures

    def tier_cycles(self, op, result):
        cycles = sum(run.cycles for cells in result.values()
                     for cell in cells for run in cell.runs)
        return {op.label.split()[0]: cycles}


# -- scheme-run ---------------------------------------------------------------

class SchemeRun(Workload):
    """Scheme-shaped SoCs (the fast tier's "multi" span), both tiers."""

    name = "scheme-run"
    budget_s = 9.0

    KERNELS = ("cosf", "countnegative")
    SCHEMES = ("lockstep", "tmr", "multipair")
    ENGINES = ("fast", "reference")

    def kernels(self):
        return self.KERNELS[:1] if self.smoke else self.KERNELS

    def warm_up(self):
        from repro.soc.experiment import run_redundant
        # Every (scheme, tier) shape once, and each kernel's fast-tier
        # plan template once (templates are shared across schemes).
        for scheme in self.SCHEMES:
            for engine in self.ENGINES:
                run_redundant(_program("cosf"), benchmark="cosf",
                              max_cycles=500, engine=engine, scheme=scheme)
        for name in self.kernels():
            run_redundant(_program(name), benchmark=name, max_cycles=500,
                          engine="fast", scheme="lockstep")

    def make_round(self, rng):
        from repro.soc import experiment
        # A longer nop sled makes every run of the round longer, so the
        # two kernels take antithetic staggers: s and 550 - s, both in
        # [50, 500], with the same total sled length for every seed.
        first = rng.randrange(50, 500)
        staggers = dict(zip(self.kernels(), (first, 550 - first)))
        late = {}
        ops = []
        for name in self.kernels():
            stagger = staggers[name]
            for scheme in self.SCHEMES:
                late_core = late["%s %s" % (scheme, name)] = rng.randrange(2)
                for engine in self.ENGINES:
                    def call(telemetry, name=name, scheme=scheme,
                             engine=engine, late_core=late_core,
                             stagger=stagger):
                        metrics, tracer = telemetry or (None, None)
                        return experiment.run_redundant(
                            _program(name), benchmark=name,
                            stagger_nops=stagger, late_core=late_core,
                            engine=engine, scheme=scheme,
                            metrics=metrics, tracer=tracer)
                    ops.append(Op("%s %s %s" % (scheme, name, engine), 1,
                                  call))
        return Round({"stagger_nops": staggers, "late_core": late}, ops)

    def check(self, rnd, results):
        by_label = dict(zip((op.label for op in rnd.ops), results))
        failures = []
        for key in rnd.inputs["late_core"]:
            fast = by_label.get("%s fast" % key)
            ref = by_label.get("%s reference" % key)
            if fast is not None and ref is not None \
                    and canonical(fast) != canonical(ref):
                failures.append(Failure("%s fast" % key, 1,
                                        "fast tier != reference"))
        return failures

    def tier_cycles(self, op, result):
        scheme, _, engine = op.label.split()
        cycles = {engine: result.cycles}
        if engine == "fast":
            cycles["%s fast" % scheme] = result.cycles
        return cycles


# -- fault-campaign -----------------------------------------------------------

@dataclass
class _Campaign:
    """What a phase-A op returns: the campaign (the oracle forks from
    its golden artifact) and its result."""

    campaign: Any
    result: Any


class FaultCampaign(Workload):
    """CCF Monte-Carlo (phase A) and a fully simulated CCF campaign
    (phase B), both on the shared-address configuration."""

    name = "fault-campaign"
    budget_s = 16.0

    #: (kernel, trials).  countnegative is mostly decided by the static
    #: proofs; md5 mostly by simulation, behind a long golden run.  A
    #: Monte-Carlo campaign's cost per trial is heavy-tailed (hangs,
    #: traps, runs that never reconverge), so the deterministic md5
    #: golden run also steadies the round's cost across seeds.
    PHASE_A = (("countnegative", 96), ("md5", 16))
    PHASE_B_KERNEL = "countnegative"
    PHASE_B_CYCLES = 16
    PHASE_B_STIMULI = 2
    PHASE_B_CADENCE = 547

    def __init__(self, smoke=False):
        super().__init__(smoke)
        #: Fault-free run length of the phase-B kernel (measured in
        #: set-up; phase-B cycles are spread over it).
        self.run_cycles = 0

    def phase_a(self):
        return (("countnegative", 16),) if self.smoke else self.PHASE_A

    def kernels(self):
        return tuple(name for name, _ in self.phase_a())

    @staticmethod
    def config():
        from repro.fault import shared_address_config
        return shared_address_config()

    def warm_up(self):
        from repro.soc.experiment import run_redundant
        run_redundant(_program("cosf"), benchmark="cosf", max_cycles=2000,
                      engine="reference")
        for name in self.kernels():
            run_redundant(_program(name), benchmark=name,
                          config=self.config(), max_cycles=2000,
                          engine="fast")
        self.run_cycles = run_redundant(
            _program(self.PHASE_B_KERNEL), benchmark=self.PHASE_B_KERNEL,
            config=self.config(), max_cycles=FAULT_MAX_CYCLES,
            engine="fast").cycles

    def make_round(self, rng):
        from repro.fault import run_ccf_campaign
        from repro.montecarlo import BatchedCampaign
        config = self.config()
        ops = []
        trial_seeds = {}
        for name, trials in self.phase_a():
            trial_seed = trial_seeds[name] = rng.getrandbits(32)

            def phase_a(telemetry, name=name, trials=trials,
                        trial_seed=trial_seed):
                campaign = BatchedCampaign(
                    _program(name), benchmark=name, config=config,
                    max_cycles=FAULT_MAX_CYCLES, checkpoint_every=0,
                    engine="fast")
                batch = self._ccf_batch(campaign, trials, trial_seed)
                result = campaign.run(batch, jobs=1, seed=trial_seed,
                                      metrics=telemetry[0] if telemetry
                                      else None)
                return _Campaign(campaign, result)
            ops.append(Op("montecarlo %s" % name, trials, phase_a))

        # One seeded cycle per stratum of the fault-free run, so every
        # seed's injections cover the whole timeline.
        count = 4 if self.smoke else self.PHASE_B_CYCLES
        span = max(self.run_cycles - 16, count)
        cycles = [16 + (i * span + rng.randrange(span)) // count
                  for i in range(count)]
        stimuli = [rng.getrandbits(32) for _ in range(self.PHASE_B_STIMULI)]

        def phase_b(telemetry):
            metrics, tracer = telemetry or (None, None)
            return run_ccf_campaign(
                _program(self.PHASE_B_KERNEL), cycles, stimuli=stimuli,
                config=config, max_cycles=FAULT_MAX_CYCLES, metrics=metrics,
                tracer=tracer, checkpoint_every=self.PHASE_B_CADENCE,
                jobs=1, cache_dir=None, benchmark=self.PHASE_B_KERNEL,
                engine="fast")
        ops.append(Op("ccf campaign %s" % self.PHASE_B_KERNEL,
                      len(cycles) * len(stimuli), phase_b))
        return Round({"trial_seeds": trial_seeds, "phase_b_cycles": cycles,
                      "phase_b_stimuli": stimuli}, ops)

    @staticmethod
    def _ccf_batch(campaign, trials, seed):
        """``campaign.sample_ccf(trials, seed)``, except that trial i's
        cycle is uniform in the i-th of ``trials`` equal strata of the
        golden run.  A trial costs several times more early in the run
        than late (it simulates the rest of the run), so uniform cycles
        would make the round's cost swing with the seed."""
        from repro.montecarlo import TrialBatch
        artifact = campaign.prepare("ccf")
        rng = random.Random(seed)
        batch = TrialBatch("ccf", trials, backend=campaign.backend,
                           golden_checksum=artifact.checksum)
        span = artifact.end_cycle - 1
        for i in range(trials):
            batch.set_ccf_trial(i, 1 + (i * span + rng.randrange(span))
                                // trials, rng.getrandbits(32))
        return batch

    def check(self, rnd, results):
        failures = []
        for op, result in zip(rnd.ops, results):
            if isinstance(result, _Campaign):
                failures += self._check_batched(op, result)
            elif result is not None:
                failures += self._check_scratch(op, rnd, result)
        return failures

    @staticmethod
    def _check_batched(op, outcome):
        """Batched rows == the scalar fork-path injector."""
        from repro.fault import ForkEngine, inject_common_cause
        campaign, batch = outcome.campaign, outcome.result.batch
        base = campaign.artifact.base
        fork = ForkEngine(campaign.program, base, config=campaign.config)
        cycles = batch.column("cycle")
        stimuli = batch.column("stimulus")
        for i in range(0, batch.n, max(1, batch.n // CHECK_TRIALS)):
            scalar = inject_common_cause(
                campaign.program, cycles[i], stimuli[i], base.checksum,
                config=campaign.config, max_cycles=FAULT_MAX_CYCLES,
                fork=fork, engine="fast")
            if canonical(batch.result(i)) != canonical(scalar):
                return [Failure(op.label, op.ops,
                                "batched trial %d != scalar injector" % i)]
        return []

    def _check_scratch(self, op, rnd, result):
        """Forked injections == the same injections from cycle 0."""
        from repro.fault import golden_run, inject_common_cause
        program, config = _program(self.PHASE_B_KERNEL), self.config()
        golden = golden_run(program, config=config,
                            max_cycles=FAULT_MAX_CYCLES, engine="fast")
        tasks = [(stimulus, cycle)
                 for stimulus in rnd.inputs["phase_b_stimuli"]
                 for cycle in rnd.inputs["phase_b_cycles"]]
        for j in range(0, len(tasks), max(1, len(tasks) // CHECK_INJECTIONS)):
            stimulus, cycle = tasks[j]
            scratch = inject_common_cause(
                program, cycle, stimulus, golden, config=config,
                max_cycles=FAULT_MAX_CYCLES, engine="fast")
            if canonical(result.injections[j]) != canonical(scratch):
                return [Failure(op.label, op.ops,
                                "forked injection %d != scratch run" % j)]
        return []

    def outputs(self, rnd, results):
        out = []
        for op, result in zip(rnd.ops, results):
            if isinstance(result, _Campaign):
                batch = result.result.batch
                result = [batch.result(i) for i in range(batch.n)]
            out.append([op.label, result])
        return out

    def layer_extras(self, rnd, results):
        from repro.montecarlo import mc_golden_run
        from repro.soc.experiment import run_redundant
        campaigns = [result for result in results
                     if isinstance(result, _Campaign)]
        if not campaigns:
            return {}
        trials = sum(c.result.batch.n for c in campaigns)
        extras = {"montecarlo.%s_frac" % key:
                  sum(getattr(c.result, attr) for c in campaigns) / trials
                  for key, attr in (("static", "static"),
                                    ("analytic", "analytic"),
                                    ("live", "simulated"))}
        # The recording golden run against a plain reference run of the
        # same kernel, at the cadence the campaign chose.
        campaign = campaigns[0].campaign
        start = time.perf_counter()
        mc_golden_run(campaign.program, config=campaign.config,
                      max_cycles=FAULT_MAX_CYCLES,
                      checkpoint_every=campaign.checkpoint_every,
                      benchmark=campaign.benchmark)
        golden = time.perf_counter() - start
        start = time.perf_counter()
        run_redundant(campaign.program, benchmark=campaign.benchmark,
                      config=campaign.config, max_cycles=FAULT_MAX_CYCLES,
                      engine="reference")
        extras["montecarlo.golden_overhead_x"] = \
            golden / (time.perf_counter() - start)
        return extras


# -- monitor-sweep ------------------------------------------------------------

class MonitorSweepWorkload(Workload):
    """Capture once on the fast tier, replay 48 monitor points."""

    name = "monitor-sweep"
    budget_s = 6.0

    KERNELS = ("cosf", "fft", "countnegative", "binarysearch")
    THRESHOLDS = 6

    def kernels(self):
        return self.KERNELS[:1] if self.smoke else self.KERNELS

    @staticmethod
    def geometries():
        """Six signature geometries; the default comes first, so the
        capture (which uses the first point) runs on the fast tier."""
        from repro.core.signatures import IsVariant, SignatureConfig
        return (SignatureConfig(),
                SignatureConfig(ds_depth=4),
                SignatureConfig(ds_depth=10),
                SignatureConfig(num_ports=2),
                SignatureConfig(is_variant=IsVariant.INFLIGHT),
                SignatureConfig(is_variant=IsVariant.INFLIGHT,
                                inflight_depth=8))

    def warm_up(self):
        from repro.soc.experiment import run_redundant_captured
        for name in self.kernels():
            run_redundant_captured(_program(name), benchmark=name,
                                   max_cycles=2000, engine="fast")

    def make_round(self, rng):
        from repro.core.monitor import ReportingMode
        from repro.replay import MonitorPoint, MonitorSweep
        inputs = {}
        ops = []
        for name in self.kernels():
            stagger = rng.randrange(50, 500)
            late_core = rng.randrange(2)
            thresholds = sorted(rng.sample(range(2, 1024), self.THRESHOLDS))
            inputs[name] = {"stagger_nops": stagger, "late_core": late_core,
                            "thresholds": thresholds}
            points = []
            for signature in self.geometries():
                points.append(MonitorPoint(ReportingMode.POLLING, 1,
                                           signature))
                points.append(MonitorPoint(ReportingMode.INTERRUPT_FIRST, 1,
                                           signature))
                points += [MonitorPoint(ReportingMode.INTERRUPT_THRESHOLD,
                                        threshold, signature)
                           for threshold in thresholds]

            def call(telemetry, name=name, points=tuple(points),
                     stagger=stagger, late_core=late_core):
                metrics, tracer = telemetry or (None, None)
                sweep = MonitorSweep(use_cache=False, engine="fast",
                                     metrics=metrics, tracer=tracer)
                return sweep.sweep(name, points, stagger_nops=stagger,
                                   late_core=late_core)
            ops.append(Op("sweep %s" % name, len(points), call))
        return Round(inputs, ops)

    def outputs(self, rnd, results):
        # The replay == live check is MonitorSweep's own (it raises).
        return [[op.label, None if result is None else
                 [result.results, result.cycles]]
                for op, result in zip(rnd.ops, results)]

    def layer_extras(self, rnd, results):
        from repro.soc.experiment import run_redundant, run_redundant_captured
        sweeps = [result for result in results if result is not None]
        cycles = sum(sweep.cycles for sweep in sweeps)
        extras = {"trace.bytes_per_cycle":
                  sum(sweep.trace_bytes for sweep in sweeps) / cycles
                  if cycles else 0.0}
        # Capture against a plain fast-tier run of the same simulation;
        # both are short, so take the median of a few repeats.
        program = _program("cosf")
        ratios = []
        for _ in range(5):
            start = time.perf_counter()
            run_redundant_captured(program, benchmark="cosf", engine="fast")
            captured = time.perf_counter() - start
            start = time.perf_counter()
            run_redundant(program, benchmark="cosf", engine="fast")
            ratios.append(captured / (time.perf_counter() - start))
        extras["trace.capture_overhead_x"] = statistics.median(ratios)
        return extras


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PairRun, SchemeRun, FaultCampaign,
                              MonitorSweepWorkload)
}
