"""Scheme-matrix CCF trials: coverage × latency × hardware cost.

The fault campaign in :mod:`repro.fault` asks one question about one
scheme (SafeDM-monitored redundancy).  This module asks the *matrix*
question: for each redundancy scheme, what fraction of unmasked
common-cause corruptions does it catch, how fast, and at what hardware
cost?

Each trial runs one kernel under one scheme on a fresh SoC, injects a
:class:`repro.fault.models.CommonCauseFault` into **every replica** on
the configured cycle (the same physical disturbance hits all cores;
what it corrupts is modulated per-core by :func:`state_digest`), then
runs to completion and classifies:

* ``masked`` — no detection and every replica output equals golden;
* ``corrected`` — the scheme repaired the error in-flight and its
  voted output is golden (TMR only);
* ``detected`` — the scheme raised its error signal;
* ``trap`` — a replica failed loudly with an architectural trap;
* ``hang`` — the run exceeded its cycle budget;
* ``silent`` — outputs are wrong and nothing fired.

``coverage = (detected + corrected + trap) / (trials - masked)`` —
the scheme's probability of containing a *consequential* CCF.

The activity term of the fault model (the SafeDM signature-window
digest) is defined per monitored pair only, so matrix trials set it to
zero for every replica: corruption identity is then exactly
state-digest identity, the CCF mechanism all five schemes face on
equal terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Sequence

from ..fault.campaign import run_trials, spread_cycles
from ..fault.injector import run_injection
from ..fault.models import CommonCauseFault
from ..runner.executor import resolve_jobs
from ..soc.experiment import run_redundant
from ..telemetry import NULL_TRACER
from .base import RedundancyScheme, build_scheme
from .spec import SCHEME_KINDS

#: Default stimuli: two distinct disturbances per injection cycle.
DEFAULT_STIMULI = (0x5EED, 0xC0FFEE)


@dataclass
class SchemeTrial:
    """One injected run under one scheme."""

    fault_cycle: int
    stimulus: int
    classification: str
    #: detection_cycle - fault_cycle for detected/corrected trials.
    latency: int
    outputs: tuple
    effects: tuple

    @property
    def effects_identical(self) -> bool:
        return len(set(self.effects)) == 1


@dataclass
class SchemeMatrixRow:
    """All trials of one scheme on one kernel, plus derived metrics."""

    scheme: str
    benchmark: str
    golden_cycles: int
    golden_output: int
    hardware: dict
    trials: List[SchemeTrial] = field(default_factory=list)

    def count(self, classification: str) -> int:
        return sum(1 for t in self.trials
                   if t.classification == classification)

    @property
    def unmasked(self) -> int:
        return len(self.trials) - self.count("masked")

    @property
    def covered(self) -> int:
        return (self.count("detected") + self.count("corrected")
                + self.count("trap"))

    @property
    def coverage(self) -> float:
        unmasked = self.unmasked
        return self.covered / unmasked if unmasked else 1.0

    @property
    def silent(self) -> int:
        return self.count("silent")

    @property
    def mean_latency(self) -> float:
        latencies = [t.latency for t in self.trials
                     if t.classification in ("detected", "corrected")
                     and t.latency >= 0]
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "benchmark": self.benchmark,
            "golden_cycles": self.golden_cycles,
            "trials": len(self.trials),
            "masked": self.count("masked"),
            "corrected": self.count("corrected"),
            "detected": self.count("detected"),
            "trap": self.count("trap"),
            "hang": self.count("hang"),
            "silent": self.silent,
            "coverage": self.coverage,
            "mean_detection_latency": self.mean_latency,
            "hardware": self.hardware,
        }


def _golden(sch: RedundancyScheme, program, benchmark, config,
            max_cycles: int, engine: str):
    """Fault-free run: (outputs, cycles).  ``ValueError`` when it
    cannot finish within ``max_cycles``."""
    run = run_redundant(program, benchmark=benchmark, config=config,
                        max_cycles=max_cycles, engine=engine, scheme=sch)
    if not run.finished:
        raise ValueError("the golden %s run of %s did not finish within "
                         "%d cycles" % (sch.kind, benchmark, max_cycles))
    if run.scheme_stats["detected"]:
        raise RuntimeError("golden %s run raised its error signal"
                           % sch.kind)
    return tuple(run.scheme_stats["outputs"]), run.cycles


def _classify(scheme: RedundancyScheme, soc, trapped: bool,
              golden_outputs, fault_cycle: int, stimulus: int,
              effects: tuple) -> SchemeTrial:
    """The scheme checker's verdict on a finished trial SoC."""
    finished = all(soc.cores[idx].finished for idx in scheme.watched())
    detection = scheme.detection_cycle(soc)
    latency = detection - fault_cycle if detection >= 0 else -1
    outputs = scheme.outputs(soc) if not trapped else ()
    if trapped:
        classification = "trap"
        latency = soc.cycle - fault_cycle
    elif finished:
        if (scheme.corrected(soc)
                and scheme.voted_output(soc) == golden_outputs[0]):
            classification = "corrected"
        elif scheme.error_detected(soc):
            classification = "detected"
        elif tuple(outputs) == tuple(golden_outputs):
            classification = "masked"
        else:
            classification = "silent"
    elif scheme.checker_detected(soc):
        # The replica hung, but the streaming checker had already
        # flagged the divergence — the error signal fired.
        classification = "detected"
    else:
        classification = "hang"
    return SchemeTrial(fault_cycle=fault_cycle, stimulus=stimulus,
                       classification=classification, latency=latency,
                       outputs=tuple(outputs), effects=effects)


def inject_scheme_ccf(scheme, program, cycle: int, stimulus: int,
                      golden_outputs, benchmark: str = "program",
                      config=None, max_cycles: int = 2_000_000,
                      engine: str = "reference") -> SchemeTrial:
    """One scheme trial: a common-cause fault at ``cycle`` on a fresh
    SoC of ``scheme`` (anything :func:`build_scheme` accepts), driven
    by the pair campaign's injected-run loop
    (:func:`repro.fault.injector._drive`) on ``engine``'s tier and
    classified by the scheme's own checker.

    The fault cycle is stepped first and the corruption applied to
    every watched replica on its closing clock edge, matching the pair
    campaign's after-step semantics.
    """
    sch = build_scheme(scheme)
    fault = CommonCauseFault(cycle=cycle, stimulus=stimulus)

    def start():
        soc = sch.build(config)
        sch.start(soc, program, benchmark=benchmark)
        return soc

    def after_step(soc):
        effects = []
        for idx in sch.watched():
            effect = fault.effect_on(soc.cores[idx], activity=0)
            effect.apply(soc.cores[idx])
            effects.append((effect.register, effect.bit))
        return tuple(effects)

    def result(soc, effects, diversity_at_injection, trapped, tail):
        sch.finish(soc)
        return _classify(sch, soc, trapped, golden_outputs, cycle,
                         stimulus, effects)

    return run_injection(start, cycle, max_cycles, result,
                         engine=engine, after_step=after_step)


def run_scheme_trials(scheme, program, benchmark: str = "program",
                      config=None, num_faults: int = 8,
                      stimuli: Sequence[int] = DEFAULT_STIMULI,
                      max_cycles: int = 2_000_000,
                      engine: str = "reference", jobs: Optional[int] = 1,
                      tracer=NULL_TRACER) -> SchemeMatrixRow:
    """CCF trials of one scheme on one kernel.

    ``scheme`` is anything :func:`repro.schemes.base.build_scheme`
    accepts (a kind string, a :class:`SchemeSpec`, or an instance).
    The golden run and the trials run on ``engine``'s tier; the trials
    go through :func:`~repro.fault.campaign.run_trials`, over ``jobs``
    workers and with one ``tracer`` event each.  Rows are identical
    for either tier and any ``jobs``.
    """
    sch = build_scheme(scheme)
    golden_outputs, golden_cycles = _golden(
        sch, program, benchmark, config, max_cycles, engine)
    row = SchemeMatrixRow(scheme=sch.kind, benchmark=benchmark,
                          golden_cycles=golden_cycles,
                          golden_output=golden_outputs[0],
                          hardware=sch.hardware_cost())
    # A corrupted replica can loop essentially forever; a few golden
    # lengths is ample for every legitimate post-fault path, and hangs
    # are classified, not simulated to the bitter end.
    budget = min(max_cycles, 4 * golden_cycles + 20_000)
    inject = partial(inject_scheme_ccf, scheme, program,
                     golden_outputs=golden_outputs, benchmark=benchmark,
                     config=config, max_cycles=budget, engine=engine)
    tasks = [(cycle, stimulus) for stimulus in stimuli
             for cycle in spread_cycles(golden_cycles, num_faults)]
    row.trials = run_trials(inject, tasks, jobs=resolve_jobs(jobs),
                            tracer=tracer).results
    return row


def scheme_matrix(program, benchmark: str = "program",
                  schemes: Sequence = SCHEME_KINDS, config=None,
                  num_faults: int = 8,
                  stimuli: Sequence[int] = DEFAULT_STIMULI,
                  max_cycles: int = 2_000_000,
                  metrics=None, engine: str = "reference",
                  jobs: Optional[int] = 1,
                  tracer=None) -> List[SchemeMatrixRow]:
    """The matrix-mode CCF campaign: one :class:`SchemeMatrixRow` per
    scheme, same kernel and fault grid throughout (fault *cycles*
    follow each scheme's own golden timeline; stimuli are shared).
    ``metrics`` gets the ``repro_scheme_*`` tallies, ``tracer`` a
    ``scheme_matrix`` span around the trials' events."""
    if tracer is None:
        tracer = NULL_TRACER
    with tracer.span("scheme_matrix", benchmark=benchmark,
                     schemes=",".join(str(s) for s in schemes)):
        rows = [run_scheme_trials(scheme, program, benchmark=benchmark,
                                  config=config, num_faults=num_faults,
                                  stimuli=stimuli, max_cycles=max_cycles,
                                  engine=engine, jobs=jobs, tracer=tracer)
                for scheme in schemes]
    if metrics is not None:
        for row in rows:
            _row_to_metrics(row, metrics)
    return rows


def _row_to_metrics(row: SchemeMatrixRow, registry):
    if not getattr(registry, "enabled", True):
        return
    labels = (("scheme", row.scheme),)
    for classification in ("masked", "corrected", "detected", "trap",
                           "hang", "silent"):
        registry.counter(
            "repro_scheme_trials_total",
            labels + (("classification", classification),)
        ).inc(row.count(classification))
    registry.gauge("repro_scheme_coverage", labels).set(row.coverage)


def matrix_table(rows: Sequence[SchemeMatrixRow]) -> str:
    """The ``repro compare-schemes`` table."""
    header = ("scheme", "cores", "trials", "masked", "corr", "det",
              "trap", "silent", "coverage", "latency", "luts",
              "overhead")
    lines = ["  ".join("%-9s" % h for h in header)]
    for row in rows:
        hardware = row.hardware
        lines.append("  ".join("%-9s" % v for v in (
            row.scheme,
            hardware["cores"],
            len(row.trials),
            row.count("masked"),
            row.count("corrected"),
            row.count("detected"),
            row.count("trap"),
            row.silent,
            "%.3f" % row.coverage,
            "%.1f" % row.mean_latency,
            hardware["total_luts"],
            "%+.1f%%" % hardware["overhead_vs_dual_percent"],
        )))
    return "\n".join(lines)
