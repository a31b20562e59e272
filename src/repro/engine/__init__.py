"""Tiered execution engine for the SafeDM platform model.

Two tiers drive the same :class:`~repro.soc.mpsoc.MPSoC` objects:

* ``reference`` — :class:`ReferenceRunner`, which steps the platform
  with :meth:`MPSoC.step` over the interpreter in :mod:`repro.cpu`.
  It is the oracle: every observable (architectural state, signatures,
  monitor statistics, histograms, telemetry counters, checkpoints,
  capture streams) is defined by it.
* ``fast`` — :class:`repro.engine.fast.FastRunner` over a
  :class:`repro.engine.plan.ProgramPlan`.  Straight-line fetch groups
  are specialized into generated per-PC step code operating on the
  *same live objects*; anything the specialization cannot prove static
  (cache misses, memory-stage traffic, self-modifying code, plan
  misses) deoptimizes to the corresponding reference method mid-cycle.
  The fast tier is bit-identical by construction — it never skips a
  cycle, because SafeDM samples signatures every cycle.

Both runners share one interface: ``run_span(stop)`` advances the SoC
to cycle ``stop`` or until its watched cores finish (True when they
have), and ``_rebuild()`` recaptures live state after a restore.
:func:`make_runner` is the one tier decision (through
:func:`select_tier`), and every loop that advances a SoC — the chunked
run loop of :func:`run_soc` (behind
:func:`repro.soc.experiment.run_redundant` and :meth:`MPSoC.run`), the
fault injector, the golden recorder and the golden-run walk — calls
``run_span`` on the runner it returns.  Every topology — the monitored
pair, extra cores, multiple monitored pairs, scheme taps — runs the
same generated span.  A core whose register file is the golden
recorder's :class:`~repro.cpu.regfile.RecordingRegisterFile` runs on
either tier: both stamp its cycle markers and issue frontier, and the
generated code appends the same access log.  SoCs the fast tier does
not model (any other register-file subclass, nonstandard monitor
geometry on any monitor) silently fall back to the reference tier,
recording ``fallback_reason``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.signatures import IsVariant
from ..cpu.pipeline import DE, FE, RA
from ..cpu.regfile import RecordingRegisterFile, RegisterFile
from ..lint.masking import FRONTIER_HALTED

from .plan import ProgramPlan  # noqa: F401  (re-export)

#: Engines accepted by ``run_soc`` / the ``--engine`` CLI flag.
ENGINES: Tuple[str, ...] = ("reference", "fast")

#: Register-file classes the generated code models exactly.  A
#: recording register file's accesses are logged by the generated code
#: itself (``repro.engine.fast``), so a golden recording runs fast too.
_MODELLED_REGFILES = (RegisterFile, RecordingRegisterFile)


def resolve_engine(name: Optional[str]) -> str:
    """Validate an engine name (None means reference)."""
    if name is None:
        return "reference"
    if name not in ENGINES:
        raise ValueError("unknown engine %r (expected one of %s)"
                         % (name, ", ".join(ENGINES)))
    return name


#: ``deopt_reasons`` keys that are delegations to *reference* code
#: paths.  ``recompile`` events (code-page rebuilds) stay outside this
#: set: they cost a rebuild, not a reference-method call.
REFERENCE_DEOPT_REASONS: Tuple[str, ...] = (
    "plan_miss", "page_version", "issue_shape", "mem_stage",
)


@dataclass
class EngineStats:
    """What the engine did for one run (exposed as ``soc.engine_stats``).

    Deopt accounting is split (one counter used to conflate both):

    * ``deopts`` — per-core-cycle deopt *events*: cycles in which a
      core left the generated code for a reference method at least
      once.  This is the number the benchmark deopt-rate gates use.
    * ``delegations`` — individual reference-method delegations, the
      sum of the reference-path entries of ``deopt_reasons``.
    * ``deopt_reasons`` — per-reason histogram over every delegation,
      plus the code-page rebuilds (``recompile``) that never touch
      reference code.

    ``issue_fast``/``issue_ref`` split issued groups by tier;
    ``superblock_links``/``chained_fetches``/``recompilations`` describe
    the superblock trace tier (links formed between compiled blocks,
    fetches served by following a link, and blocks rebuilt after their
    code page was written).
    """

    engine: str = "reference"
    blocks_compiled: int = 0
    fast_cycles: int = 0
    deopts: int = 0
    delegations: int = 0
    issue_fast: int = 0
    issue_ref: int = 0
    superblock_links: int = 0
    chained_fetches: int = 0
    recompilations: int = 0
    deopt_reasons: Dict[str, int] = field(default_factory=dict)
    #: Why a requested fast run fell back to reference (None = ran fast).
    fallback_reason: Optional[str] = None

    @property
    def tier_hit_rate(self) -> float:
        """Fraction of issued groups handled by generated code."""
        total = self.issue_fast + self.issue_ref
        if total == 0:
            return 0.0
        return self.issue_fast / total

    def to_metrics(self, registry):
        """Publish engine counters into a telemetry registry."""
        if not getattr(registry, "enabled", True):
            return
        labels = (("engine", self.engine),)
        registry.counter("repro_engine_blocks_compiled_total",
                         labels).inc(self.blocks_compiled)
        registry.counter("repro_engine_fast_cycles_total",
                         labels).inc(self.fast_cycles)
        registry.counter("repro_engine_deopts_total",
                         labels).inc(self.deopts)
        registry.counter("repro_engine_delegations_total",
                         labels).inc(self.delegations)
        registry.counter("repro_engine_fast_issues_total",
                         labels).inc(self.issue_fast)
        registry.counter("repro_engine_reference_issues_total",
                         labels).inc(self.issue_ref)
        registry.counter("repro_engine_superblock_links_total",
                         labels).inc(self.superblock_links)
        registry.counter("repro_engine_chained_fetches_total",
                         labels).inc(self.chained_fetches)
        registry.counter("repro_engine_recompilations_total",
                         labels).inc(self.recompilations)
        for reason in sorted(self.deopt_reasons):
            registry.counter(
                "repro_engine_deopt_reasons_total",
                labels + (("reason", reason),)
            ).inc(self.deopt_reasons[reason])

    def as_dict(self) -> dict:
        return {
            "engine": self.engine,
            "blocks_compiled": self.blocks_compiled,
            "fast_cycles": self.fast_cycles,
            "deopts": self.deopts,
            "delegations": self.delegations,
            "deopt_reasons": dict(sorted(self.deopt_reasons.items())),
            "issue_fast": self.issue_fast,
            "issue_ref": self.issue_ref,
            "superblock_links": self.superblock_links,
            "chained_fetches": self.chained_fetches,
            "recompilations": self.recompilations,
            "tier_hit_rate": self.tier_hit_rate,
            "fallback_reason": self.fallback_reason,
        }


def _fast_supported(soc) -> Optional[str]:
    """None when the fast tier models this SoC exactly, else a reason.

    Structural guards (core shape, register file) apply to every core
    and the geometry guards to every monitor, whatever the topology:
    the generated span samples each monitored pair's signature units
    in line.
    """
    cores = soc.cores
    cfg0 = cores[0].config
    for core in cores[1:]:
        if core.config is not cfg0:
            return "cores use distinct configs"
    if cfg0.issue_width != 2:
        return "fast tier assumes dual issue"
    for core in cores:
        if len(core.stages) != 7:
            return "fast tier assumes the 7-stage pipeline"
        if type(core.regfile) not in _MODELLED_REGFILES:
            return "instrumented register file (%s)" \
                % type(core.regfile).__name__
    for monitor in soc.monitors:
        cfg = monitor.config
        if cfg.is_variant is not IsVariant.PER_STAGE:
            return "fast tier inlines only the PER_STAGE IS variant"
        if cfg.num_ports != cores[0].regfile.num_read_ports:
            return "DS ports do not match the register read ports"
        if cfg.pipeline_stages != 7:
            return "monitor geometry does not match the pipeline"
    return None


def select_tier(soc, engine: Optional[str]) -> Tuple[EngineStats, bool]:
    """The tier decision behind :func:`make_runner`.

    Resolves ``engine``, attaches a fresh :class:`EngineStats` as
    ``soc.engine_stats``, and returns it with True when the fast tier
    should run.  A fast request for a SoC the fast tier does not model
    records ``fallback_reason`` and returns False: the reference
    interpreter then runs it.
    """
    engine = resolve_engine(engine)
    stats = EngineStats(engine=engine)
    soc.engine_stats = stats
    if engine != "fast":
        return stats, False
    stats.fallback_reason = _fast_supported(soc)
    return stats, stats.fallback_reason is None


def _frontier_pc(core) -> int:
    """The pc of ``core``'s oldest **not-yet-issued** instruction.

    Functional register reads and writes both happen at issue time
    (``Core._issue`` is the single ``RegisterFile.read`` call site), so
    the oldest unissued instruction is the first program point whose
    architectural accesses can still be influenced by a corruption
    landing now.  Instructions already past RA have read *and* written;
    crediting their kills would be unsound, so they are ignored.

    Pre-issue stages, oldest first: RA, then DE, then FE.  With all
    three empty, the next instruction to issue is the one at
    ``fetch_pc`` — which is architecturally correct here, because any
    in-flight mispredicted path would still have its branch in a
    pre-issue stage (in-order issue), and issue-time redirects have
    already fixed ``fetch_pc``.  A halted core never issues again:
    :data:`~repro.lint.masking.FRONTIER_HALTED`.
    """
    stages = core.stages
    for stage in (RA, DE, FE):
        group = stages[stage]
        if group is not None:
            return group.instrs[0].pc
    if core.halted:
        return FRONTIER_HALTED
    return core.fetch_pc


class ReferenceRunner:
    """The reference interpreter behind
    :class:`~repro.engine.fast.FastRunner`'s interface.

    Like the generated span, :meth:`run_span` stamps every core whose
    register file is a :class:`~repro.cpu.regfile.RecordingRegisterFile`
    before the cores step: the ``(3, cycle)`` log marker and the issue
    frontier (:func:`_frontier_pc`).
    """

    def __init__(self, soc):
        self.soc = soc
        self.watched = [soc.cores[i] for i in soc._watched_indices()]
        self.recorded = [core for core in soc.cores
                         if isinstance(core.regfile, RecordingRegisterFile)]

    def run_span(self, stop: int) -> bool:
        """Step the platform until ``soc.cycle == stop`` or every
        watched core finishes.  Returns True when they all have,
        whichever ended the span (they may finish on ``stop`` itself).
        """
        soc, watched, recorded = self.soc, self.watched, self.recorded
        step = soc.step
        while soc.cycle < stop:
            if all(core.finished for core in watched):
                return True
            if recorded:
                cycle = soc.cycle
                for core in recorded:
                    core.regfile.log.append((3, cycle))
                    # Sampled before the step, like the before-step
                    # transient injection hook the frontier models.
                    core.regfile.frontier.append(_frontier_pc(core))
            step()
        return all(core.finished for core in watched)

    def _rebuild(self):
        """Nothing to recapture: the interpreter reads live state."""


def make_runner(soc, engine: Optional[str], program=None):
    """The runner for ``soc`` on the tier :func:`select_tier` picks: a
    :class:`~repro.engine.fast.FastRunner` or a :class:`ReferenceRunner`.

    A run from a freshly loaded ``program`` reuses its compiled
    :class:`ProgramPlan` template; without one (a forked or restored
    SoC) the fast tier compiles lazily into a fresh plan.
    """
    stats, fast = select_tier(soc, engine)
    if not fast:
        return ReferenceRunner(soc)
    from .fast import FastRunner
    plan = ProgramPlan.for_soc(soc.memory, soc.cores[0].config, program)
    return FastRunner(soc, plan, stats)


def run_soc(soc, engine: str = "reference", program=None,
            max_cycles: int = 2_000_000, checkpoint_every: int = 0,
            on_checkpoint=None):
    """Run ``soc`` for up to ``max_cycles`` cycles, until its watched
    cores finish, under the selected engine.

    Returns ``(cycles_run, EngineStats)`` and stores the stats on the
    SoC as ``soc.engine_stats``.  ``program`` (optional) lets the fast
    tier pre-compile every basic block up front; without it plans are
    built lazily per fetched PC.

    With ``checkpoint_every`` > 0 and an ``on_checkpoint`` callback,
    the callback receives this SoC whenever its cycle reaches a
    multiple of the cadence, post-step — including the cycle the cores
    finish on.  Spans are chunked to the next multiple, and a span that
    ends early (cores finished) cannot land on a multiple it did not
    reach.  The runner is rebuilt after every callback, which may have
    restored other state into the SoC.
    """
    runner = make_runner(soc, engine, program)
    start = soc.cycle
    limit = start + max_cycles
    every = checkpoint_every if on_checkpoint is not None else 0
    while soc.cycle < limit:
        stop = limit
        if every > 0:
            stop = min(limit, (soc.cycle // every + 1) * every)
        finished = runner.run_span(stop)
        if every > 0 and soc.cycle == stop and stop % every == 0:
            on_checkpoint(soc)
            runner._rebuild()
        if finished:
            break
    for monitor in soc.monitors:
        monitor.finish()
    return soc.cycle - start, soc.engine_stats
