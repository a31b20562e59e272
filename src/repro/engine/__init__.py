"""Tiered execution engine for the SafeDM platform model.

Two tiers drive the same :class:`~repro.soc.mpsoc.MPSoC` objects:

* ``reference`` — :meth:`MPSoC.run`, the interpreter in
  :mod:`repro.cpu`.  It is the oracle: every observable (architectural
  state, signatures, monitor statistics, histograms, telemetry
  counters, checkpoints, capture streams) is defined by it.
* ``fast`` — :class:`repro.engine.fast.FastRunner` over a
  :class:`repro.engine.plan.ProgramPlan`.  Straight-line fetch groups
  are specialized into generated per-PC step code operating on the
  *same live objects*; anything the specialization cannot prove static
  (cache misses, memory-stage traffic, self-modifying code, plan
  misses) deoptimizes to the corresponding reference method mid-cycle.
  The fast tier is bit-identical by construction — it never skips a
  cycle, because SafeDM samples signatures every cycle.

:func:`run_soc` is the engine selector used by
:func:`repro.soc.experiment.run_redundant` and everything above it;
it and the fault injector share :func:`select_tier`.  Every topology
— the monitored pair, extra cores, multiple monitored pairs, scheme
taps — runs the same generated span.  A core whose register file is
the golden recorder's :class:`~repro.cpu.regfile.RecordingRegisterFile`
runs fast too: the generated code appends the same access log.  SoCs
the fast tier does not model (any other register-file subclass,
nonstandard monitor geometry on any monitor) silently fall back to the
reference tier, recording ``fallback_reason``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core import signatures
from ..core.signatures import IsVariant
from ..cpu.regfile import RecordingRegisterFile, RegisterFile

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
#: paths.  ``guard_fail`` (superblock direction-guard side exits served
#: by the block tier) and ``recompile`` events stay outside this set:
#: they cost a dispatch, not a reference-method call.
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
    * ``deopt_reasons`` — per-reason histogram over every side exit,
      including block-tier ones (``guard_fail``) and adaptive
      recompilations (``recompile``) that never touch reference code.

    ``issue_fast``/``issue_ref`` split issued groups by tier;
    ``superblock_links``/``chained_fetches``/``recompilations`` describe
    the superblock trace tier (links formed between compiled blocks,
    fetches served by following a link, and re-specializations after
    repeated guard failures or code-page invalidations).
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

    Structural guards (core shape, register file, debug modes) apply
    to every core and the geometry guards to every monitor, whatever
    the topology: the generated span samples each monitored pair's
    signature units in line.
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
    if signatures.DEBUG_SIGNATURE_CHECKS:
        return "SAFEDM_DEBUG_SIGNATURES structural checks enabled"
    for monitor in soc.monitors:
        cfg = monitor.config
        if cfg.is_variant is not IsVariant.PER_STAGE:
            return "fast tier inlines only the PER_STAGE IS variant"
        if not cfg.sample_every_cycle:
            return "fast tier inlines only every-cycle DS sampling"
        if cfg.num_ports != cores[0].regfile.num_read_ports:
            return "DS ports do not match the register read ports"
        if cfg.pipeline_stages != 7:
            return "monitor geometry does not match the pipeline"
    return None


def select_tier(soc, engine: Optional[str]) -> Tuple[EngineStats, bool]:
    """The tier decision every engine entry point shares.

    Resolves ``engine``, attaches a fresh :class:`EngineStats` as
    ``soc.engine_stats``, and returns it with True when the fast tier
    should run.  A fast request for a SoC the fast tier does not model
    records ``fallback_reason`` and returns False: the caller then
    drives the reference interpreter.  Building the fast tier's
    :class:`ProgramPlan` stays with the caller.
    """
    engine = resolve_engine(engine)
    stats = EngineStats(engine=engine)
    soc.engine_stats = stats
    if engine != "fast":
        return stats, False
    stats.fallback_reason = _fast_supported(soc)
    return stats, stats.fallback_reason is None


def run_soc(soc, engine: str = "reference", program=None,
            max_cycles: int = 2_000_000, checkpoint_every: int = 0,
            on_checkpoint=None):
    """Run ``soc`` to completion under the selected engine.

    Returns ``(cycles_run, EngineStats)`` and stores the stats on the
    SoC as ``soc.engine_stats``.  ``program`` (optional) lets the fast
    tier pre-compile every basic block up front; without it plans are
    built lazily per fetched PC.
    """
    stats, fast = select_tier(soc, engine)
    if fast:
        from .fast import FastRunner

        plan = ProgramPlan.for_soc(soc.memory, soc.cores[0].config,
                                   program)
        runner = FastRunner(soc, plan, stats)
        cycles = runner.run(max_cycles=max_cycles,
                            checkpoint_every=checkpoint_every,
                            on_checkpoint=on_checkpoint)
        stats.blocks_compiled = plan.blocks_compiled
        return cycles, stats
    cycles = soc.run(max_cycles=max_cycles,
                     checkpoint_every=checkpoint_every,
                     on_checkpoint=on_checkpoint)
    return cycles, stats
