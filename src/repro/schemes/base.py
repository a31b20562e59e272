"""The :class:`RedundancyScheme` protocol and shared machinery.

A scheme owns everything the platform used to hard-code for one DCLS
pair: replica topology (how many cores, which monitored pairs, which
cores' completion ends the run), program start semantics, per-cycle
check taps registered on the SoC, the end-of-run verdict, and a
hardware-cost model for the comparison table.

One scheme instance drives **one run** — per-run checker state (stream
comparators, voters, sled skip counts) lives on the instance and is
reset by :meth:`RedundancyScheme.build`.

Cross-replica record comparison
-------------------------------

Replicas execute in *different address spaces* (per-core ``gp``/``sp``
regions — the paper's software-redundancy setup), so register writes
holding data addresses differ between replicas by exactly the region
delta.  Per-commit records are compared with a delta-tolerant
equivalence: two records match when their instruction words and write
samples are equal, or when the written values differ by precisely the
replicas' data-region delta (an address-typed value).  Any other value
divergence — corrupted data, a different instruction stream — is a
mismatch.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from ..core.monitor import ReportingMode
from ..core.overheads import BASELINE_MPSOC_LUTS, estimate
from ..isa.registers import RESULT_REGISTER
from ..soc.config import SocConfig
from ..soc.mpsoc import MPSoC
from .spec import SCHEME_KINDS, SchemeSpec

_XMASK = 0xFFFFFFFFFFFFFFFF

#: Modelled per-core area (LUTs).  The paper gives SafeDM = 3.4 % of
#: the dual-core MPSoC; we attribute 35 % of that MPSoC to each NOEL-V
#: core and the remaining 30 % to the uncore (bus, L2, memory
#: controller, APB) — coarse, but stated, and identical across schemes
#: so the *relative* costs are meaningful.
CORE_LUTS = round(BASELINE_MPSOC_LUTS * 0.35)
UNCORE_LUTS = BASELINE_MPSOC_LUTS - 2 * CORE_LUTS

#: Checker logic (LUTs): a delayed commit-stream comparator (DCLS) and
#: a 3-way majority voter (TMR).  Small relative to a core, in line
#: with published lockstep wrappers.
COMPARATOR_LUTS = 650
VOTER_LUTS = 980


def commit_records(core) -> Tuple[Tuple[int, int, int], ...]:
    """This cycle's per-commit records of ``core``.

    One record per committed instruction, in commit order:
    ``(instruction word, write-port enable, written value)``.  Both
    execution tiers maintain ``committed_words`` and slot-indexed
    ``write_samples`` identically (reference ``Core._retire`` /
    fast-tier ``_make_retire``), so records are tier-independent.
    Returns ``()`` for a finished core — its stale lists are not
    re-cleared by the platform loop.
    """
    n = core.commits_this_cycle
    if not n:
        return ()
    words = core.committed_words
    writes = core.regfile.write_samples
    return tuple((words[i],) + writes[i] for i in range(n))


def delta_equivalence(delta: int):
    """Record equivalence tolerating one data-region address delta.

    Returns ``None`` (plain equality) when ``delta`` is zero.
    """
    delta &= _XMASK
    if not delta:
        return None

    def equivalent(a, b, delta=delta, _XMASK=_XMASK):
        return (a[0] == b[0] and a[1] == b[1]
                and (a[2] == b[2] or ((b[2] - a[2]) & _XMASK) == delta))

    return equivalent


class RedundancyScheme:
    """Base class: the single interface every scheme implements.

    Subclasses override the topology (:meth:`num_cores`,
    :meth:`monitor_pairs`, :meth:`watched`), the start procedure, the
    per-cycle tap (registered in :meth:`attach`), and the verdict
    surface (:meth:`error_detected`, :meth:`detection_cycle`,
    :meth:`result`).
    """

    kind = "base"

    def __init__(self, spec: SchemeSpec):
        self.spec = spec

    # -- topology ------------------------------------------------------

    def num_cores(self) -> int:
        return 2

    def monitor_pairs(self) -> Tuple[Tuple[int, int], ...]:
        return ((0, 1),)

    def watched(self) -> Tuple[int, ...]:
        """Core ids whose completion ends the run."""
        return tuple(dict.fromkeys(
            idx for pair in self.monitor_pairs() for idx in pair))

    # -- configuration / construction ---------------------------------

    def soc_config(self, config: Optional[SocConfig] = None) -> SocConfig:
        """Resolve a platform config for this scheme.

        Embeds the spec (so the simulation cache key distinguishes
        schemes) and widens ``num_cores`` to the replica count; the
        per-core data bases derive automatically when left at their
        default.
        """
        base = config if config is not None else SocConfig()
        changes: Dict[str, object] = {"scheme": self.spec}
        need = self.num_cores()
        if base.num_cores < need:
            changes["num_cores"] = need
        return dataclasses.replace(base, **changes)

    def build(self, config: Optional[SocConfig] = None,
              mode: ReportingMode = ReportingMode.POLLING,
              threshold: int = 1, rr_start: int = 0) -> MPSoC:
        """Fresh SoC with this scheme's topology and taps attached."""
        self.reset()
        soc = MPSoC(config=self.soc_config(config), mode=mode,
                    threshold=threshold, rr_start=rr_start,
                    monitor_pairs=self.monitor_pairs())
        self.attach(soc)
        return soc

    def reset(self):
        """Drop per-run checker state (called by :meth:`build`)."""

    def attach(self, soc: MPSoC):
        """Register scheme taps and the watched-core override."""
        soc.watched_cores = self.watched()

    # -- lifecycle -----------------------------------------------------

    def start(self, soc: MPSoC, program, stagger_nops: int = 0,
              late_core: int = 1, benchmark: str = "program"):
        """Load and start the replicas (default: the DCLS-pair path).

        ``benchmark`` names the kernel in the workload registry; only
        schemes that rebuild the program (DME) consult it.
        """
        soc.start_redundant(program, late_core=late_core,
                            stagger_nops=stagger_nops)

    def plan_program(self, program):
        """Program handed to the fast tier for eager block compilation
        (``None`` when replicas run distinct images)."""
        return program

    def finish(self, soc: MPSoC):
        """Drain delay lines / deliver pending comparisons."""

    # -- verdicts ------------------------------------------------------

    def outputs(self, soc: MPSoC) -> Tuple[int, ...]:
        """Per-replica architectural outputs (the checksum register)."""
        return tuple(soc.cores[idx].regfile.values[RESULT_REGISTER]
                     for idx in self.watched())

    def error_detected(self, soc: MPSoC) -> bool:
        """Did this scheme's checker raise?  Default: end-of-run
        output comparison across the replicas."""
        outs = self.outputs(soc)
        return any(out != outs[0] for out in outs[1:])

    def corrected(self, soc: MPSoC) -> bool:
        """Did the scheme mask the error itself (TMR only)?"""
        return False

    def checker_detected(self, soc: MPSoC) -> bool:
        """Did a *streaming* checker raise mid-run?  Unlike
        :meth:`error_detected` this is meaningful before the replicas
        finish — a hung replica can still be a detected error when the
        comparator/voter flagged the divergence first."""
        return False

    def voted_output(self, soc: MPSoC) -> Optional[int]:
        """The scheme's delivered output (first replica unless voted)."""
        return self.outputs(soc)[0]

    def detection_cycle(self, soc: MPSoC) -> int:
        """Cycle of first detection (-1 when nothing was detected).
        Output-comparison schemes detect at end of run."""
        return soc.cycle if self.error_detected(soc) else -1

    def result(self, soc: MPSoC) -> dict:
        """Scheme-specific stats for ``RunResult.scheme_stats``."""
        return {
            "kind": self.kind,
            "replicas": len(self.watched()),
            "outputs": list(self.outputs(soc)),
            "detected": self.error_detected(soc),
        }

    # -- snapshot protocol --------------------------------------------

    def state_dict(self) -> dict:
        return {"kind": self.kind}

    def load_state_dict(self, state: dict):
        if state.get("kind") != self.kind:
            raise ValueError("scheme snapshot kind %r != %r"
                             % (state.get("kind"), self.kind))

    # -- telemetry -----------------------------------------------------

    def to_metrics(self, registry, soc: MPSoC):
        """Publish ``repro_scheme_*`` counters for one finished run."""
        if not getattr(registry, "enabled", True):
            return
        labels = (("scheme", self.kind),)
        registry.counter("repro_scheme_runs_total", labels).inc()
        registry.counter("repro_scheme_replicas_total",
                         labels).inc(len(self.watched()))
        if self.error_detected(soc):
            registry.counter("repro_scheme_detections_total",
                             labels).inc()

    # -- hardware cost -------------------------------------------------

    def checker_luts(self) -> int:
        """Scheme-specific checker logic (comparator/voter/monitors)."""
        return 0

    def hardware_cost(self) -> dict:
        """Modelled area of this scheme's platform (see module doc)."""
        cores = self.num_cores()
        checker = self.checker_luts()
        total = cores * CORE_LUTS + UNCORE_LUTS + checker
        return {
            "cores": cores,
            "core_luts": cores * CORE_LUTS,
            "checker_luts": checker,
            "total_luts": total,
            "overhead_vs_dual_percent": round(
                100.0 * (total - BASELINE_MPSOC_LUTS)
                / BASELINE_MPSOC_LUTS, 2),
        }


def monitor_luts(count: int = 1) -> int:
    """Area of ``count`` SafeDM instances at the paper's geometry."""
    return count * estimate().luts


def build_scheme(spec) -> RedundancyScheme:
    """Instantiate the scheme a spec (or kind name, or ready instance)
    describes."""
    if isinstance(spec, RedundancyScheme):
        return spec
    if isinstance(spec, str):
        spec = SchemeSpec(kind=spec)
    if not isinstance(spec, SchemeSpec):
        raise TypeError("expected a scheme kind, SchemeSpec, or"
                        " RedundancyScheme, got %r" % (spec,))
    from .safedm import SafeDMPair
    from .lockstep import LockstepPair
    from .tmr import TMRGroup
    from .multipair import MultiPair
    from .dme import DMEPair
    classes = {
        "safedm": SafeDMPair,
        "lockstep": LockstepPair,
        "tmr": TMRGroup,
        "multipair": MultiPair,
        "dme": DMEPair,
    }
    assert set(classes) == set(SCHEME_KINDS)
    return classes[spec.kind](spec)
