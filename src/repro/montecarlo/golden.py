"""Recording golden run + analytic masked-fault classification.

The scalar campaign path simulates every injected run (forked from a
checkpoint, but still simulated).  Monte-Carlo volumes invert the
economics: at 10^4 trials per kernel, even a cheap fork per trial
dominates, while the *majority* of register-bit faults are provably
masked — the corrupted register is written (or never touched again)
before anything reads it.

:func:`mc_golden_run` performs ONE instrumented fault-free run (the
package's one recording loop,
:func:`~repro.fault.injector.record_golden_run`) that captures, on top
of the checkpoint artifact a scalar campaign forks from:

* a cycle-stamped architectural access log per monitored core —
  ``(3, cycle)`` markers interleaved with the ``(0, r)`` read /
  ``(1, r)`` write entries of
  :class:`~repro.fault.injector._RecordingRegisterFile` — indexed as an
  :class:`AccessIndex`,
* per-cycle ``state_digest``/``_activity_digest`` values for both
  cores, so a common-cause fault's concrete corruption (which is a
  pure function of post-step golden state, see
  :meth:`repro.fault.models.CommonCauseFault.effect_on`) can be
  computed *without* simulating anything,
* SafeDM's per-cycle diversity verdict (what ``after_step`` injection
  would have observed).

:func:`classify_batch` then resolves every trial whose corruption is
provably dead — first access at/after the effective cycle is a write,
or never comes — to the golden outcome analytically; only the
remaining live trials need a forked simulation.  Soundness: every
architectural read goes through ``RegisterFile.read`` (the read-port
taps call it too), so a register with no read between corruption and
death cannot influence outputs, monitor signatures, or timing; the
fault run is bisimilar to the golden run and the scalar fork path
would return exactly the golden tail (``tests/test_montecarlo.py``
asserts field-for-field equality against that path).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..fault.injector import GoldenArtifact, record_golden_run
from ..fault.models import ccf_target
from ..isa.program import Program
from ..isa.registers import NUM_REGISTERS
from ..lint.masking import FRONTIER_HALTED
from ..soc.config import SocConfig
from .batch import (
    CLASS_HANG,
    CLASS_MASKED,
    STATUS_ANALYTIC,
    STATUS_STATIC,
    TrialBatch,
)


class AccessIndex:
    """First-access-at-or-after queries over one core's access log.

    Built from the cycle-stamped log: per register, the (chronological,
    hence sorted) cycles of its architectural accesses plus the access
    kinds.  ``first_access(r, c)`` answers "what happens to register
    ``r`` first, from cycle ``c`` on?" in O(log n).
    """

    __slots__ = ("cycles", "kinds", "end_cycle")

    def __init__(self, log, end_cycle: int):
        self.end_cycle = end_cycle
        self.cycles: Dict[int, List[int]] = {
            r: [] for r in range(1, NUM_REGISTERS)}
        self.kinds: Dict[int, List[int]] = {
            r: [] for r in range(1, NUM_REGISTERS)}
        current = 0
        for kind, value in log:
            if kind == 3:
                current = value
            elif kind < 2:
                self.cycles[value].append(current)
                self.kinds[value].append(kind)

    def first_access(self, register: int,
                     cycle: int) -> Optional[Tuple[int, int]]:
        """``(kind, cycle)`` of the first access to ``register`` at or
        after ``cycle``, or ``None`` if it is never touched again."""
        cycles = self.cycles[register]
        pos = bisect_left(cycles, cycle)
        if pos == len(cycles):
            return None
        return self.kinds[register][pos], cycles[pos]

    def corruption_fate(self, register: int,
                        cycle: int) -> Tuple[bool, int]:
        """``(dead, death_cycle)`` for a corruption of ``register``
        effective from ``cycle``: dead iff its first access is a write
        (death = that cycle) or never comes (death = end of run)."""
        first = self.first_access(register, cycle)
        if first is None:
            return True, self.end_cycle
        kind, at = first
        if kind == 1:
            return True, at
        return False, -1


@dataclass
class McGoldenArtifact:
    """One recorded golden run: the fork substrate plus everything the
    analytic classifier needs.

    ``base`` is the plain fork artifact (snapshots, exemption masks) —
    it alone is shipped to campaign pool workers; the digest columns
    and access indexes stay in the parent, where classification runs.
    The columns are :class:`~repro.fault.injector.GoldenRecording`'s.
    """

    base: GoldenArtifact
    #: Per monitored core: first-access index over its access log.
    access: Tuple[AccessIndex, AccessIndex]
    state_digests: Tuple[List[int], List[int]]
    activity_digests: Tuple[List[int], List[int]]
    diversity: List[int]
    frontier: Tuple[List[int], List[int]]

    @property
    def checksum(self) -> int:
        return self.base.checksum

    @property
    def end_cycle(self) -> int:
        return self.base.end_cycle


def mc_golden_run(program: Program,
                  config: Optional[SocConfig] = None,
                  max_cycles: int = 2_000_000,
                  checkpoint_every: int = 0,
                  benchmark: str = "program",
                  sim_key: str = "",
                  record_ccf: bool = True) -> McGoldenArtifact:
    """The instrumented golden run (see module docstring):
    :func:`~repro.fault.injector.record_golden_run` with its access
    logs indexed for first-access queries."""
    recording = record_golden_run(
        program, config=config, max_cycles=max_cycles,
        checkpoint_every=checkpoint_every, benchmark=benchmark,
        sim_key=sim_key, record_ccf=record_ccf)
    base = recording.base
    return McGoldenArtifact(
        base, tuple(AccessIndex(log, base.end_cycle)
                    for log in recording.logs),
        recording.state_digests, recording.activity_digests,
        recording.diversity, recording.frontier)


# -- analytic CCF effects ------------------------------------------------------

def ccf_effects(artifact: McGoldenArtifact, cycles: List[int],
                stimuli: List[int]
                ) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Concrete per-core corruptions of CCF trials, no simulation:
    :func:`~repro.fault.models.ccf_target` (the arithmetic of
    :meth:`CommonCauseFault.effect_on`) over the recorded digests.
    Returns ``(reg0, bit0, reg1, bit1)``."""
    out: Tuple[List[int], List[int], List[int], List[int]] = (
        [], [], [], [])
    for cycle, stimulus in zip(cycles, stimuli):
        for core in (0, 1):
            register, bit = ccf_target(
                artifact.state_digests[core][cycle],
                artifact.activity_digests[core][cycle], stimulus)
            out[2 * core].append(register)
            out[2 * core + 1].append(bit)
    return out


# -- the classifier ------------------------------------------------------------

def classify_batch(artifact: McGoldenArtifact,
                   batch: TrialBatch,
                   static_filter=None) -> List[int]:
    """Resolve provably-masked trials analytically; return the rest.

    Fills the effect/diversity columns for every trial and the full
    result columns (status ``STATUS_ANALYTIC``) for trials whose
    corruptions are all dead.  Returns the ascending indices of the
    live trials the campaign must actually simulate.

    Effective cycles follow the injection hooks exactly: a transient
    corrupts *before* the step at its fault cycle ``c`` (first
    observable access at cycle >= c), a CCF corrupts on the clock edge
    *ending* cycle ``c`` (first observable access at cycle >= c + 1).

    With a ``static_filter`` (:class:`repro.lint.masking.
    StaticMaskFilter`), a masked trial whose corruptions the static
    masking proofs also cover at their frontier program points gets
    status ``STATUS_STATIC`` instead.  The access log still decides
    every trial and dates its ``death_cycle``: the filter changes a
    status label, never a classification or a live list.
    """
    cols = batch.columns
    base = artifact.base
    cycles = batch.column("cycle")
    live: List[int] = []
    golden_class = CLASS_MASKED if base.finished else CLASS_HANG
    if not base.finished:
        # A truncated golden run cuts every path mid-flight: the
        # static proofs (which quantify over *complete* paths) no
        # longer imply anything about the truncated log — e.g. the
        # result register is read at the truncation point before the
        # write that would have made it dead.  The dynamic log stays
        # exact, so fall back to it alone.
        static_filter = None

    def proven(core: int, cycle: int, register: int) -> bool:
        if static_filter is None:
            return False
        trace = artifact.frontier[core]
        # Past the run's end nothing issues: only the halt-time
        # checksum read remains.
        point = trace[cycle] if cycle < len(trace) else FRONTIER_HALTED
        return static_filter.is_masked(point, register)

    if batch.kind == "ccf":
        reg0, bit0, reg1, bit1 = ccf_effects(
            artifact, cycles, batch.column("stimulus"))
        for i in range(batch.n):
            cols["eff_reg0"][i] = reg0[i]
            cols["eff_bit0"][i] = bit0[i]
            cols["eff_reg1"][i] = reg1[i]
            cols["eff_bit1"][i] = bit1[i]
            cols["diversity"][i] = artifact.diversity[cycles[i]]
            effective = cycles[i] + 1
            dead0, death0 = artifact.access[0].corruption_fate(
                reg0[i], effective)
            dead1, death1 = artifact.access[1].corruption_fate(
                reg1[i], effective)
            if dead0 and dead1:
                static = (proven(0, effective, reg0[i])
                          and proven(1, effective, reg1[i]))
                _fill_analytic(batch, i, base, golden_class,
                               max(death0, death1), static)
            else:
                live.append(i)
        return live

    registers = batch.column("register")
    targets = batch.column("core")
    bits = batch.column("bit")
    for i in range(batch.n):
        cols["eff_reg0"][i] = registers[i]
        cols["eff_bit0"][i] = bits[i]
        dead, death = artifact.access[targets[i]].corruption_fate(
            registers[i], cycles[i])
        if dead:
            _fill_analytic(batch, i, base, golden_class, death,
                           proven(targets[i], cycles[i], registers[i]))
        else:
            live.append(i)
    return live


def _fill_analytic(batch: TrialBatch, i: int, base: GoldenArtifact,
                   classification: int, death_cycle: int,
                   static: bool):
    """Row ``i`` is provably masked: its run is bisimilar to the golden
    run, so every result field is the golden run's."""
    cols = batch.columns
    cols["status"][i] = STATUS_STATIC if static else STATUS_ANALYTIC
    cols["classification"][i] = classification
    cols["no_diversity_cycles"][i] = base.no_diversity_cycles
    cols["finished"][i] = int(base.finished)
    cols["output0"][i] = base.outputs[0]
    cols["output1"][i] = base.outputs[1]
    cols["end_cycle"][i] = base.end_cycle
    cols["death_cycle"][i] = death_cycle
