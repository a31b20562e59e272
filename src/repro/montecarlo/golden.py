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

#: Knuth's multiplicative-hash constant — MUST stay equal to the one in
#: :meth:`repro.fault.models.CommonCauseFault.effect_on`; the analytic
#: effect computation reproduces that arithmetic bit-for-bit.
GOLDEN_RATIO_32 = 0x9E3779B1

try:  # pragma: no cover - exercised via both backends in tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


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
                stimuli: List[int], backend: str = "python"
                ) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Concrete per-core corruptions of CCF trials, no simulation.

    Reproduces :meth:`CommonCauseFault.effect_on` from the recorded
    digests: ``mixed = ((state ^ activity) * K + stimulus) & 2^32-1``,
    register ``1 + mixed % 31``, bit ``(mixed >> 8) % 64``.  The numpy
    path vectorizes the mixing in uint64 (no intermediate exceeds
    2^64 for 32-bit digests and stimuli, so the arithmetic is exact);
    the fallback runs the same integer ops per trial.  Returns
    ``(reg0, bit0, reg1, bit1)`` as plain lists.
    """
    if backend == "numpy" and _np is not None:
        c = _np.asarray(cycles, dtype=_np.int64)
        s = _np.asarray(stimuli, dtype=_np.uint64)
        out = []
        for core in (0, 1):
            state = _np.asarray(artifact.state_digests[core],
                                dtype=_np.uint64)[c]
            activity = _np.asarray(artifact.activity_digests[core],
                                   dtype=_np.uint64)[c]
            mixed = ((state ^ activity) * _np.uint64(GOLDEN_RATIO_32)
                     + s) & _np.uint64(0xFFFFFFFF)
            reg = _np.uint64(1) + mixed % _np.uint64(31)
            bit = (mixed >> _np.uint64(8)) % _np.uint64(64)
            out.append([int(v) for v in reg.tolist()])
            out.append([int(v) for v in bit.tolist()])
        return tuple(out)
    out = ([], [], [], [])
    for cycle, stimulus in zip(cycles, stimuli):
        for core in (0, 1):
            state = artifact.state_digests[core][cycle]
            activity = artifact.activity_digests[core][cycle]
            mixed = (((state ^ activity) * GOLDEN_RATIO_32 + stimulus)
                     & 0xFFFFFFFF)
            out[2 * core].append(1 + (mixed % 31))
            out[2 * core + 1].append((mixed >> 8) % 64)
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
    StaticMaskFilter`), each trial is first checked against the static
    masking proofs at its frontier program point: a statically-proven
    trial resolves to the golden outcome with status ``STATUS_STATIC``
    *without consulting the access log at all* (its ``death_cycle``
    stays -1: the proof is path-universal, not cycle-dated).  The
    static masked set is a subset of the dynamic one
    (``tests/test_lint_masking.py``), so this changes which status a
    trial gets, never its classification.
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

    def frontier_at(core: int, cycle: int) -> int:
        trace = artifact.frontier[core]
        if cycle >= len(trace):
            # The run is over: nothing issues after the last step, so
            # only the halt-time checksum read remains.
            return FRONTIER_HALTED
        return trace[cycle]

    if batch.kind == "ccf":
        stimuli = batch.column("stimulus")
        reg0, bit0, reg1, bit1 = ccf_effects(
            artifact, cycles, stimuli, backend=batch.backend)
        for i in range(batch.n):
            cols["eff_reg0"][i] = reg0[i]
            cols["eff_bit0"][i] = bit0[i]
            cols["eff_reg1"][i] = reg1[i]
            cols["eff_bit1"][i] = bit1[i]
            cols["diversity"][i] = artifact.diversity[cycles[i]]
        effective = [c + 1 for c in cycles]
        for i in range(batch.n):
            if (static_filter is not None
                    and static_filter.is_masked(
                        frontier_at(0, effective[i]), reg0[i])
                    and static_filter.is_masked(
                        frontier_at(1, effective[i]), reg1[i])):
                _fill_analytic(batch, i, base, golden_class, -1,
                               status=STATUS_STATIC)
                continue
            fate0 = artifact.access[0].corruption_fate(reg0[i],
                                                       effective[i])
            fate1 = artifact.access[1].corruption_fate(reg1[i],
                                                       effective[i])
            if fate0[0] and fate1[0]:
                _fill_analytic(batch, i, base, golden_class,
                               max(fate0[1], fate1[1]))
            else:
                live.append(i)
        return live

    registers = batch.column("register")
    targets = batch.column("core")
    bits = batch.column("bit")
    for i in range(batch.n):
        cols["eff_reg0"][i] = registers[i]
        cols["eff_bit0"][i] = bits[i]
        if (static_filter is not None
                and static_filter.is_masked(
                    frontier_at(targets[i], cycles[i]), registers[i])):
            _fill_analytic(batch, i, base, golden_class, -1,
                           status=STATUS_STATIC)
            continue
        dead, death = artifact.access[targets[i]].corruption_fate(
            registers[i], cycles[i])
        if dead:
            _fill_analytic(batch, i, base, golden_class, death)
        else:
            live.append(i)
    return live


def _fill_analytic(batch: TrialBatch, i: int, base: GoldenArtifact,
                   classification: int, death_cycle: int,
                   status: int = STATUS_ANALYTIC):
    """Row ``i`` is provably masked: its run is bisimilar to the golden
    run, so every result field is the golden run's."""
    cols = batch.columns
    cols["status"][i] = status
    cols["classification"][i] = classification
    cols["no_diversity_cycles"][i] = base.no_diversity_cycles
    cols["finished"][i] = int(base.finished)
    cols["output0"][i] = base.outputs[0]
    cols["output1"][i] = base.outputs[1]
    cols["end_cycle"][i] = base.end_cycle
    cols["death_cycle"][i] = death_cycle
