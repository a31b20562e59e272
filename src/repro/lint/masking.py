"""Static fault-masking proofs from register-lifetime analysis.

PR 7's analytic Monte-Carlo classifier proves a trial masked by
consulting a *recorded* access log: if the first access to the
corrupted register at-or-after the fault cycle is a write (or never
comes), the flip is architecturally dead.  This module proves the same
property *statically*: :class:`MaskingProofs` runs the
:class:`~repro.lint.absint.MaskingLiveness` domain to a fixed point
and exposes, for every (register, program point), whether a bit-flip
landing there is dead on **all** paths — before a single cycle is
simulated.

The bridge to concrete trials is the *frontier* program point: the pc
of the oldest instruction that has **not yet issued** when the fault
strikes (recorded per cycle by :func:`repro.montecarlo.golden.
mc_golden_run`).  In this core model the register file is read and
written only at issue time (``Core._issue`` is the single
``RegisterFile.read`` call site) and wrong-path groups are squashed
before they issue, so every register access after the fault belongs to
an instruction issuing from the frontier onward — i.e. along a CFG
path from the frontier pc.  ``register not live-in at frontier``
therefore implies ``first dynamic access is a write or never comes``:
the static masked set is a subset of the dynamic one
(``tests/test_lint_masking.py`` asserts this over all 29 kernels).

Soundness assumptions, and how violations degrade: indirect jumps with
statically-unknown targets force every register live (no proof past
them, never a wrong proof); returns are resolved to the return sites
of the owning callee's call sites, which is exact for the standard
``jal``/``jalr`` link discipline every kernel and the assembler's
pseudo-ops follow.  Program points outside the CFG (e.g. stagger-sled
addresses) yield no proof and fall back to the dynamic log.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..isa.program import Program
from .absint import (
    ALL_REGISTERS,
    RESULT_REGISTER,
    MaskingLiveness,
    solve_absint,
)
from .cfg import ControlFlowGraph, build_cfg

#: Frontier sentinel: the core is halted (or the run is over) — no
#: instruction will ever issue again; the only remaining architectural
#: read is the halt-time checksum readout of :data:`RESULT_REGISTER`.
FRONTIER_HALTED = -1


class MaskingProofs:
    """Per-point dead-register proofs for one program image.

    ``live_in[pc]`` is the proven may-live set immediately before the
    instruction at ``pc`` issues; pcs of unreachable instructions map
    to ``None`` (no proof either way).
    """

    def __init__(self, program: Program,
                 cfg: Optional[ControlFlowGraph] = None):
        self.program = program
        self.cfg = cfg if cfg is not None else build_cfg(program)
        result = solve_absint(self.cfg, MaskingLiveness(self.cfg))
        self.live_in: Dict[int, Optional[FrozenSet[int]]] = {
            pc: (None if state is None else frozenset(state))
            for pc, state in result.point_states().items()}
        written: set = set()
        for pc, instr in self.cfg.instrs.items():
            rd = instr.destination()
            if rd is not None:
                written.add(rd)
        #: Registers some instruction writes (candidates for windows).
        self.written_registers: FrozenSet[int] = frozenset(written)
        self.annotate()

    def annotate(self, key: str = "masking.dead") -> None:
        """Publish the per-point proven-dead sets onto the program via
        :meth:`repro.isa.program.Program.set_point_metadata`, so tools
        holding only the image can read the proofs back."""
        for pc in self.live_in:
            self.program.set_point_metadata(pc, key,
                                            self.dead_registers(pc))

    # -- point queries -----------------------------------------------------

    def dead_at(self, pc: int, register: int) -> bool:
        """True when a flip of ``register`` just before the instruction
        at ``pc`` issues is proven architecturally dead."""
        if pc == FRONTIER_HALTED:
            return register != RESULT_REGISTER
        live = self.live_in.get(pc)
        if live is None:
            return False
        return register not in live

    def dead_registers(self, pc: int) -> FrozenSet[int]:
        """All registers proven dead at ``pc`` (empty if no proof)."""
        if pc == FRONTIER_HALTED:
            return ALL_REGISTERS - {RESULT_REGISTER}
        live = self.live_in.get(pc)
        if live is None:
            return frozenset()
        return ALL_REGISTERS - live

    # -- window queries ----------------------------------------------------

    def windows(self, register: int) -> List[Tuple[int, int]]:
        """Maximal proven-dead pc intervals for ``register``.

        Each ``(start, end)`` covers the contiguous instruction
        addresses ``start, start+4, ..., end-4`` at every one of which
        the register is proven dead.  Gaps in the image break windows.
        """
        out: List[Tuple[int, int]] = []
        run_start: Optional[int] = None
        prev: Optional[int] = None
        for pc in sorted(self.live_in):
            live = self.live_in[pc]
            dead = live is not None and register not in live
            contiguous = prev is not None and pc == prev + 4
            if dead:
                if run_start is None or not contiguous:
                    if run_start is not None:
                        out.append((run_start, prev + 4))
                    run_start = pc
            elif run_start is not None:
                out.append((run_start, prev + 4))
                run_start = None
            prev = pc
        if run_start is not None and prev is not None:
            out.append((run_start, prev + 4))
        return out

    def dead_point_count(self, register: int) -> int:
        """Number of program points at which ``register`` is proven
        dead (the summary statistic the L013 report and the masking
        benchmark both use)."""
        return sum(1 for live in self.live_in.values()
                   if live is not None and register not in live)

    @property
    def point_count(self) -> int:
        """Total analyzed program points (reachable or not)."""
        return len(self.live_in)

    def coverage(self) -> Dict[int, int]:
        """register -> proven-dead point count, for written registers."""
        return {reg: self.dead_point_count(reg)
                for reg in sorted(self.written_registers)}


class StaticMaskFilter:
    """The Monte-Carlo view of :class:`MaskingProofs`.

    :func:`repro.montecarlo.golden.classify_batch` labels a trial the
    dynamic access log resolves as masked ``STATUS_STATIC`` when its
    frontier point also proves the corrupted register dead here.
    """

    __slots__ = ("proofs",)

    def __init__(self, proofs: MaskingProofs):
        self.proofs = proofs

    @classmethod
    def from_program(cls, program: Program) -> "StaticMaskFilter":
        return cls(MaskingProofs(program))

    def is_masked(self, frontier_pc: int, register: int) -> bool:
        """True when a flip of ``register``, with ``frontier_pc`` as
        the oldest not-yet-issued instruction, is statically dead."""
        return self.proofs.dead_at(frontier_pc, register)


def compute_masking_proofs(program: Program) -> MaskingProofs:
    """Build :class:`MaskingProofs` for ``program``."""
    return MaskingProofs(program)


__all__ = [
    "FRONTIER_HALTED",
    "MaskingProofs",
    "StaticMaskFilter",
    "compute_masking_proofs",
]
