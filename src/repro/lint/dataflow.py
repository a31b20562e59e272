"""The lint rules' set domains for :func:`~repro.lint.absint.solve_absint`.

Reaching definitions (forward) and register liveness (backward) are
union-join domains over frozensets.  Unlike
:class:`~repro.lint.absint.MaskingLiveness`, whose ``None`` at an
unreached point means "no proof", both meet every block with at least
the empty set, so every block, reached or not, gets a state.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple, Union

from ..isa.instruction import Instruction
from .absint import ALL_REGISTERS, BACKWARD, FORWARD, AbstractDomain
from .cfg import BasicBlock, ControlFlowGraph

#: Registers the bare-metal runtime initializes before ``_start``
#: (see repro.soc.mpsoc.MPSoC.start_core): x0, sp, gp, tp.
RUNTIME_INITIALIZED = frozenset((0, 2, 3, 4))

#: Synthetic definition site marking a register as never written.
UNINIT = "uninit"

#: Synthetic definition site for runtime-initialized registers.
RUNTIME = "runtime"

#: A reaching definition: ``(site, register)``.
Definition = Tuple[Union[int, str], int]


class ReachingDefinitions(AbstractDomain[FrozenSet[Definition]]):
    """Forward may-reach of ``(site, register)`` definition pairs.

    ``site`` is the defining pc, or :data:`RUNTIME`/:data:`UNINIT` for
    the synthetic pre-``_start`` definitions.  A use whose reaching set
    contains ``(UNINIT, reg)`` may read an uninitialized register.
    """

    direction = FORWARD

    def boundary(self, cfg: ControlFlowGraph) -> FrozenSet[Definition]:
        return frozenset(
            (RUNTIME if reg in RUNTIME_INITIALIZED else UNINIT, reg)
            for reg in range(32))

    def meet_extra(self, cfg: ControlFlowGraph,
                   block: BasicBlock) -> Optional[FrozenSet[Definition]]:
        return frozenset()

    def join(self, a: FrozenSet[Definition],
             b: FrozenSet[Definition]) -> FrozenSet[Definition]:
        return a | b

    def transfer(self, state: FrozenSet[Definition], pc: int,
                 instr: Instruction) -> FrozenSet[Definition]:
        rd = instr.destination()
        if rd is None:
            return state
        definition: Definition = (pc, rd)
        return frozenset(d for d in state if d[1] != rd) | {definition}


class Liveness(AbstractDomain[FrozenSet[int]]):
    """Backward register liveness (x0 excluded: never meaningful).

    A block ending in a statically-unknown indirect jump meets with
    every register: its unknown successor may read any of them.
    """

    direction = BACKWARD

    def boundary(self, cfg: ControlFlowGraph) -> FrozenSet[int]:
        return frozenset()  # after the halt nothing is architecturally live

    def meet_extra(self, cfg: ControlFlowGraph,
                   block: BasicBlock) -> Optional[FrozenSet[int]]:
        if block.has_unknown_target:
            return ALL_REGISTERS
        return frozenset()

    def join(self, a: FrozenSet[int], b: FrozenSet[int]) -> FrozenSet[int]:
        return a | b

    def transfer(self, state: FrozenSet[int], pc: int,
                 instr: Instruction) -> FrozenSet[int]:
        rd = instr.destination()
        if rd is not None:
            state = state - {rd}
        uses = {r for r in instr.sources() if r != 0}
        return state | uses if uses else state
