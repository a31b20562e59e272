"""Generic abstract interpretation over the lint control-flow graph.

This module grows the PR 3 dataflow layer into a proper
abstract-interpretation engine:

* :func:`reverse_postorder` — deterministic block ordering (also used
  to seed the classic set-valued solver in :mod:`repro.lint.dataflow`),
* :func:`solve_absint` — a worklist interpreter over the existing
  :class:`~repro.lint.cfg.ControlFlowGraph`, parameterized by an
  :class:`AbstractDomain` (join semilattice with optional widening at
  retreating-edge targets, forward or backward),
* :class:`StridedInterval` / :class:`IntervalDomain` — a constant /
  value-range / alignment domain (Reps-style strided intervals: the
  set ``{lo, lo + stride, ..., hi}`` over unsigned 64-bit values),
* :class:`MaskingLiveness` — the instruction-granular register-lifetime
  domain used by :mod:`repro.lint.masking` to prove fault-masking
  windows.  It differs from the rule-oriented
  :class:`~repro.lint.dataflow.Liveness` in three soundness-critical
  ways: the architectural halt-time checksum read keeps the result
  register live to the exit, blocks ending in a statically-unknown
  indirect jump make *every* register live, and a halt instruction
  also counts the reads of its fall-through word (the dual-issue core
  can pair ``ebreak`` with the next sequential instruction, which then
  issues — and reads — in the same group).

Soundness contract (relied on by ``repro.montecarlo``): an
architectural register read only ever happens when a fetch group
*issues* (``Core._issue`` is the single call site of
``RegisterFile.read``), wrong-path groups are squashed before they
issue, and both edges of every conditional branch are CFG edges — so
every future read from a program point onward lies on a CFG path from
that point, and "not live" here means "dead on all paths".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import (
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from ..isa.instruction import Instruction
from ..isa.registers import RESULT_REGISTER
from .cfg import EXIT, BasicBlock, ControlFlowGraph
from .dataflow import BACKWARD, FORWARD

S = TypeVar("S")

#: Unsigned 64-bit value mask (the architectural register width).
MASK64 = (1 << 64) - 1

#: Every architectural register a fault can target (x0 excluded: a
#: bit-flip there is dead by construction).
ALL_REGISTERS = frozenset(range(1, 32))


# -- deterministic orderings ---------------------------------------------------

def reverse_postorder(cfg: ControlFlowGraph) -> List[BasicBlock]:
    """All blocks in reverse post-order from the entry block.

    Blocks unreachable from the entry are appended in address order so
    the result always covers :meth:`ControlFlowGraph.all_blocks`; the
    virtual exit block sorts wherever the DFS finishes it (or last,
    when unreachable).  The order is a pure function of the CFG edge
    lists, independent of dict iteration order.
    """
    postorder: List[int] = []
    seen: Set[int] = set()
    if cfg.entry in cfg.block_index or (
            cfg.entry_block is not None):
        stack: List[Tuple[int, Iterator[int]]] = [
            (cfg.entry, iter(cfg.block(cfg.entry).succs))]
        seen.add(cfg.entry)
        while stack:
            start, succs = stack[-1]
            advanced = False
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(cfg.block(succ).succs)))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                postorder.append(start)
    order = [cfg.block(start) for start in reversed(postorder)]
    for block in cfg.all_blocks():
        if block.start not in seen:
            order.append(block)
    return order


# -- the domain interface ------------------------------------------------------

class AbstractDomain(Generic[S]):
    """A join-semilattice with a per-instruction transfer function.

    ``None`` is the universal bottom ("point not reached"): the solver
    never calls :meth:`join`/:meth:`widen`/:meth:`transfer` with it.
    """

    direction: str = FORWARD

    def boundary(self, cfg: ControlFlowGraph) -> S:
        """State at the entry (forward) or exit (backward) boundary."""
        raise NotImplementedError

    def meet_extra(self, cfg: ControlFlowGraph,
                   block: BasicBlock) -> Optional[S]:
        """Extra state joined into ``block``'s meet, or ``None``.

        Domains use this to model control flow the CFG cannot express
        — e.g. liveness forcing top at statically-unknown indirect
        jump targets.
        """
        return None

    def join(self, a: S, b: S) -> S:
        raise NotImplementedError

    def widen(self, old: S, new: S) -> S:
        """Widening at retreating-edge targets (defaults to join —
        correct for finite lattices)."""
        return self.join(old, new)

    def transfer(self, state: S, pc: int, instr: Instruction) -> S:
        raise NotImplementedError


class AbsintResult(Generic[S]):
    """Fixed point of one domain over one CFG.

    ``block_meet`` holds the meet-side state per block (the in-state
    for a forward domain, the out-state for a backward one);
    ``block_result`` the opposite side.  ``None`` marks unreached
    blocks.
    """

    def __init__(self, cfg: ControlFlowGraph, domain: AbstractDomain[S],
                 block_meet: Dict[int, Optional[S]],
                 block_result: Dict[int, Optional[S]]):
        self.cfg = cfg
        self.domain = domain
        self.block_meet = block_meet
        self.block_result = block_result
        self._points: Optional[Dict[int, Optional[S]]] = None

    def in_state(self, start: int) -> Optional[S]:
        if self.domain.direction == FORWARD:
            return self.block_meet[start]
        return self.block_result[start]

    def out_state(self, start: int) -> Optional[S]:
        if self.domain.direction == FORWARD:
            return self.block_result[start]
        return self.block_meet[start]

    def states(self, block: BasicBlock) -> Iterator[
            Tuple[int, Instruction, Optional[S]]]:
        """Yield ``(pc, instr, state)`` per instruction, in order.

        Forward domains yield the state *before* each instruction;
        backward domains the state *after* it (mirroring
        :meth:`repro.lint.dataflow.DataflowResult.states`).
        """
        transfer = self.domain.transfer
        state = self.block_meet[block.start]
        if self.domain.direction == FORWARD:
            for pc, instr in block.instrs:
                yield pc, instr, state
                if state is not None:
                    state = transfer(state, pc, instr)
        else:
            for pc, instr in reversed(block.instrs):
                yield pc, instr, state
                if state is not None:
                    state = transfer(state, pc, instr)

    def point_states(self) -> Dict[int, Optional[S]]:
        """pc -> abstract state holding immediately *before* the
        instruction at that pc executes, for every instruction.

        For a backward domain this applies the instruction's own
        transfer (e.g. the live-*in* set, which is what a masking
        proof needs: the instruction at the point may still issue and
        read its sources).
        """
        if self._points is not None:
            return self._points
        transfer = self.domain.transfer
        points: Dict[int, Optional[S]] = {}
        forward = self.domain.direction == FORWARD
        for block in self.cfg.blocks():
            for pc, instr, state in self.states(block):
                if state is None:
                    points[pc] = None
                elif forward:
                    points[pc] = state
                else:
                    points[pc] = transfer(state, pc, instr)
        self._points = points
        return points


def solve_absint(cfg: ControlFlowGraph,
                 domain: AbstractDomain[S]) -> AbsintResult[S]:
    """Run ``domain`` to a (post-widening) fixed point over ``cfg``.

    The worklist is seeded in reverse post-order (post-order for
    backward domains) and widening is applied at the targets of
    retreating edges, so loops converge even on infinite-height
    domains such as :class:`IntervalDomain`.
    """
    forward = domain.direction == FORWARD
    rpo = reverse_postorder(cfg)
    order = rpo if forward else list(reversed(rpo))
    position = {block.start: i for i, block in enumerate(order)}
    by_start = {block.start: block for block in order}

    def meet_edges(block: BasicBlock) -> List[int]:
        return block.preds if forward else block.succs

    def flow_edges(block: BasicBlock) -> List[int]:
        return block.succs if forward else block.preds

    widen_at: Set[int] = set()
    for block in order:
        for succ in flow_edges(block):
            if position[succ] <= position[block.start]:
                widen_at.add(succ)

    meet: Dict[int, Optional[S]] = {b.start: None for b in order}
    result: Dict[int, Optional[S]] = {b.start: None for b in order}
    boundary_start = cfg.entry if forward else EXIT

    worklist = deque(order)
    queued = {block.start for block in order}
    while worklist:
        block = worklist.popleft()
        queued.discard(block.start)

        merged: Optional[S] = None
        if block.start == boundary_start and (
                forward or block.is_exit):
            merged = domain.boundary(cfg)
        extra = domain.meet_extra(cfg, block)
        if extra is not None:
            merged = extra if merged is None else domain.join(merged,
                                                              extra)
        for other in meet_edges(block):
            incoming = result[other]
            if incoming is None:
                continue
            merged = incoming if merged is None else domain.join(
                merged, incoming)
        if merged is not None and block.start in widen_at and \
                meet[block.start] is not None:
            merged = domain.widen(meet[block.start], merged)
        meet[block.start] = merged

        if merged is None:
            out: Optional[S] = None
        else:
            out = merged
            instrs = (block.instrs if forward
                      else list(reversed(block.instrs)))
            for pc, instr in instrs:
                out = domain.transfer(out, pc, instr)
        if out != result[block.start]:
            result[block.start] = out
            for succ in flow_edges(block):
                if succ not in queued:
                    queued.add(succ)
                    worklist.append(by_start[succ])

    return AbsintResult(cfg, domain, meet, result)


# -- the constant / value-range domain -----------------------------------------

@dataclass(frozen=True)
class StridedInterval:
    """The set ``{lo, lo + stride, ..., hi}`` of unsigned 64-bit values.

    Invariants: ``0 <= lo <= hi <= MASK64``; ``stride == 0`` iff
    ``lo == hi`` (a constant); otherwise ``stride`` divides
    ``hi - lo``.
    """

    lo: int
    hi: int
    stride: int

    @staticmethod
    def const(value: int) -> "StridedInterval":
        value &= MASK64
        return StridedInterval(value, value, 0)

    @staticmethod
    def top() -> "StridedInterval":
        return _TOP

    @staticmethod
    def aligned(stride: int) -> "StridedInterval":
        """All multiples of ``stride`` (an alignment-only fact)."""
        hi = (MASK64 // stride) * stride
        return StridedInterval(0, hi, stride)

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    @property
    def is_top(self) -> bool:
        return self.lo == 0 and self.hi == MASK64 and self.stride == 1

    def residue(self, modulus: int) -> Optional[int]:
        """``v % modulus`` when it is the same for every member."""
        if modulus <= 0:
            return None
        if self.is_const:
            return self.lo % modulus
        if self.stride % modulus == 0:
            return self.lo % modulus
        return None

    def join(self, other: "StridedInterval") -> "StridedInterval":
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        stride = gcd(gcd(self.stride, other.stride),
                     abs(self.lo - other.lo))
        return _normalize(lo, hi, stride)

    def widen(self, other: "StridedInterval") -> "StridedInterval":
        """Classic strided widening: escape bounds to the residue-
        aligned extremes, keep the gcd stride (a finite divisor
        chain, so iteration terminates)."""
        joined = self.join(other)
        if joined == self:
            return self
        stride = joined.stride
        if stride == 0:
            return joined
        lo = joined.lo if joined.lo >= self.lo else joined.lo % stride
        hi = (joined.hi if joined.hi <= self.hi
              else lo + ((MASK64 - lo) // stride) * stride)
        return _normalize(lo, hi, stride)

    def add(self, other: "StridedInterval") -> "StridedInterval":
        if self.is_const and other.is_const:
            return StridedInterval.const(self.lo + other.lo)
        lo = self.lo + other.lo
        hi = self.hi + other.hi
        stride = gcd(self.stride, other.stride)
        if hi > MASK64:
            return _wrap_aligned(lo, stride)
        return _normalize(lo, hi, stride)

    def add_const(self, value: int) -> "StridedInterval":
        if self.is_const:
            return StridedInterval.const(self.lo + value)
        lo = self.lo + value
        hi = self.hi + value
        if lo < 0 or hi > MASK64:
            return _wrap_aligned(lo, self.stride)
        return _normalize(lo, hi, self.stride)

    def sub(self, other: "StridedInterval") -> "StridedInterval":
        if self.is_const and other.is_const:
            return StridedInterval.const(self.lo - other.lo)
        lo = self.lo - other.hi
        hi = self.hi - other.lo
        stride = gcd(self.stride, other.stride)
        if lo < 0 or hi > MASK64:
            return _wrap_aligned(self.lo - other.lo, stride)
        return _normalize(lo, hi, stride)

    def shift_left(self, amount: int) -> "StridedInterval":
        if amount < 0 or amount > 63:
            return _TOP
        hi = self.hi << amount
        if hi > MASK64:
            return _TOP
        return _normalize(self.lo << amount, hi,
                          self.stride << amount)

    def signed_range(self) -> Optional[Tuple[int, int]]:
        """The set's ``[min, max]`` under two's-complement reading,
        or ``None`` when it straddles the sign boundary."""
        half = 1 << 63
        if self.hi < half:
            return self.lo, self.hi
        if self.lo >= half:
            return self.lo - (1 << 64), self.hi - (1 << 64)
        return None

    def never_equals(self, other: "StridedInterval") -> bool:
        """True when the two sets are provably disjoint."""
        if self.hi < other.lo or other.hi < self.lo:
            return True
        stride = gcd(self.stride, other.stride)
        return stride > 0 and (self.lo - other.lo) % stride != 0


def _normalize(lo: int, hi: int, stride: int) -> StridedInterval:
    if lo == hi:
        return StridedInterval(lo, hi, 0)
    if stride == 0:
        stride = hi - lo
    return StridedInterval(lo, hi, stride)


def _wrap_aligned(residue_base: int, stride: int) -> StridedInterval:
    """Overflow fallback: the result set wrapped mod ``2**64``, so only
    congruences modulo a power of two survive (``2**k`` divides
    ``2**64``; odd stride factors do not).  Keep the largest one."""
    power = stride & -stride  # largest power-of-two divisor
    if power <= 1:
        return _TOP
    residue = residue_base % power
    hi = residue + ((MASK64 - residue) // power) * power
    return _normalize(residue, hi, power)


_TOP = StridedInterval(0, MASK64, 1)

#: Interval-domain state: register -> interval.  Registers absent from
#: the mapping are unconstrained (top); x0 is pinned to the constant 0
#: by the transfer function, never stored.
IntervalState = Dict[int, StridedInterval]


def _interval_of(state: IntervalState, reg: Optional[int]
                 ) -> StridedInterval:
    if reg is None or reg == 0:
        return StridedInterval.const(0)
    return state.get(reg, _TOP)


class IntervalDomain(AbstractDomain[IntervalState]):
    """Forward strided-interval propagation.

    Constant folding reuses the simulator's own ALU
    (:func:`repro.cpu.exec_unit.execute_alu`) whenever every source is
    a proven constant, so the abstract semantics cannot drift from the
    concrete ones.  Non-constant flow handles the address-arithmetic
    shapes the rules need (add/sub/shift keep bounds and alignment);
    everything else falls to top.
    """

    direction = FORWARD

    #: Alignment of the runtime-initialized base registers: sp is
    #: 16-byte aligned (kernels move it in multiples of 16), gp is the
    #: 4 KiB-aligned per-core data base.  Only the *alignment* is
    #: assumed — the concrete values are config-dependent.
    BASE_ALIGNMENT = {2: 16, 3: 4096}

    def boundary(self, cfg: ControlFlowGraph) -> IntervalState:
        state: IntervalState = {}
        for reg, align in self.BASE_ALIGNMENT.items():
            state[reg] = StridedInterval.aligned(align)
        # tp holds the core id: a small non-negative integer.
        state[4] = StridedInterval(0, 255, 1)
        return state

    def join(self, a: IntervalState, b: IntervalState) -> IntervalState:
        out: IntervalState = {}
        for reg in a.keys() & b.keys():
            joined = a[reg].join(b[reg])
            if not joined.is_top:
                out[reg] = joined
        return out

    def widen(self, old: IntervalState,
              new: IntervalState) -> IntervalState:
        out: IntervalState = {}
        for reg in old.keys() & new.keys():
            widened = old[reg].widen(new[reg])
            if not widened.is_top:
                out[reg] = widened
        return out

    def transfer(self, state: IntervalState, pc: int,
                 instr: Instruction) -> IntervalState:
        rd = instr.destination()
        if rd is None:
            return state
        value = self._evaluate(state, pc, instr)
        out = dict(state)
        if value is None or value.is_top:
            out.pop(rd, None)
        else:
            out[rd] = value
        return out

    def _evaluate(self, state: IntervalState, pc: int,
                  instr: Instruction) -> Optional[StridedInterval]:
        mnemonic = instr.mnemonic
        iclass = instr.iclass
        if iclass == "jump":
            return StridedInterval.const(pc + 4)  # the link value
        if mnemonic == "lui":
            return StridedInterval.const(instr.imm)
        if mnemonic == "auipc":
            return StridedInterval.const(pc + instr.imm)
        if iclass in ("load", "store", "branch", "system"):
            return None
        rs1 = _interval_of(state, instr.rs1)
        rs2 = _interval_of(state, instr.rs2)
        if rs1.is_const and (instr.rs2 is None or rs2.is_const):
            from ..cpu.exec_unit import execute_alu
            return StridedInterval.const(
                execute_alu(instr, rs1.lo, rs2.lo))
        if mnemonic in ("addi", "addiw"):
            value = rs1.add_const(instr.imm)
            return value if mnemonic == "addi" else _narrow32(value)
        if mnemonic in ("add", "addw"):
            value = rs1.add(rs2)
            return value if mnemonic == "add" else _narrow32(value)
        if mnemonic in ("sub", "subw"):
            value = rs1.sub(rs2)
            return value if mnemonic == "sub" else _narrow32(value)
        if mnemonic in ("slli", "slliw"):
            value = rs1.shift_left(instr.imm & 0x3F)
            return value if mnemonic == "slli" else _narrow32(value)
        return None

    @staticmethod
    def branch_decision(state: IntervalState,
                        instr: Instruction) -> Optional[bool]:
        """``True``/``False`` when the branch direction is proven,
        ``None`` when undecidable from the intervals."""
        rs1 = _interval_of(state, instr.rs1)
        rs2 = _interval_of(state, instr.rs2)
        if rs1.is_const and rs2.is_const:
            from ..cpu.exec_unit import branch_taken
            return branch_taken(instr, rs1.lo, rs2.lo)
        mnemonic = instr.mnemonic
        if mnemonic == "beq" and rs1.never_equals(rs2):
            return False
        if mnemonic == "bne" and rs1.never_equals(rs2):
            return True
        if mnemonic in ("bltu", "bgeu"):
            if rs1.hi < rs2.lo:
                return mnemonic == "bltu"
            if rs1.lo >= rs2.hi and rs2.is_const:
                return mnemonic == "bgeu"
        if mnemonic in ("blt", "bge"):
            a = rs1.signed_range()
            b = rs2.signed_range()
            if a is not None and b is not None:
                if a[1] < b[0]:
                    return mnemonic == "blt"
                if a[0] >= b[1] and b[0] == b[1]:
                    return mnemonic == "bge"
        return None


def _narrow32(value: StridedInterval) -> StridedInterval:
    """Model the RV64 ``*w`` 32-bit narrowing conservatively."""
    if value.is_const:
        lo = value.lo & 0xFFFFFFFF
        if lo >= 1 << 31:
            lo = (lo - (1 << 32)) & MASK64
        return StridedInterval.const(lo)
    if value.hi < 1 << 31:
        return value
    return _TOP


# -- the register-lifetime (masking) domain ------------------------------------

class MaskingLiveness(AbstractDomain[frozenset]):
    """Sound may-read liveness for fault-masking proofs.

    A register *not* in the fixed-point live set at a point is dead on
    **every** CFG path from that point: no instruction issuing from
    that point on reads it before overwriting it, and the halt-time
    checksum readout (which reads :data:`RESULT_REGISTER`) is modeled
    by the exit boundary.  See the module docstring for the full
    argument.
    """

    direction = BACKWARD

    def __init__(self, cfg: ControlFlowGraph):
        self._cfg = cfg

    def boundary(self, cfg: ControlFlowGraph) -> frozenset:
        return frozenset((RESULT_REGISTER,))

    def meet_extra(self, cfg: ControlFlowGraph,
                   block: BasicBlock) -> Optional[frozenset]:
        # A statically-unknown indirect jump may land anywhere: every
        # register must be assumed readable past it.
        if block.has_unknown_target:
            return ALL_REGISTERS
        return None

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer(self, state: frozenset, pc: int,
                 instr: Instruction) -> frozenset:
        rd = instr.destination()
        if rd is not None:
            state = state - {rd}
        uses = {reg for reg in instr.sources() if reg != 0}
        if instr.mnemonic in ("ebreak", "ecall"):
            # The dual-issue front end may pair the halt with the next
            # sequential word; that slot issues (and reads) in the
            # same group before the truncation takes effect.
            paired = self._cfg.instrs.get(pc + 4)
            if paired is not None:
                uses |= {reg for reg in paired.sources() if reg != 0}
        return state | uses if uses else state


__all__ = [
    "ALL_REGISTERS",
    "AbsintResult",
    "AbstractDomain",
    "IntervalDomain",
    "MASK64",
    "MaskingLiveness",
    "RESULT_REGISTER",
    "StridedInterval",
    "reverse_postorder",
    "solve_absint",
]
