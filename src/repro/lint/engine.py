"""Lint driver: build the CFG, solve the domains, run rules, filter.

Suppression: a source line may carry ``# lint: disable=L002`` (or a
comma-separated list of codes) to silence findings attributed to that
line.  Suppressed findings are counted, never silently dropped, so the
report (and the ``repro_lint_suppressed_total`` counter) keeps them
visible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..isa.program import Program
from .absint import AbsintResult, IntervalDomain, solve_absint
from .cfg import ControlFlowGraph, build_cfg
from .dataflow import Definition, Liveness, ReachingDefinitions
from .diagnostics import ERROR, Diagnostic, all_rules, severity_rank

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Z0-9,\s]+)")


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """1-based line number -> set of suppressed rule codes."""
    suppressions: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            codes = {c.strip() for c in match.group(1).split(",")}
            suppressions[lineno] = {c for c in codes if c}
    return suppressions


class LintContext:
    """Everything a rule check may consult, computed once per program."""

    def __init__(self, program: Program, cfg: ControlFlowGraph,
                 prove_masking: bool = False):
        self.program = program
        self.cfg = cfg
        self.debug = program.debug
        self.prove_masking = prove_masking
        self.reachable = cfg.reachable()
        self.reaching: AbsintResult[FrozenSet[Definition]] = solve_absint(
            cfg, ReachingDefinitions())
        self.liveness: AbsintResult[FrozenSet[int]] = solve_absint(
            cfg, Liveness())
        self.intervals: AbsintResult = solve_absint(cfg, IntervalDomain())
        self._interval_points = self.intervals.point_states()
        self._masking = None
        self._branch_decisions: Optional[Dict[int, bool]] = None

    def reachable_blocks(self):
        """Reachable non-exit blocks in address order."""
        return [b for b in self.cfg.blocks() if b.start in self.reachable]

    @property
    def masking(self):
        """Fault-masking proofs, built on first use (L013 only)."""
        if self._masking is None:
            from .masking import MaskingProofs
            self._masking = MaskingProofs(self.program, self.cfg)
        return self._masking

    def interval_before(self, pc: int):
        """Interval state just before ``pc`` (None when unreachable)."""
        return self._interval_points.get(pc)

    def branch_decisions(self) -> Dict[int, bool]:
        """pc -> proven taken/not-taken for reachable branch
        terminators whose direction the interval domain decides."""
        if self._branch_decisions is None:
            decisions: Dict[int, bool] = {}
            for block in self.reachable_blocks():
                term = block.terminator
                if term is None:
                    continue
                pc, instr = term
                if instr.spec.iclass != "branch":
                    continue
                state = self.interval_before(pc)
                if state is None:
                    continue
                verdict = IntervalDomain.branch_decision(state, instr)
                if verdict is not None:
                    decisions[pc] = verdict
            self._branch_decisions = decisions
        return self._branch_decisions

    def dead_edges(self) -> Set[Tuple[int, int]]:
        """CFG edges ``(block_start, succ_start)`` proven never taken.

        A decided branch kills exactly one outgoing edge: the taken
        edge when the decision is "never taken", the fall-through edge
        when "always taken" (unless both edges land on the same block).
        """
        dead: Set[Tuple[int, int]] = set()
        for pc, taken in self.branch_decisions().items():
            block = None
            for b in self.cfg.blocks():
                if b.start <= pc < b.end:
                    block = b
                    break
            if block is None:
                continue
            fallthrough = pc + 4
            _, term_instr = block.terminator
            target = pc + term_instr.imm  # branch: pc-relative target
            if target == fallthrough:
                continue
            dead_succ = fallthrough if taken else target
            if dead_succ in block.succs:
                dead.add((block.start, dead_succ))
        return dead


@dataclass
class LintReport:
    """All findings for one program, post-suppression."""

    name: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    suppressed: List[Diagnostic] = field(default_factory=list)
    block_count: int = 0
    instr_count: int = 0

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity != ERROR]

    @property
    def ok(self) -> bool:
        """True when no error-severity findings remain."""
        return not self.errors

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "blocks": self.block_count,
            "instructions": self.instr_count,
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "suppressed": [d.to_dict() for d in self.suppressed],
        }


def lint_program(program: Program, name: str = "<program>",
                 source: Optional[str] = None,
                 prove_masking: bool = False) -> LintReport:
    """Run every registered rule over ``program``.

    ``source`` (the assembly text the image came from) enables
    ``# lint: disable=CODE`` suppression comments; line attribution
    itself comes from the image's :class:`~repro.isa.program.DebugInfo`.
    ``prove_masking`` additionally runs the fault-masking prover and
    emits the informational L013 dead-window report.
    """
    cfg = build_cfg(program)
    ctx = LintContext(program, cfg, prove_masking=prove_masking)
    line_map = ctx.debug.line_map if ctx.debug else {}
    suppressions = parse_suppressions(source) if source else {}

    kept: List[Diagnostic] = []
    suppressed: List[Diagnostic] = []
    for rule in all_rules():
        for diag in rule.check(ctx, rule):
            lineno = line_map.get(diag.pc) if diag.pc is not None else None
            if lineno is not None and diag.lineno is None:
                diag = Diagnostic(code=diag.code, severity=diag.severity,
                                  message=diag.message, pc=diag.pc,
                                  lineno=lineno)
            if diag.code in suppressions.get(diag.lineno, ()):
                suppressed.append(diag)
            else:
                kept.append(diag)

    kept.sort(key=lambda d: (-severity_rank(d.severity),
                             d.pc if d.pc is not None else -1,
                             d.code))
    return LintReport(name=name, diagnostics=kept, suppressed=suppressed,
                      block_count=len(cfg.blocks()),
                      instr_count=len(cfg.instrs))


def lint_source(source: str, base: int = 0x0001_0000,
                name: str = "<source>",
                prove_masking: bool = False) -> LintReport:
    """Assemble ``source`` and lint the resulting image."""
    from ..isa.assembler import assemble
    program = assemble(source, base=base)
    return lint_program(program, name=name, source=source,
                        prove_masking=prove_masking)


def lint_workload(name: str, prove_masking: bool = False) -> LintReport:
    """Lint one registered TACLe kernel by name."""
    from ..workloads.registry import REGISTRY
    workload = REGISTRY.get(name)
    return lint_program(REGISTRY.program(name), name=name,
                        source=workload.source,
                        prove_masking=prove_masking)
