"""Static analysis over the RV64 assembly kernels.

Public API:

* :func:`lint_workload` / :func:`lint_source` / :func:`lint_program` —
  run every registered rule, returning a :class:`LintReport`
* :class:`ControlFlowGraph` / :func:`build_cfg` — basic blocks + edges
* :func:`solve_absint` — the one fixed-point solver, over the rules'
  set domains :class:`ReachingDefinitions` / :class:`Liveness`,
  :class:`IntervalDomain` (strided intervals) and
  :class:`MaskingLiveness` (instruction-granular register lifetimes)
* :class:`MaskingProofs` / :class:`StaticMaskFilter` — static
  fault-masking proofs and the Monte-Carlo status labels built on them
* :func:`predict_instruction_diversity` — static lower bounds on
  SafeDM instruction-signature divergence for staggered redundancy
* :data:`RULES` / :func:`all_rules` — the diagnostic registry

See DESIGN.md's "Static analysis" section for the rule table.
"""

from .absint import (
    AbsintResult,
    AbstractDomain,
    IntervalDomain,
    MaskingLiveness,
    StridedInterval,
    reverse_postorder,
    solve_absint,
)
from .cfg import EXIT, BasicBlock, ControlFlowGraph, build_cfg
from .dataflow import Liveness, ReachingDefinitions
from .diagnostics import (
    ERROR,
    INFO,
    RULES,
    WARNING,
    Diagnostic,
    Rule,
    all_rules,
)
from .diversity import (
    StaticDiversityBound,
    measure_instruction_diversity,
    predict_instruction_diversity,
    validate_bound,
)
from .engine import (
    LintContext,
    LintReport,
    lint_program,
    lint_source,
    lint_workload,
    parse_suppressions,
)
from .masking import (
    FRONTIER_HALTED,
    MaskingProofs,
    StaticMaskFilter,
    compute_masking_proofs,
)
from . import rules as _rules  # noqa: F401  (registers L001-L013)

__all__ = [
    "AbsintResult",
    "AbstractDomain",
    "BasicBlock",
    "ControlFlowGraph",
    "Diagnostic",
    "ERROR",
    "EXIT",
    "FRONTIER_HALTED",
    "INFO",
    "IntervalDomain",
    "LintContext",
    "LintReport",
    "Liveness",
    "MaskingLiveness",
    "MaskingProofs",
    "ReachingDefinitions",
    "RULES",
    "Rule",
    "StaticDiversityBound",
    "StaticMaskFilter",
    "StridedInterval",
    "WARNING",
    "all_rules",
    "build_cfg",
    "compute_masking_proofs",
    "lint_program",
    "lint_source",
    "lint_workload",
    "measure_instruction_diversity",
    "parse_suppressions",
    "predict_instruction_diversity",
    "reverse_postorder",
    "solve_absint",
    "validate_bound",
]
