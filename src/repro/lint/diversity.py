"""Static lower bounds on SafeDM instruction-signature divergence.

SafeDM measures diversity *at runtime* by hashing each core's pipeline
stage contents per cycle.  For the staggered-redundancy configuration
(``start_redundant(..., stagger_nops=N)``) much of that divergence is
already determined by program structure: while the late core is still
executing its nop sled, the head core executes kernel words — and a
kernel word can never hash equal to a nop, so almost every sled-phase
cycle is provably instruction-diverse *before simulation*.

The proof obligation is the word "almost".  A zero-IS-diversity cycle
during the sled phase requires the two instruction signatures to be
equal, which (given the preconditions below, and modulo hash
collisions — see Assumptions) requires the **head core's sampled
pipeline content to be empty**: the sled is all ``NOP_WORD`` and the
head image contains none, so any cycle where the head core samples
kernel words differs from anything the late core can show (nops,
empties, or a frozen signature thereof).  Head-empty sample content
can only happen around instruction-cache refills with a fully drained
pipeline — and those are budgeted: a contiguous text image of ``L``
cache lines with no conflict misses refills each line at most once,
each refill stalling at most :func:`refill_budget_per_line` cycles
(worst-case AHB grant + L2 miss + transfer, doubled for contention
with the other core, plus drain/ramp margin).  Every cycle in the
proven sled window beyond the global budget ``L x per_line`` is
therefore instruction-diverse.

Assumptions (each checked or conservative): signature equality of
*different* stage contents (a hash collision) is assumed not to occur
— SafeDM's signatures are exactly the diversity evidence the paper
trusts, and the validation tests compare the bound against measured
monitor output for every tested (kernel, stagger) pair.  All other
ingredients are conservative: the window ends well before the late
core can fetch its first kernel word, and the refill budget is an
over-approximation validated empirically (observed worst per-refill
zero-diversity gaps are under 45 cycles; the budget charges 64).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..isa.opcodes import NOP_WORD
from ..isa.program import Program
from ..soc.config import SocConfig

#: Extra cycles charged per refill for pipeline drain before the stall
#: and re-ramp after it (7 stages x 2-wide, empirically generous).
PIPELINE_MARGIN = 14

#: Cycles excluded at the start of the window (cold-start transient:
#: both pipelines begin empty, which is a legitimate zero-diversity
#: state the budget also covers — the warmup just keeps the window
#: honest about what it claims).
WARMUP_CYCLES = 16

#: Default per-cycle-window chunk (cycles per :class:`DiversityWindow`).
DEFAULT_WINDOW = 256


def refill_budget_per_line(config: Optional[SocConfig] = None) -> int:
    """Worst-case head-core-empty cycles chargeable to one L1I line
    refill: bus grant + L2 lookup + L2 miss + line transfer, doubled
    for worst-case contention with the other core on the shared
    single-outstanding-transaction AHB, plus drain/ramp margin."""
    cfg = config or SocConfig()
    t = cfg.bus_timing
    single = t.grant + t.l2_hit + t.l2_miss + t.transfer
    return 2 * single + PIPELINE_MARGIN


@dataclass(frozen=True)
class DiversityWindow:
    """One cycle window ``[start, end)`` with its proven lower bound on
    instruction-diverse cycles inside it."""

    start: int
    end: int
    lower_bound: int

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass
class StaticDiversityBound:
    """The static estimate for one (image pair, stagger) scenario.

    ``holds`` is False when a precondition fails — the estimator then
    claims nothing (every bound is 0), it never guesses.
    """

    stagger: int
    holds: bool
    reason: str
    #: Analyzed head-image text words (data directives excluded).
    text_words: int
    #: L1I lines the head text occupies.
    text_lines: int
    #: Global head-empty cycle budget (lines x per-line worst case).
    refill_budget: int
    #: The proven sled-phase cycle span ``[window_start, window_end)``.
    window_start: int = 0
    window_end: int = 0
    windows: List[DiversityWindow] = field(default_factory=list)
    #: Proven minimum instruction-diverse cycles over the whole span
    #: (global budget charged once — tighter than summing windows).
    total_lower_bound: int = 0

    def to_dict(self) -> dict:
        return {
            "stagger": self.stagger,
            "holds": self.holds,
            "reason": self.reason,
            "text_words": self.text_words,
            "text_lines": self.text_lines,
            "refill_budget": self.refill_budget,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "total_lower_bound": self.total_lower_bound,
            "windows": [
                {"start": w.start, "end": w.end,
                 "lower_bound": w.lower_bound}
                for w in self.windows],
        }


def _text_words(program: Program) -> List[int]:
    """Fetchable words of ``program`` (data directives excluded)."""
    debug = program.debug
    data = debug.data_addresses if debug else frozenset()
    return [word for pc, word in program.words() if pc not in data]


def predict_instruction_diversity(
        program_a: Program,
        program_b: Optional[Program] = None,
        stagger: int = 0,
        window: int = DEFAULT_WINDOW,
        config: Optional[SocConfig] = None,
        horizon: Optional[int] = None) -> StaticDiversityBound:
    """Per-cycle-window lower bound on SafeDM IS divergence.

    ``program_a`` runs on the head core from cycle 0; the late core
    executes ``stagger`` nops (then ``program_b`` — which never enters
    the proven window, so only its existence matters).  Returns a
    :class:`StaticDiversityBound` whose per-window and total bounds
    are ≤ the measured ``DiversityMonitor`` instruction-diversity
    count on every scenario the preconditions accept
    (``tests/test_lint_diversity.py`` validates this against
    simulation).

    The monitor only samples while *both* cores run, so the claims
    cover monitored cycles.  When the head core's runtime is known,
    pass it as ``horizon`` (monitored cycle count) and the window is
    clamped to it; without a horizon the window assumes the head core
    outlives the sled phase — callers comparing against measurement
    should pass ``horizon=len(verdicts)``.
    """
    cfg = config or SocConfig()
    words = _text_words(program_a)
    line_words = cfg.core.l1i.line_size // 4
    lines = -(-len(words) // line_words) if words else 0
    budget = lines * refill_budget_per_line(cfg)
    bound = StaticDiversityBound(
        stagger=stagger, holds=True, reason="", text_words=len(words),
        text_lines=lines, refill_budget=budget)

    if stagger <= 0:
        # No sled: nothing is claimed (a zero bound is trivially sound).
        bound.reason = "no stagger: empty bound"
        return bound
    if not words:
        bound.holds = False
        bound.reason = "head image has no text"
        return bound
    if NOP_WORD in words:
        bound.holds = False
        bound.reason = ("head image contains the nop encoding: sled "
                        "cycles are not provably diverse")
        return bound
    capacity_lines = cfg.core.l1i.size // cfg.core.l1i.line_size
    if lines > capacity_lines:
        bound.holds = False
        bound.reason = ("head text exceeds L1I capacity (%d > %d "
                        "lines): conflict refills are unbounded"
                        % (lines, capacity_lines))
        return bound

    # The late core must fetch all `stagger` sled words (at most
    # issue_width per cycle) before its jump — and thus any kernel
    # word — can even enter the fetch stage.
    width = max(1, cfg.core.issue_width)
    sled_fetch_cycles = stagger // width
    window_end = sled_fetch_cycles - PIPELINE_MARGIN
    if horizon is not None:
        window_end = min(window_end, horizon)
    window_start = WARMUP_CYCLES
    if window_end <= window_start:
        bound.reason = ("stagger %d too small for a proven window"
                        % stagger)
        return bound

    bound.window_start = window_start
    bound.window_end = window_end
    span = window_end - window_start
    # Per-window bounds must each hold in isolation: the whole global
    # budget could land inside any single window.
    chunk = max(1, window)
    start = window_start
    while start < window_end:
        end = min(start + chunk, window_end)
        bound.windows.append(DiversityWindow(
            start=start, end=end,
            lower_bound=max(0, (end - start) - budget)))
        start = end
    per_window_total = sum(w.lower_bound for w in bound.windows)
    # Globally the budget is charged once across the span.
    bound.total_lower_bound = max(per_window_total,
                                  span - budget, 0)
    return bound


def measure_instruction_diversity(
        program: Program, stagger: int,
        max_cycles: int = 200_000,
        config: Optional[SocConfig] = None) -> List[int]:
    """Measured per-cycle IS-diversity verdicts (0/1) for the
    redundant configuration the estimator models — the validation
    oracle for :func:`predict_instruction_diversity`.

    The run is captured (:func:`repro.soc.experiment.
    run_redundant_captured`) and replayed through SafeDM with
    ``config.signature``, one verdict per cycle the monitor observed:
    it gates off once either monitored core finishes, so
    ``len(verdicts)`` is the monitored span (the natural ``horizon``
    for the estimator).
    """
    from ..replay.engine import ReplayMonitor
    from ..soc.experiment import run_redundant_captured

    _, trace = run_redundant_captured(program, stagger_nops=stagger,
                                      config=config,
                                      max_cycles=max_cycles)
    replay = ReplayMonitor(trace,
                           signature=(config or SocConfig()).signature)
    verdicts: List[int] = []
    for _ in replay.cycles():
        report = replay.monitor.last_report
        verdicts.append(0 if report is None
                        else int(report.instruction_diversity))
    return verdicts


def validate_bound(bound: StaticDiversityBound,
                   verdicts: List[int]) -> Tuple[bool, str]:
    """Check ``bound`` against measured per-cycle verdicts.

    Returns ``(ok, detail)``: ok iff every per-window lower bound and
    the total lower bound are ≤ the measured diverse-cycle counts.
    """
    for w in bound.windows:
        measured = sum(verdicts[w.start:min(w.end, len(verdicts))])
        if w.lower_bound > measured:
            return False, ("window [%d, %d): bound %d > measured %d"
                           % (w.start, w.end, w.lower_bound, measured))
    span = verdicts[bound.window_start:
                    min(bound.window_end, len(verdicts))]
    measured_total = sum(span)
    if bound.total_lower_bound > measured_total:
        return False, ("total: bound %d > measured %d"
                       % (bound.total_lower_bound, measured_total))
    return True, ("total: bound %d <= measured %d"
                  % (bound.total_lower_bound, measured_total))


__all__ = [
    "DEFAULT_WINDOW",
    "DiversityWindow",
    "PIPELINE_MARGIN",
    "StaticDiversityBound",
    "WARMUP_CYCLES",
    "measure_instruction_diversity",
    "predict_instruction_diversity",
    "refill_budget_per_line",
    "validate_bound",
]
