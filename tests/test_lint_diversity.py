"""Static diversity estimator vs the measured DiversityMonitor.

The contract: on every (kernel, stagger) scenario the preconditions
accept, the per-window and total lower bounds on instruction-diverse
cycles are ≤ what the monitor actually measured.  Simulation is the
oracle, so the validated pairs are kept few but real; the precondition
and bookkeeping paths are covered statically.
"""

import pytest

from repro.isa.assembler import assemble
from repro.lint.diversity import (
    DEFAULT_WINDOW,
    WARMUP_CYCLES,
    DiversityWindow,
    StaticDiversityBound,
    measure_instruction_diversity,
    predict_instruction_diversity,
    refill_budget_per_line,
    validate_bound,
)
from repro.workloads import program

from sim_helpers import live_observed_cycles

BASE = 0x0001_0000

#: (kernel, stagger) scenarios validated against simulation.
VALIDATED = [
    ("countnegative", 2000),
    ("fac", 1200),
    ("countnegative", 600),
]


class TestPreconditions:
    def test_zero_stagger_claims_nothing(self):
        bound = predict_instruction_diversity(program("countnegative"),
                                              stagger=0)
        assert bound.holds
        assert bound.windows == []
        assert bound.total_lower_bound == 0

    def test_nop_in_text_refuses(self):
        prog = assemble("""
_start:
    nop
    ebreak
""", base=BASE)
        bound = predict_instruction_diversity(prog, stagger=2000)
        assert not bound.holds
        assert "nop" in bound.reason

    def test_tiny_stagger_yields_empty_window(self):
        bound = predict_instruction_diversity(program("countnegative"),
                                              stagger=8)
        assert bound.holds
        assert bound.windows == []
        assert bound.total_lower_bound == 0

    def test_horizon_clamps_the_window(self):
        prog = program("countnegative")
        free = predict_instruction_diversity(prog, stagger=2000)
        clamped = predict_instruction_diversity(prog, stagger=2000,
                                                horizon=200)
        assert clamped.window_end == 200
        assert clamped.window_end < free.window_end
        assert clamped.total_lower_bound <= free.total_lower_bound


class TestBoundShape:
    def test_windows_partition_the_span(self):
        bound = predict_instruction_diversity(program("countnegative"),
                                              stagger=2000)
        assert bound.holds and bound.windows
        assert bound.windows[0].start == WARMUP_CYCLES
        assert bound.windows[-1].end == bound.window_end
        for prev, nxt in zip(bound.windows, bound.windows[1:]):
            assert prev.end == nxt.start
            assert prev.length == DEFAULT_WINDOW
        assert bound.refill_budget == \
            bound.text_lines * refill_budget_per_line()

    def test_to_dict_is_json_ready(self):
        import json
        bound = predict_instruction_diversity(program("fac"),
                                              stagger=1200)
        doc = json.loads(json.dumps(bound.to_dict()))
        assert doc["stagger"] == 1200
        assert doc["holds"] is True
        assert len(doc["windows"]) == len(bound.windows)


def test_measured_verdicts_equal_the_live_monitor():
    prog = program("countnegative")
    live = [int(soc.safedm.last_report.instruction_diversity)
            for _, soc, _, _ in live_observed_cycles(prog, 600)]
    assert measure_instruction_diversity(prog, 600) == live


class TestValidatedAgainstSimulation:
    @pytest.mark.parametrize("name,stagger", VALIDATED)
    def test_bound_below_measurement(self, name, stagger):
        prog = program(name)
        verdicts = measure_instruction_diversity(prog, stagger)
        bound = predict_instruction_diversity(
            prog, stagger=stagger, horizon=len(verdicts))
        assert bound.holds, bound.reason
        ok, detail = validate_bound(bound, verdicts)
        assert ok, detail

    def test_large_stagger_bound_is_nontrivial(self):
        prog = program("countnegative")
        verdicts = measure_instruction_diversity(prog, 2000)
        bound = predict_instruction_diversity(
            prog, stagger=2000, horizon=len(verdicts))
        assert bound.total_lower_bound > 0


class TestValidateBound:
    def test_detects_window_violation(self):
        bound = StaticDiversityBound(
            stagger=100, holds=True, reason="", text_words=1,
            text_lines=1, refill_budget=0, window_start=0,
            window_end=4,
            windows=[DiversityWindow(start=0, end=4, lower_bound=3)],
            total_lower_bound=3)
        ok, detail = validate_bound(bound, [1, 1, 0, 0])
        assert not ok
        assert "window" in detail

    def test_detects_total_violation(self):
        bound = StaticDiversityBound(
            stagger=100, holds=True, reason="", text_words=1,
            text_lines=1, refill_budget=0, window_start=0,
            window_end=4, windows=[], total_lower_bound=4)
        ok, detail = validate_bound(bound, [1, 1, 1, 0])
        assert not ok
        assert "total" in detail

    def test_accepts_satisfied_bound(self):
        bound = StaticDiversityBound(
            stagger=100, holds=True, reason="", text_words=1,
            text_lines=1, refill_budget=0, window_start=0,
            window_end=4,
            windows=[DiversityWindow(start=0, end=4, lower_bound=2)],
            total_lower_bound=2)
        ok, _ = validate_bound(bound, [1, 1, 1, 0])
        assert ok
