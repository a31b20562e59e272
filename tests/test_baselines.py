"""Baseline-technique tests: lockstep, SafeDE, software staggering."""

import dataclasses

import pytest

from repro.baselines.safede import SafeDeEnforcer, run_with_enforcement
from repro.baselines.sw_stagger import (
    SoftwareStaggerer,
    run_with_sw_staggering,
)
from repro.baselines.unaware import compare_outputs
from repro.schemes.lockstep import LockstepComparator
from repro.soc.mpsoc import MPSoC
from repro.workloads import program


class TestLockstep:
    def test_matching_streams_no_error(self):
        cmp_ = LockstepComparator(stagger=2)
        stream = [(0x13,), (0x33, 0x13), (), (0x67,)]
        for cycle, commits in enumerate(stream):
            cmp_.sample(cycle, commits, ())
        for cycle, commits in enumerate(stream, start=len(stream)):
            # shadow delivers the same stream two cycles later
            cmp_.sample(cycle, (), stream[cycle - len(stream)])
        assert not cmp_.error_detected
        assert cmp_.stats.compared > 0

    def test_diverging_stream_detected(self):
        cmp_ = LockstepComparator(stagger=1)
        cmp_.sample(0, (0x13,), ())
        cmp_.sample(1, (), (0x33,))  # shadow differs
        assert cmp_.error_detected
        assert cmp_.stats.first_mismatch_cycle == 1

    def test_stagger_must_be_positive(self):
        with pytest.raises(ValueError):
            LockstepComparator(stagger=0)

    def test_describe_is_fig1(self):
        text = LockstepComparator().describe()
        assert "shadow core" in text
        assert "compare" in text

    def test_stagger_one_full_stream(self):
        """Minimum staggering: shadow runs exactly one cycle behind."""
        cmp_ = LockstepComparator(stagger=1)
        stream = [(0x13,), (0x33, 0x13), (), (0x67,), (0x93,)]
        cmp_.sample(0, stream[0], ())
        for cycle in range(1, len(stream)):
            cmp_.sample(cycle, stream[cycle], stream[cycle - 1])
        cmp_.sample(len(stream), (), stream[-1])
        cmp_.flush(len(stream))
        assert not cmp_.error_detected
        assert cmp_.stats.compared == sum(len(c) for c in stream)

    def test_head_finishes_before_shadow(self):
        """The head drains while the shadow is still committing: the
        tail commits meet in the flush, not in live sampling."""
        cmp_ = LockstepComparator(stagger=3)
        stream = [(0x13,), (0x33,), (0x67,)]
        for cycle, commits in enumerate(stream):
            cmp_.sample(cycle, commits, ())
        # Head is done; shadow delivers everything afterwards.
        for cycle, commits in enumerate(stream, start=len(stream)):
            cmp_.sample(cycle, (), commits)
        cmp_.flush(2 * len(stream))
        assert not cmp_.error_detected
        assert cmp_.stats.compared == len(stream)

    def test_mismatch_on_final_commit_caught_by_flush(self):
        """A divergence in the very last commit sits in the delay FIFO
        when the cores halt — only the flush can surface it."""
        cmp_ = LockstepComparator(stagger=2)
        cmp_.sample(0, (0x13,), ())
        cmp_.sample(1, (0x67,), (0x13,))
        cmp_.sample(2, (), (0xBAD,))  # shadow's final commit differs
        assert not cmp_.error_detected  # head's 0x67 still delayed
        cmp_.flush(3)
        assert cmp_.error_detected
        assert cmp_.stats.mismatches == 1
        assert cmp_.stats.first_mismatch_cycle == 3

    def test_flush_counts_stream_imbalance_as_mismatch(self):
        """Replicas committing different instruction counts is itself
        a detected divergence."""
        cmp_ = LockstepComparator(stagger=1)
        cmp_.sample(0, (0x13, 0x33), ())
        cmp_.sample(1, (), (0x13,))  # shadow commits one fewer
        cmp_.flush(2)
        assert cmp_.error_detected
        assert cmp_.stats.mismatches == 1

    def test_equivalence_predicate_tolerates_delta(self):
        delta = 0x1000_0000
        cmp_ = LockstepComparator(
            stagger=1,
            equivalent=lambda a, b: b - a == delta)
        cmp_.sample(0, (0x4000_0000,), ())
        cmp_.sample(1, (), (0x5000_0000,))
        cmp_.flush(2)
        assert not cmp_.error_detected


class TestSafeDeEnforcer:
    def test_stalls_until_threshold(self):
        enforcer = SafeDeEnforcer(threshold=3)
        assert enforcer.sample(1, 0) is True   # diff 1 < 3
        assert enforcer.sample(1, 0) is True   # diff 2 < 3
        assert enforcer.sample(1, 0) is False  # diff 3 >= 3
        assert enforcer.stats.stall_cycles == 2

    def test_trail_catching_up_restalls(self):
        enforcer = SafeDeEnforcer(threshold=2)
        enforcer.sample(2, 0)
        assert enforcer.sample(0, 1) is True  # diff back to 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            SafeDeEnforcer(threshold=0)

    def test_intrusiveness_metric(self):
        enforcer = SafeDeEnforcer(threshold=5)
        for _ in range(10):
            enforcer.sample(0, 0)
        assert enforcer.stats.intrusiveness == 1.0


class TestSafeDeOnSoc:
    def test_enforcement_maintains_staggering(self):
        soc = MPSoC()
        soc.start_redundant(program("countnegative"))
        enforcer = run_with_enforcement(soc, threshold=20)
        assert all(soc.cores[i].finished for i in soc.monitored)
        # After warm-up the trail core never gets within the threshold.
        assert soc.safedm.instruction_diff.stats.zero_staggering_cycles \
            <= enforcer.stats.cycles * 0.01
        assert enforcer.stats.stall_cycles > 0

    def test_enforcement_is_intrusive(self):
        """SafeDE slows the run down relative to free-running SafeDM."""
        free = MPSoC()
        free.start_redundant(program("countnegative"))
        free.run()
        enforced = MPSoC()
        enforced.start_redundant(program("countnegative"))
        run_with_enforcement(enforced, threshold=200)
        assert enforced.cycle > free.cycle

    def test_outputs_still_correct_under_enforcement(self):
        soc = MPSoC()
        soc.start_redundant(program("countnegative"))
        run_with_enforcement(soc, threshold=20)
        from repro.workloads import workload
        expected = workload("countnegative").expected_checksum
        assert soc.memory.read(soc.config.data_bases[0], 8) == expected
        assert soc.memory.read(soc.config.data_bases[1], 8) == expected

    def test_pinned_countnegative_run(self):
        """Stats, end cycle and SafeDM's residual verdicts of one
        enforced run, as the per-baseline loop produced them."""
        soc = MPSoC()
        soc.start_redundant(program("countnegative"))
        enforcer = run_with_enforcement(soc, threshold=20)
        assert dataclasses.asdict(enforcer.stats) == {
            "cycles": 13727, "stall_cycles": 166,
            "min_observed_stagger": 0}
        assert soc.cycle == 13727
        assert soc.safedm.stats.no_diversity_cycles == 1


class TestSoftwareStaggerer:
    def test_checkpoint_granularity(self):
        staggerer = SoftwareStaggerer(threshold=10, check_interval=5)
        # Trail progresses freely for a full check interval before the
        # software monitor notices and holds it.
        stalls_before_checkpoint = 0
        for _ in range(4):
            stalls_before_checkpoint += staggerer.sample(0, 1)
        assert stalls_before_checkpoint == 0  # not yet checked
        assert staggerer.sample(0, 1) is True  # 5th commit: checkpoint
        assert staggerer.stats.checkpoints == 1
        assert staggerer.stats.stall_cycles == 1

    def test_spin_wait_until_lag_restored(self):
        staggerer = SoftwareStaggerer(threshold=3, check_interval=1)
        staggerer.sample(0, 1)  # checkpoint: diff -1 < 3 -> hold
        assert staggerer._holding
        assert staggerer.sample(2, 0) is True   # diff 1, still waiting
        assert staggerer.sample(2, 0) is False  # diff 3: released

    def test_on_soc(self):
        soc = MPSoC()
        soc.start_redundant(program("countnegative"))
        staggerer = run_with_sw_staggering(soc, threshold=50,
                                           check_interval=100)
        assert all(soc.cores[i].finished for i in soc.monitored)
        assert staggerer.stats.checkpoints > 0

    def test_pinned_countnegative_run(self):
        """Stats, end cycle and SafeDM's residual verdicts of one
        software-staggered run, as the per-baseline loop produced
        them."""
        soc = MPSoC()
        soc.start_redundant(program("countnegative"))
        staggerer = run_with_sw_staggering(soc, threshold=50,
                                           check_interval=100)
        assert dataclasses.asdict(staggerer.stats) == {
            "cycles": 13784, "stall_cycles": 113, "checkpoints": 123}
        assert soc.cycle == 13784
        assert soc.safedm.stats.no_diversity_cycles == 44


class TestUnawareRedundancy:
    def test_correct_outputs(self):
        outcome = compare_outputs(5, 5, 5)
        assert outcome.correct and not outcome.detected
        assert not outcome.silent_failure

    def test_detected_mismatch(self):
        outcome = compare_outputs(5, 6, 5)
        assert outcome.detected and not outcome.correct

    def test_silent_failure_is_the_ccf_escape(self):
        outcome = compare_outputs(7, 7, 5)
        assert outcome.silent_failure
        assert not outcome.detected
