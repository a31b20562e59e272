"""Fault-injection tests: models, single injections, CCF campaigns."""

import pytest

from repro.baselines.unaware import compare_outputs
from repro.fault.campaign import (
    CampaignResult,
    run_ccf_campaign,
    spread_cycles,
)
from repro.fault.injector import (
    InjectionResult,
    golden_run,
    inject_common_cause,
    inject_transient,
    shared_address_config,
)
from repro.fault.models import CommonCauseFault, FaultEffect, state_digest
from repro.soc.mpsoc import MPSoC
from repro.workloads import program


PROGRAM = "countnegative"  # short, memory-touching kernel


@pytest.fixture(scope="module")
def golden():
    return golden_run(program(PROGRAM))


class TestFaultModels:
    def test_effect_flips_one_bit(self):
        soc = MPSoC()
        soc.start_redundant(program(PROGRAM))
        for _ in range(50):
            soc.step()
        core = soc.cores[0]
        before = core.regfile.values[5]
        FaultEffect(register=5, bit=3).apply(core)
        assert core.regfile.values[5] == before ^ 8

    def test_x0_flip_absorbed(self):
        soc = MPSoC()
        soc.start_redundant(program(PROGRAM))
        core = soc.cores[0]
        FaultEffect(register=0, bit=3).apply(core)
        assert core.regfile.values[0] == 0

    def test_state_digest_tracks_port_activity(self):
        """Once gp-derived values flow through the ports, the cores'
        activity digests differ (private address spaces)."""
        soc = MPSoC()
        soc.start_redundant(program(PROGRAM))
        differed = False
        for _ in range(100):
            soc.step()
            if state_digest(soc.cores[0]) != state_digest(soc.cores[1]):
                differed = True
        assert differed

    def test_state_digest_deterministic(self):
        soc_a = MPSoC()
        soc_a.start_redundant(program(PROGRAM))
        soc_b = MPSoC()
        soc_b.start_redundant(program(PROGRAM))
        for _ in range(100):
            soc_a.step()
            soc_b.step()
        assert state_digest(soc_a.cores[0]) == state_digest(soc_b.cores[0])

    def test_identical_state_identical_effect(self):
        cfg = shared_address_config()
        soc = MPSoC(config=cfg)
        soc.start_redundant(program(PROGRAM))
        # At cycle 0 both cores are in identical (reset+warm) state.
        fault = CommonCauseFault(cycle=0, stimulus=0x1234)
        e0 = fault.effect_on(soc.cores[0])
        e1 = fault.effect_on(soc.cores[1])
        assert e0 == e1


class TestSingleInjection:
    def test_golden_run_deterministic(self, golden):
        assert golden == golden_run(program(PROGRAM))

    def test_transient_detected_or_masked(self, golden):
        result = inject_transient(program(PROGRAM), cycle=2000, core=0,
                                  register=8, bit=17, golden=golden)
        # s0 is the live checksum register: flipping it mid-run must be
        # caught by output comparison (never silent).
        assert result.classification in ("detected", "masked")

    def test_transient_in_dead_register_masked(self, golden):
        result = inject_transient(program(PROGRAM), cycle=12000, core=0,
                                  register=28, bit=2, golden=golden)
        assert result.classification == "masked"

    def test_common_cause_outcomes_accounted(self, golden):
        """Every private-space CCF is masked, detected, or — when it is
        silent — happened in a cycle SafeDM already flagged."""
        for cycle in (500, 3000, 9000):
            result = inject_common_cause(program(PROGRAM), cycle,
                                         stimulus=0xAB, golden=golden)
            if result.classification == "silent_ccf":
                assert result.diversity_at_injection is False
            else:
                assert result.classification in ("masked", "detected")


class TestCampaign:
    def test_spread_cycles(self):
        cycles = spread_cycles(1000, 4, start=10)
        assert len(cycles) == 4
        assert cycles[0] == 10
        assert all(10 <= c <= 1000 for c in cycles)
        assert cycles == sorted(cycles)

    def test_spread_zero_count(self):
        assert spread_cycles(1000, 0) == []

    def test_private_campaign_no_unflagged_escapes(self):
        result = run_ccf_campaign(program(PROGRAM),
                                  spread_cycles(13000, 5))
        assert result.silent_despite_diversity == 0
        assert result.silent_via_shared_state == 0  # disjoint regions

    def test_no_false_negatives_property(self):
        """The paper's central safety claim, on the vulnerable
        (shared-address) deployment: every identical-effect silent
        escape coincides with a SafeDM lack-of-diversity verdict."""
        result = run_ccf_campaign(program(PROGRAM),
                                  spread_cycles(13000, 8),
                                  stimuli=[0x5EED, 0xBEEF],
                                  config=shared_address_config())
        assert result.silent_despite_diversity == 0

    def test_summary_text(self):
        result = run_ccf_campaign(program(PROGRAM), [100])
        assert "injections=1" in result.summary()


def _injection(outputs=(1, 1), finished=True, trapped=False,
               diversity=True, same_effects=True):
    effects = (FaultEffect(3, 7),
               FaultEffect(3, 7) if same_effects else FaultEffect(4, 7))
    return InjectionResult(
        fault_cycle=10, outcome=compare_outputs(*outputs, 1),
        diversity_at_injection=diversity, no_diversity_cycles=0,
        effects=effects, finished=finished, end_cycle=100,
        trapped=trapped)


class TestTally:
    """Every outcome class and cross-check is counted once, by the
    same :class:`InjectionResult` predicates, in both aggregates."""

    MIX = [
        _injection(),                                    # masked
        _injection(outputs=(1, 2)),                      # detected
        _injection(outputs=(5, 5)),                      # despite diversity
        _injection(outputs=(5, 5), same_effects=False),  # shared state
        _injection(outputs=(5, 5), diversity=False),     # flagged
        _injection(finished=False),                      # hang
        _injection(finished=False, trapped=True),        # trap
    ]

    def test_trap_and_hang_are_counted(self):
        from repro.telemetry import MetricsRegistry
        result = CampaignResult(injections=self.MIX[-2:])
        assert result.summary() == (
            "injections=2 masked=0 detected=0 silent_ccf=0 hang=1 trap=1 "
            "silent_despite_diversity=0 silent_via_shared_state=0 "
            "detected_or_flagged=0")
        registry = MetricsRegistry()
        result.to_metrics(registry)
        for classification in ("hang", "trap"):
            assert registry.value(
                "repro_fault_injections_total",
                (("classification", classification),)) == 1

    def test_cross_checks(self):
        result = CampaignResult(injections=self.MIX)
        assert result.counts() == {
            "masked": 1, "detected": 1, "silent_ccf": 3, "hang": 1,
            "trap": 1, "silent_despite_diversity": 1,
            "silent_via_shared_state": 1, "detected_or_flagged": 2}

    def test_batch_sums_the_same_predicates(self):
        from repro.montecarlo import TrialBatch
        batch = TrialBatch("ccf", len(self.MIX), golden_checksum=1)
        for i, injection in enumerate(self.MIX):
            batch.fill_from_result(i, injection)
        assert batch.counts() == CampaignResult(injections=self.MIX).counts()
        assert (batch.silent_despite_diversity,
                batch.silent_via_shared_state,
                batch.detected_or_flagged) == (1, 1, 2)

