"""Cross-module integration tests.

These exercise the claims that emerge only from the full platform:
natural divergence, the staggering-decay trend, the IS-variant
difference, monitor non-intrusiveness, and host-side APB control of a
live run.
"""

import pytest

from repro.core import apb_regs
from repro.core.monitor import ReportingMode
from repro.core.signatures import IsVariant, SignatureConfig
from repro.soc.config import SocConfig
from repro.soc.experiment import run_redundant
from repro.soc.mpsoc import MPSoC
from repro.workloads import program

from sim_helpers import run_workload_cached


class TestNaturalDivergence:
    """Section V-C: serialization on shared resources breaks alignment."""

    def test_zero_stagger_run_still_mostly_diverse(self):
        run = run_workload_cached("countnegative")
        assert run["no_diversity"] < 0.05 * run["sampled"]

    def test_bus_contention_occurs(self):
        soc = MPSoC()
        soc.start_redundant(program("countnegative"))
        soc.run()
        assert soc.bus.stats.contended_grants > 0

    def test_alu_dense_kernel_has_most_no_diversity(self):
        """cubic (mul/div-chain Newton solver) shows the largest lack
        of diversity, like the paper's Table I."""
        cubic = run_workload_cached("cubic")
        others = [run_workload_cached(n)
                  for n in ("bitonic", "countnegative", "iir")]
        assert all(cubic["no_diversity"] > o["no_diversity"] * 5
                   for o in others)


class TestStaggeringDecay:
    """The Table I trend on selected benchmarks."""

    @pytest.mark.parametrize("name", ["countnegative", "bitonic"])
    def test_stagger_10000_vanishes(self, name):
        staggered = run_workload_cached(name, stagger_nops=10000)
        assert staggered["finished"]
        assert staggered["zero_staggering"] == 0
        assert staggered["no_diversity"] == 0

    def test_decay_across_stagger_values(self):
        base = run_workload_cached("countnegative", 0)
        s100 = run_workload_cached("countnegative", 100)
        s10000 = run_workload_cached("countnegative", 10000)
        assert s10000["no_diversity"] <= s100["no_diversity"] \
            <= base["no_diversity"]

    def test_staggered_results_still_correct(self):
        run = run_workload_cached("bitonic", stagger_nops=1000)
        assert run["checksum0"] == run["checksum1"] == run["expected"]


class TestIsVariantDifference:
    """III-B.2: the per-stage IS is strictly stronger than the
    in-flight fallback."""

    def _run(self, variant):
        cfg = SocConfig(signature=SignatureConfig(is_variant=variant))
        return run_redundant(program("cubic"), benchmark="cubic",
                             config=cfg)

    def test_fallback_reports_at_least_as_many_instr_matches(self):
        per_stage = self._run(IsVariant.PER_STAGE)
        inflight = self._run(IsVariant.INFLIGHT)
        assert inflight.no_instruction_diversity_cycles >= \
            per_stage.no_instruction_diversity_cycles
        assert inflight.no_diversity_cycles >= \
            per_stage.no_diversity_cycles


class TestNonIntrusiveness:
    """SafeDM 'quantifies diversity ... without interfering with
    execution': the monitored run is cycle-identical to an unmonitored
    one."""

    def test_monitor_does_not_change_timing(self):
        monitored = MPSoC()
        monitored.start_redundant(program("countnegative"))
        monitored.run()

        unmonitored = MPSoC()
        unmonitored.safedm.enabled = False
        unmonitored.start_redundant(program("countnegative"))
        unmonitored.run()

        assert monitored.cycle == unmonitored.cycle
        for index in (0, 1):
            assert monitored.cores[index].stats.committed == \
                unmonitored.cores[index].stats.committed


class TestHostControlViaApb:
    """The testbench role: program SafeDM over APB mid-run."""

    def test_reprogram_mode_during_run(self):
        soc = MPSoC()
        soc.start_redundant(program("cubic"))
        # switch to threshold mode with a low threshold via APB
        soc.apb_write(apb_regs.CTRL, 0b101)
        soc.apb_write(apb_regs.THRESHOLD, 10)
        soc.run()
        assert soc.safedm.mode is ReportingMode.INTERRUPT_THRESHOLD
        assert soc.apb_read(apb_regs.STATUS) & 1  # irq pending
        assert soc.safedm.stats.interrupts_raised == 1
        # counters visible over APB match internal state
        assert soc.apb_read(apb_regs.NODIV) == \
            soc.safedm.stats.no_diversity_cycles

    def test_histogram_readout_after_run(self):
        soc = MPSoC(history_bin_size=8, history_bins=16)
        soc.start_redundant(program("cubic"))
        soc.run()
        total = 0
        for index in range(16):
            soc.apb_write(apb_regs.HIST_SEL, (2 << 8) | index)
            total += soc.apb_read(apb_regs.HIST_DATA)
        hist = soc.safedm.history.histograms["no_diversity"]
        assert total == hist.episodes
        assert hist.total_cycles == soc.safedm.stats.no_diversity_cycles


class TestSharedTextPrivateData:
    """Both cores run one text image with private data: the address-
    space diversity source of Section V-C."""

    def test_data_written_to_both_regions(self):
        soc = MPSoC()
        soc.start_redundant(program("bitonic"))
        soc.run()
        cfg = soc.config
        arr0 = soc.memory.read_blob(cfg.data_bases[0] + 64, 64 * 8)
        arr1 = soc.memory.read_blob(cfg.data_bases[1] + 64, 64 * 8)
        assert arr0 == arr1            # same computation
        assert cfg.data_bases[0] != cfg.data_bases[1]

    def test_interrupt_first_mode_end_to_end(self):
        soc = MPSoC(mode=ReportingMode.INTERRUPT_FIRST)
        fired = []
        soc.safedm.irq.subscribe(fired.append)
        soc.start_redundant(program("cubic"))
        soc.run()
        assert len(fired) == 1  # raised once, held pending
