"""Multi-pair monitoring on a 4-core platform.

The paper's contribution list integrates SafeDM "in a 4-core multicore
by Cobham Gaisler"; its conclusions motivate "independent cores that
can be used for lockstepped execution opportunistically".  These tests
run two redundant tasks on two monitored pairs simultaneously, each
with its own SafeDM instance on the shared APB bridge.
"""

import pytest

from repro.core import apb_regs
from repro.soc.config import SocConfig
from repro.soc.mpsoc import MPSoC
from repro.workloads import program, workload


def four_core_config():
    return SocConfig(num_cores=4,
                     data_bases=(0x4000_0000, 0x5000_0000,
                                 0x6000_0000, 0x7000_0000))


def make_quad():
    return MPSoC(config=four_core_config(),
                 monitor_pairs=((0, 1), (2, 3)))


class TestConstruction:
    def test_two_monitors_two_slaves(self):
        soc = make_quad()
        assert len(soc.monitors) == 2
        assert soc.safedm is soc.monitors[0]
        assert set(soc.apb.slaves()) == {"safedm0", "safedm1"}

    def test_bad_pair_rejected(self):
        with pytest.raises(ValueError):
            MPSoC(config=four_core_config(),
                  monitor_pairs=((0, 1), (2, 9)))
        with pytest.raises(ValueError):
            MPSoC(monitor_pairs=((0, 1, 2),))


class TestTwoRedundantTasks:
    @pytest.fixture(scope="class")
    def quad_run(self):
        soc = make_quad()
        # Different programs at different text bases, one per pair.
        prog_a = program("bitonic")
        prog_b = program("countnegative", base=0x0003_0000)
        soc.start_redundant(prog_a, pair=0)
        soc.start_redundant(prog_b, pair=1)
        soc.run()
        return soc

    def test_all_four_cores_finish_correct(self, quad_run):
        soc = quad_run
        cfg = soc.config
        expected_a = workload("bitonic").expected_checksum
        expected_b = workload("countnegative").expected_checksum
        assert soc.memory.read(cfg.data_base(0), 8) == expected_a
        assert soc.memory.read(cfg.data_base(1), 8) == expected_a
        assert soc.memory.read(cfg.data_base(2), 8) == expected_b
        assert soc.memory.read(cfg.data_base(3), 8) == expected_b

    def test_monitors_observe_their_own_pairs(self, quad_run):
        soc = quad_run
        stats_a = soc.monitors[0].stats
        stats_b = soc.monitors[1].stats
        assert stats_a.sampled_cycles > 0
        assert stats_b.sampled_cycles > 0
        # Different programs finish at different times: windows differ.
        assert stats_a.sampled_cycles != stats_b.sampled_cycles

    def test_per_pair_apb_readout(self, quad_run):
        soc = quad_run
        base0 = soc._slave_bases[0]
        base1 = soc._slave_bases[1]
        nodiv0 = soc.apb.read(base0 + apb_regs.NODIV)
        nodiv1 = soc.apb.read(base1 + apb_regs.NODIV)
        assert nodiv0 == soc.monitors[0].stats.no_diversity_cycles
        assert nodiv1 == soc.monitors[1].stats.no_diversity_cycles

    def test_cross_pair_contention_vs_isolated_runs(self, quad_run):
        """Four cores share one bus: each task runs slower than it
        would alone on the 2-core platform."""
        alone = MPSoC()
        alone.start_redundant(program("bitonic"))
        alone.run()
        # bitonic's pair in the quad had to share the bus with pair 1.
        assert quad_run.cycle >= alone.cycle


class TestEngineTier:
    """The fast engine on a multi-pair MPSoC is bit-identical to the
    reference interpreter."""

    def _run(self, engine):
        from repro.engine import run_soc
        soc = make_quad()
        soc.start_redundant(program("bitonic"), pair=0)
        soc.start_redundant(program("countnegative", base=0x0003_0000),
                            pair=1)
        cycles, stats = run_soc(soc, engine=engine)
        return soc, cycles, stats

    def test_fast_tier_accepts_multi_pair(self):
        _, _, stats = self._run("fast")
        assert stats.fallback_reason is None
        assert stats.fast_cycles > 0

    def test_fast_bit_identical_to_reference(self):
        ref_soc, ref_cycles, _ = self._run("reference")
        fast_soc, fast_cycles, _ = self._run("fast")
        assert fast_cycles == ref_cycles
        for ref_core, fast_core in zip(ref_soc.cores, fast_soc.cores):
            assert fast_core.regfile.values == ref_core.regfile.values
            assert fast_core.stats.committed == ref_core.stats.committed
        for ref_mon, fast_mon in zip(ref_soc.monitors,
                                     fast_soc.monitors):
            assert fast_mon.stats == ref_mon.stats
            assert (fast_mon.instruction_diff.stats
                    == ref_mon.instruction_diff.stats)
