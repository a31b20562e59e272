"""SoC-level tests: config, loader, MPSoC wiring, APB access."""

import pytest

from repro import workloads
from repro.checkpoint import jsonable
from repro.core import apb_regs
from repro.isa import assemble
from repro.isa.decoder import decode
from repro.mem.memory import Memory
from repro.soc.config import SocConfig
from repro.soc.experiment import run_redundant
from repro.soc.loader import LoaderError, build_nop_sled, load_program
from repro.soc.mpsoc import MPSoC

from sim_helpers import run_asm_redundant


class TestSocConfig:
    def test_default_layout(self):
        cfg = SocConfig()
        assert cfg.num_cores == 2
        assert cfg.data_bases[0] != cfg.data_bases[1]

    def test_stack_top_alignment(self):
        cfg = SocConfig()
        for core in range(2):
            assert cfg.stack_top(core) % 16 == 0
            assert cfg.stack_top(core) > cfg.data_base(core)

    def test_describe_mentions_components(self):
        text = SocConfig().describe()
        assert "NOEL-V" in text
        assert "AHB" in text
        assert "SafeDM" in text
        assert "L2" in text


class TestLoader:
    def test_load_program(self):
        memory = Memory()
        program = assemble("_start:\n nop\n ebreak\n", base=0x1000)
        load_program(memory, program)
        assert memory.read_word(0x1000) == 0x13

    def test_sled_zero_nops_is_direct_entry(self):
        memory = Memory()
        assert build_nop_sled(memory, 0x2000, 0, entry=0x5000) == \
            (0x5000, 0)

    def test_sled_structure(self):
        memory = Memory()
        start, count = build_nop_sled(memory, 0x2000, 3, entry=0x2100)
        assert start == 0x2000
        assert count == 4  # 3 nops + jal
        for i in range(3):
            assert decode(memory.read_word(0x2000 + 4 * i)).is_nop
        jump = decode(memory.read_word(0x200C))
        assert jump.mnemonic == "jal"
        assert 0x200C + jump.imm == 0x2100

    def test_far_sled_uses_lui_jalr(self):
        memory = Memory()
        _, count = build_nop_sled(memory, 0x2000, 1, entry=0x4000_0000)
        assert count == 3  # 1 nop + lui + jalr
        assert decode(memory.read_word(0x2004)).mnemonic == "lui"
        assert decode(memory.read_word(0x2008)).mnemonic == "jalr"

    def test_negative_nops_rejected(self):
        with pytest.raises(LoaderError):
            build_nop_sled(Memory(), 0x2000, -1, entry=0)


class TestMpsocWiring:
    def test_core_initial_registers(self, soc):
        program = assemble("_start:\n ebreak\n",
                           base=soc.config.text_base)
        soc.load(program)
        soc.start_core(0, program.entry)
        core = soc.cores[0]
        assert core.regfile.read(3) == soc.config.data_base(0)   # gp
        assert core.regfile.read(2) == soc.config.stack_top(0)   # sp
        assert core.regfile.read(4) == 0                          # tp

    def test_start_warms_first_line(self, soc):
        program = assemble("_start:\n ebreak\n",
                           base=soc.config.text_base)
        soc.load(program)
        soc.start_core(0, program.entry)
        assert soc.cores[0].icache.probe(program.entry)

    def test_apb_register_access_through_soc(self):
        soc = run_asm_redundant("_start:\n nop\n ebreak\n")
        cycles = soc.apb_read(apb_regs.CYCLES_LO)
        assert cycles > 0
        assert cycles == soc.safedm.stats.sampled_cycles & 0xFFFFFFFF

    def test_describe(self, soc):
        assert "SafeDM" in soc.describe()

    def test_monitor_gated_after_finish(self):
        soc = run_asm_redundant("_start:\n ebreak\n", max_cycles=500)
        sampled = soc.safedm.stats.sampled_cycles
        # Run extra cycles: the monitor must not keep counting.
        for _ in range(50):
            soc.step()
        assert soc.safedm.stats.sampled_cycles == sampled

    def test_snapshot_with_the_old_gate_key_still_loads(self):
        """Snapshots from when monitor gating was an option carry a
        ``gate_monitor_on_finish`` key; they restore all the same."""
        soc = run_asm_redundant("_start:\n ebreak\n", max_cycles=500)
        state = soc.state_dict()
        state["gate_monitor_on_finish"] = True
        restored = MPSoC()
        restored.load_state_dict(state)
        assert jsonable(restored.state_dict()) == jsonable(soc.state_dict())


class TestRedundantStart:
    SRC = """
_start:
    li t0, 5
loop:
    addi t0, t0, -1
    bnez t0, loop
    sd t0, 0(gp)
    ebreak
"""

    def test_both_cores_execute_same_program(self):
        soc = run_asm_redundant(self.SRC)
        cfg = soc.config
        assert soc.memory.read(cfg.data_bases[0], 8) == 0
        assert soc.memory.read(cfg.data_bases[1], 8) == 0
        assert soc.cores[0].stats.committed == \
            soc.cores[1].stats.committed

    def test_staggered_core_commits_extra_sled_instructions(self):
        plain = run_asm_redundant(self.SRC)
        staggered = run_asm_redundant(self.SRC, stagger_nops=50)
        extra = (staggered.cores[1].stats.committed
                 - plain.cores[1].stats.committed)
        assert extra == 52  # 50 nops + lui + jalr (far jump form)

    def test_diff_preload_compensates_sled(self):
        """Program-level staggering nets to zero once both cores have
        run the whole program (reconstructed from total commits, since
        the monitored window ends when the first core finishes)."""
        soc = run_asm_redundant(self.SRC, stagger_nops=50)
        sled = 52
        assert (sled + soc.cores[0].stats.committed
                - soc.cores[1].stats.committed) == 0

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("name,stagger", [("cosf", 0), ("cosf", 100),
                                              ("countnegative", 0)])
    def test_cores_nobody_starts_stay_idle(self, engine, name, stagger):
        """Cores beyond the monitored pair are never started: they stay
        halted, so a wider platform runs the pair exactly as the
        2-core one does."""
        kernel = workloads.program(name)
        two = run_redundant(kernel, benchmark=name, stagger_nops=stagger,
                            engine=engine)
        four = run_redundant(kernel, benchmark=name,
                             stagger_nops=stagger, engine=engine,
                             config=SocConfig(num_cores=4))
        assert four == two
