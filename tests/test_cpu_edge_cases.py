"""CPU edge cases and regression tests."""

from repro.cpu.core import CoreConfig
from repro.soc.config import SocConfig
from repro.mem.cache import CacheConfig

from sim_helpers import run_asm_single

DATA0 = 0x4000_0000


class TestStoreToLoadOrdering:
    def test_load_after_store_same_line(self):
        """A load to a line with a pending buffered store must return
        the stored value (and wait for the drain)."""
        soc = run_asm_single("""
_start:
    li t0, 0xABCD
    sd t0, 64(gp)
    ld t1, 64(gp)      # same line, store still in the buffer
    sd t1, 0(gp)
    ebreak
""")
        assert soc.memory.read(DATA0, 8) == 0xABCD

    def test_burst_then_readback(self):
        source = ["_start:"]
        for i in range(12):
            source.append("    li t0, %d" % (i * 7))
            source.append("    sd t0, %d(gp)" % (64 + 8 * i))
        for i in range(12):
            source.append("    ld t1, %d(gp)" % (64 + 8 * i))
            source.append("    add s0, s0, t1")
        source.append("    sd s0, 0(gp)")
        source.append("    ebreak")
        soc = run_asm_single("\n".join(source))
        assert soc.memory.read(DATA0, 8) == sum(i * 7 for i in range(12))


class TestTinyStoreBuffer:
    def test_depth_one_buffer_still_correct(self):
        cfg = SocConfig(core=CoreConfig(store_buffer_depth=1,
                                        store_buffer_coalesce=False))
        soc = run_asm_single("""
_start:
    li s1, 16
    addi t1, gp, 64
loop:
    sd s1, 0(t1)
    addi t1, t1, 64    # a new line every store: no coalescing possible
    addi s1, s1, -1
    bnez s1, loop
    sd s1, 0(gp)
    ebreak
""", config=cfg, max_cycles=20_000)
        assert soc.cores[0].finished
        assert soc.memory.read(DATA0, 8) == 0
        assert soc.cores[0].store_buffer.stats.full_stalls > 0


class TestJalrEdgeCases:
    def test_target_low_bit_cleared(self):
        """jalr clears bit 0 of the computed target (RISC-V rule)."""
        soc = run_asm_single("""
_start:
    la t0, target
    addi t0, t0, 1     # deliberately odd
    jalr ra, 0(t0)
    ebreak
target:
    li t1, 55
    sd t1, 0(gp)
    ebreak
""")
        assert soc.memory.read(DATA0, 8) == 55

    def test_chained_indirect_calls(self):
        soc = run_asm_single("""
_start:
    la t0, f1
    jalr ra, 0(t0)
    sd a0, 0(gp)
    ebreak
f1:
    addi a0, a0, 1
    la t1, f2
    mv t2, ra
    jalr ra, 0(t1)
    mv ra, t2
    ret
f2:
    addi a0, a0, 10
    ret
""")
        assert soc.memory.read(DATA0, 8) == 11


class TestSquashRegression:
    def test_mispredicted_branch_releases_jalr_fetch_block(self):
        """Regression: a taken branch squashing a speculatively fetched
        jalr used to leave the fetch unit blocked forever."""
        soc = run_asm_single("""
_start:
    li a0, 3
    call fac
    sd a0, 0(gp)
    ebreak
fac:
    li t0, 2
    blt a0, t0, base   # taken on the deepest call: squashes the ret
    addi sp, sp, -16
    sd ra, 8(sp)
    sd a0, 0(sp)
    addi a0, a0, -1
    call fac
    ld t1, 0(sp)
    mul a0, a0, t1
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
base:
    li a0, 1
    ret
""", max_cycles=10_000)
        assert soc.cores[0].finished
        assert soc.memory.read(DATA0, 8) == 6


class TestDivStalls:
    def test_divider_occupies_execute_stage(self):
        """The iterative divider blocks EX: a div loop costs roughly
        div_latency per division compared to an add loop."""
        div_cycles = run_asm_single("""
_start:
    li s1, 40
    li t1, 1000000
loop:
    li t2, 3
    div t1, t1, t2
    div t1, t1, t2
    addi s1, s1, -1
    bnez s1, loop
    ebreak
""", max_cycles=50_000).cycle
        add_cycles = run_asm_single("""
_start:
    li s1, 40
    li t1, 1000000
loop:
    li t2, 3
    add t1, t1, t2
    add t1, t1, t2
    addi s1, s1, -1
    bnez s1, loop
    ebreak
""", max_cycles=50_000).cycle
        # 80 divs at ~20 cycles each dominate the div version.
        assert div_cycles > add_cycles + 80 * 15


class TestEcall:
    def test_ecall_halts_like_ebreak(self):
        soc = run_asm_single("""
_start:
    li t0, 9
    sd t0, 0(gp)
    ecall
    li t0, 77
    sd t0, 0(gp)
""")
        assert soc.cores[0].finished
        assert soc.memory.read(DATA0, 8) == 9


class TestIcachePressure:
    def test_program_larger_than_l1i_still_correct(self):
        cfg = SocConfig(core=CoreConfig(
            l1i=CacheConfig(size=256, line_size=32, ways=1, name="l1i")))
        body = ["_start:", "    li s0, 0"]
        for i in range(200):  # 200 adds: ~800B > 256B L1I
            body.append("    addi s0, s0, %d" % (i % 7))
        body.append("    sd s0, 0(gp)")
        body.append("    ebreak")
        soc = run_asm_single("\n".join(body), config=cfg,
                             max_cycles=100_000)
        assert soc.cores[0].finished
        assert soc.memory.read(DATA0, 8) == sum(i % 7
                                                for i in range(200))
        assert soc.cores[0].icache.stats.misses > 5
