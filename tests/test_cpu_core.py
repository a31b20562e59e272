"""Core model tests: architectural correctness and timing behaviour."""

import pytest

from repro.core.signatures import inflight_from_stage_words

from sim_helpers import run_asm_single

DATA0 = 0x4000_0000


def result_of(source, offset=0, **kwargs):
    soc = run_asm_single(source, **kwargs)
    assert soc.cores[0].finished, "program did not finish"
    return soc.memory.read(DATA0 + offset, 8)


class TestArchitecturalExecution:
    def test_arithmetic_chain(self):
        assert result_of("""
_start:
    li t0, 10
    li t1, 32
    add t2, t0, t1
    sd t2, 0(gp)
    ebreak
""") == 42

    def test_memory_round_trip(self):
        assert result_of("""
_start:
    li t0, 0x1234
    sd t0, 32(gp)
    ld t1, 32(gp)
    addi t1, t1, 1
    sd t1, 0(gp)
    ebreak
""") == 0x1235

    def test_subword_accesses(self):
        assert result_of("""
_start:
    li t0, -1
    sb t0, 32(gp)
    lbu t1, 32(gp)   # 0xFF
    lb t2, 32(gp)    # -1
    add t3, t1, t2   # 0xFE
    sd t3, 0(gp)
    ebreak
""") == 0xFE

    def test_loop_sum(self):
        # sum 1..100 = 5050
        assert result_of("""
_start:
    li t0, 100
    li t1, 0
loop:
    add t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    sd t1, 0(gp)
    ebreak
""") == 5050

    def test_function_call(self):
        assert result_of("""
_start:
    li a0, 6
    call square
    sd a0, 0(gp)
    ebreak
square:
    mul a0, a0, a0
    ret
""") == 36

    def test_recursion_uses_stack(self):
        # sum(5) via recursion = 15
        assert result_of("""
_start:
    li a0, 5
    call rsum
    sd a0, 0(gp)
    ebreak
rsum:
    beqz a0, base
    addi sp, sp, -16
    sd ra, 8(sp)
    sd a0, 0(sp)
    addi a0, a0, -1
    call rsum
    ld t0, 0(sp)
    add a0, a0, t0
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
base:
    ret
""") == 15

    def test_gp_points_to_private_data(self):
        soc = run_asm_single("_start:\n sd gp, 0(gp)\n ebreak\n")
        assert soc.memory.read(DATA0, 8) == DATA0

    def test_fence_is_neutral(self):
        assert result_of("""
_start:
    li t0, 7
    fence
    sd t0, 0(gp)
    ebreak
""") == 7

    def test_taken_and_not_taken_branches(self):
        assert result_of("""
_start:
    li t0, 1
    li t1, 0
    beqz t0, wrong      # not taken
    addi t1, t1, 1
    bnez t0, right      # taken
wrong:
    addi t1, t1, 100
right:
    sd t1, 0(gp)
    ebreak
""") == 1


class TestTimingBehaviour:
    def test_dual_issue_faster_than_single(self):
        """Independent instruction pairs should dual-issue."""
        source = """
_start:
    li s1, 500
loop:
    add t0, t0, t1
    add t2, t2, t3
    add t4, t4, t5
    add t5, t5, t6
    addi s1, s1, -1
    bnez s1, loop
    ebreak
"""
        soc = run_asm_single(source)
        core = soc.cores[0]
        assert core.stats.dual_issued_groups > 500
        assert core.stats.ipc > 1.0

    def test_dependent_mul_chain_limits_ipc(self):
        """A dependent multiply chain exposes the 3-cycle mul latency."""
        source = """
_start:
    li s1, 500
    li t0, 3
loop:
    mul t0, t0, t0
    mul t0, t0, t0
    mul t0, t0, t0
    mul t0, t0, t0
    addi s1, s1, -1
    bnez s1, loop
    ebreak
"""
        soc = run_asm_single(source, max_cycles=50_000)
        assert soc.cores[0].stats.ipc < 1.0

    def test_div_slower_than_mul(self):
        def run(op):
            return run_asm_single("""
_start:
    li s1, 100
    li t1, 7
    li t2, 3
loop:
    %s t0, t1, t2
    addi s1, s1, -1
    bnez s1, loop
    ebreak
""" % op).cycle
        assert run("div") > run("mul") + 500

    def test_cold_cache_load_stalls(self):
        """A load missing L1D must take many more cycles than a hit."""
        soc = run_asm_single("""
_start:
    ld t0, 64(gp)    # cold miss
    ld t1, 64(gp)    # hit (same line, now filled)
    ebreak
""")
        # Both loads correct; miss handling accounted.
        assert soc.cores[0].stats.dmem_wait_cycles > 10

    def test_branch_mispredict_counted(self):
        soc = run_asm_single("""
_start:
    li s1, 50
loop:
    addi s1, s1, -1
    bnez s1, loop
    ebreak
""")
        core = soc.cores[0]
        # The loop back-branch mispredicts at least at cold start and
        # at exit.
        assert core.stats.branch_mispredicts >= 2
        assert core.predictor.predictions > 0

    def test_store_buffer_absorbs_stores(self):
        soc = run_asm_single("""
_start:
    li s1, 8
    addi t1, gp, 64
loop:
    sd s1, 0(t1)
    addi t1, t1, 8
    addi s1, s1, -1
    bnez s1, loop
    ebreak
""", max_cycles=10_000)
        assert soc.cores[0].store_buffer.stats.stores_accepted == 8
        assert soc.cores[0].store_buffer.stats.coalesced > 0


class TestHaltAndDrain:
    def test_finished_after_ebreak(self):
        soc = run_asm_single("_start:\n ebreak\n")
        core = soc.cores[0]
        assert core.halted
        assert core.finished
        assert all(group is None for group in core.stages)

    def test_instructions_after_ebreak_never_execute(self):
        soc = run_asm_single("""
_start:
    li t0, 1
    sd t0, 0(gp)
    ebreak
    li t0, 99
    sd t0, 0(gp)
""")
        assert soc.memory.read(DATA0, 8) == 1

    def test_commit_count(self):
        soc = run_asm_single("""
_start:
    nop
    nop
    nop
    ebreak
""")
        assert soc.cores[0].stats.committed == 4


class TestSafeDmTaps:
    def test_stage_words_shape(self):
        soc = run_asm_single("_start:\n nop\n ebreak\n")
        words = soc.cores[0].stage_words()
        assert len(words) == 7

    def test_inflight_words_empty_after_drain(self):
        soc = run_asm_single("_start:\n ebreak\n")
        stage_words = soc.cores[0].stage_words()
        assert inflight_from_stage_words(stage_words) == ()

    def test_port_samples_length(self):
        soc = run_asm_single("_start:\n ebreak\n")
        samples = soc.cores[0].regfile.port_samples()
        assert len(samples) == 6  # 4 read + 2 write ports


class TestDecodeFailure:
    def test_garbage_instruction_raises(self):
        from repro.cpu.core import SimulationError
        with pytest.raises(SimulationError):
            run_asm_single("_start:\n .word 0xffffffff\n")
