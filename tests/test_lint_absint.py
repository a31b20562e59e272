"""Abstract-interpretation layer: strided intervals, solver, domains.

The soundness style is concretization-based: a :class:`StridedInterval`
denotes the set ``{lo, lo+stride, ..., hi}``, and every abstract
operation must over-approximate the concrete one on members.  The
hypothesis properties below check exactly that; the deterministic tests
pin the solver behaviours the lint rules rely on (diamond joins, loop
widening, proven branch directions, masking-liveness specifics).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.lint import build_cfg
from repro.lint.absint import (
    ALL_REGISTERS,
    MASK64,
    RESULT_REGISTER,
    IntervalDomain,
    MaskingLiveness,
    StridedInterval,
    reverse_postorder,
    solve_absint,
)
from repro.lint.cfg import BasicBlock
from repro.lint.dataflow import Liveness, ReachingDefinitions
from repro.workloads import all_names, program

BASE = 0x0001_0000


def member(value, si):
    """Concrete membership in a strided interval's denotation."""
    if not (si.lo <= value <= si.hi):
        return False
    if si.stride == 0:
        return value == si.lo
    return (value - si.lo) % si.stride == 0


def members(si, limit=512):
    if si.stride == 0:
        return [si.lo]
    out = list(range(si.lo, si.hi + 1, si.stride))
    return out[:limit]


@st.composite
def intervals(draw):
    lo = draw(st.integers(min_value=0, max_value=1 << 20))
    stride = draw(st.integers(min_value=0, max_value=64))
    n = draw(st.integers(min_value=0, max_value=50))
    if stride == 0 or n == 0:
        return StridedInterval(lo, lo, 0)
    return StridedInterval(lo, lo + stride * n, stride)


class TestStridedInterval:
    @given(intervals(), intervals())
    @settings(max_examples=200, deadline=None)
    def test_join_is_an_upper_bound(self, a, b):
        joined = a.join(b)
        for v in members(a) + members(b):
            assert member(v, joined)

    @given(intervals(), intervals())
    @settings(max_examples=200, deadline=None)
    def test_widen_is_an_upper_bound(self, a, b):
        widened = a.widen(b)
        for v in members(a) + members(b):
            assert member(v, widened)

    @given(intervals(), intervals())
    @settings(max_examples=100, deadline=None)
    def test_widening_chains_terminate(self, a, b):
        state = a
        for step in range(80):
            nxt = state.widen(state.join(b))
            if nxt == state:
                break
            state = nxt
        else:
            pytest.fail("widening did not stabilize: %r vs %r" % (a, b))

    @given(intervals(), intervals())
    @settings(max_examples=150, deadline=None)
    def test_add_sub_soundness(self, a, b):
        added = a.add(b)
        subbed = a.sub(b)
        for x in members(a, 24):
            for y in members(b, 24):
                assert member((x + y) & MASK64, added)
                assert member((x - y) & MASK64, subbed)

    @given(intervals(), st.integers(min_value=-4096, max_value=4096))
    @settings(max_examples=150, deadline=None)
    def test_add_const_soundness(self, a, imm):
        shifted = a.add_const(imm)
        for x in members(a):
            assert member((x + imm) & MASK64, shifted)

    @given(intervals(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=150, deadline=None)
    def test_shift_left_soundness(self, a, amount):
        shifted = a.shift_left(amount)
        for x in members(a):
            assert member((x << amount) & MASK64, shifted)

    @given(intervals(), st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=200, deadline=None)
    def test_residue_holds_for_every_member(self, a, modulus):
        residue = a.residue(modulus)
        if residue is not None:
            for v in members(a):
                assert v % modulus == residue

    @given(intervals(), intervals())
    @settings(max_examples=200, deadline=None)
    def test_never_equals_means_disjoint(self, a, b):
        if a.never_equals(b):
            assert not set(members(a)) & set(members(b))

    @given(intervals())
    @settings(max_examples=200, deadline=None)
    def test_signed_range_covers_members(self, a):
        rng = a.signed_range()
        if rng is not None:
            lo, hi = rng
            for v in members(a):
                signed = v - (1 << 64) if v >= 1 << 63 else v
                assert lo <= signed <= hi

    def test_overflow_keeps_power_of_two_alignment(self):
        # Wrapping mod 2^64 preserves congruence mod 8 (8 divides
        # 2^64), so an overflowing add keeps the alignment fact.
        huge = StridedInterval.aligned(8)
        bumped = huge.add_const(8)
        assert bumped.residue(8) == 0
        offset = huge.add_const(12)
        assert offset.residue(8) == 4
        # Odd strides don't survive a wrap: 3 does not divide 2^64.
        odd = StridedInterval.aligned(3)
        assert odd.add_const(3).is_top
        # Constants fold exactly through the wrap.
        assert StridedInterval.const(MASK64).add_const(2) \
            == StridedInterval.const(1)

    def test_invariants(self):
        c = StridedInterval.const(7)
        assert c.is_const and c.stride == 0
        top = StridedInterval.top()
        assert top.is_top
        aligned = StridedInterval.aligned(4096)
        assert aligned.residue(8) == 0
        assert aligned.residue(4096) == 0


class TestReversePostorder:
    @pytest.mark.parametrize("name", sorted(all_names())[:6])
    def test_covers_all_blocks_entry_first(self, name):
        cfg = build_cfg(program(name))
        order = reverse_postorder(cfg)
        assert [b.start for b in order][0] == cfg.entry
        assert {b.start for b in order} == \
            {b.start for b in cfg.all_blocks()}

    def test_deterministic(self):
        cfg = build_cfg(program("fft"))
        one = [b.start for b in reverse_postorder(cfg)]
        two = [b.start for b in reverse_postorder(cfg)]
        assert one == two

    def test_set_domain_fixed_point_is_deterministic(self):
        # Two solves of one CFG, both seeded in reverse post-order,
        # reach the same block states.
        cfg = build_cfg(program("binarysearch"))
        for domain in (ReachingDefinitions(), Liveness()):
            one = solve_absint(cfg, domain)
            two = solve_absint(cfg, domain)
            assert one.block_meet == two.block_meet
            assert one.block_result == two.block_result


def interval_points(source):
    cfg = build_cfg(assemble(source, base=BASE))
    return cfg, solve_absint(cfg, IntervalDomain()).point_states()


class TestIntervalDomain:
    def test_diamond_join_keeps_common_constant(self):
        # Both arms compute t2 == 6; the join at merge must keep it.
        cfg, points = interval_points("""
_start:
    li t0, 5
    li t1, 7
    beq tp, x0, other
    addi t2, t0, 1
    j merge
other:
    addi t2, t1, -1
merge:
    sd t2, 0(gp)
    ebreak
""")
        sd_pc = max(pc for pc, i in cfg.instrs.items()
                    if i.mnemonic == "sd")
        state = points[sd_pc]
        assert state[7] == StridedInterval.const(6)  # t2 = x7

    def test_loop_counter_widens_to_alignment(self):
        # t0 starts at 0 and moves in steps of 8: after widening the
        # header state still proves t0 % 8 == 0 (and never reaches
        # top, so the analysis terminated by widening, not by bail).
        cfg, points = interval_points("""
_start:
    li t0, 0
    li t1, 800
loop:
    addi t0, t0, 8
    blt t0, t1, loop
    sd t0, 0(gp)
    ebreak
""")
        addi_pc = next(pc for pc, i in cfg.instrs.items()
                       if i.mnemonic == "addi" and i.rd == 5
                       and i.rs1 == 5)
        state = points[addi_pc]
        assert state[5].residue(8) == 0

    def test_gp_alignment_flows_through_address_arithmetic(self):
        cfg, points = interval_points("""
_start:
    addi t0, gp, 16
    slli t1, tp, 3
    add t2, t0, t1
    sd x0, 0(t2)
    ebreak
""")
        sd_pc = next(pc for pc, i in cfg.instrs.items()
                     if i.mnemonic == "sd")
        state = points[sd_pc]
        # gp + 16 + 8*tp is provably 8-aligned whatever tp is.
        assert state[7].residue(8) == 0

    def test_constant_folding_matches_concrete_alu(self):
        from repro.cpu.exec_unit import execute_alu
        cfg, points = interval_points("""
_start:
    li t0, 0x1234
    li t1, 0x0ff0
    xor t2, t0, t1
    sd t2, 0(gp)
    ebreak
""")
        xor_pc = next(pc for pc, i in cfg.instrs.items()
                      if i.mnemonic == "xor")
        sd_pc = next(pc for pc, i in cfg.instrs.items()
                     if i.mnemonic == "sd")
        instr = cfg.instrs[xor_pc]
        assert points[sd_pc][7] == StridedInterval.const(
            execute_alu(instr, 0x1234, 0x0FF0))

    def test_branch_decision_on_constants(self):
        cfg, points = interval_points("""
_start:
    li t0, 3
    beq t0, x0, away
    bne t0, x0, away
away:
    ebreak
""")
        beq_pc = next(pc for pc, i in cfg.instrs.items()
                      if i.mnemonic == "beq")
        bne_pc = next(pc for pc, i in cfg.instrs.items()
                      if i.mnemonic == "bne")
        assert IntervalDomain.branch_decision(
            points[beq_pc], cfg.instrs[beq_pc]) is False
        assert IntervalDomain.branch_decision(
            points[bne_pc], cfg.instrs[bne_pc]) is True

    def test_branch_decision_undecidable_returns_none(self):
        cfg, points = interval_points("""
_start:
    beq tp, x0, away
away:
    ebreak
""")
        beq_pc = next(pc for pc, i in cfg.instrs.items()
                      if i.mnemonic == "beq")
        assert IntervalDomain.branch_decision(
            points[beq_pc], cfg.instrs[beq_pc]) is None

    def test_unreachable_points_have_no_state(self):
        cfg, points = interval_points("""
_start:
    j done
    addi t0, x0, 1
done:
    ebreak
""")
        addi_pc = next(pc for pc, i in cfg.instrs.items()
                       if i.mnemonic == "addi" and i.rd == 5)
        assert points[addi_pc] is None


class TestMaskingLiveness:
    def live_in(self, source):
        cfg = build_cfg(assemble(source, base=BASE))
        result = solve_absint(cfg, MaskingLiveness(cfg))
        return cfg, result.point_states()

    def test_result_register_live_to_the_halt(self):
        cfg, points = self.live_in("""
_start:
    li s0, 42
    ebreak
""")
        for pc in cfg.instrs:
            if cfg.instrs[pc].mnemonic == "ebreak":
                assert RESULT_REGISTER in points[pc]

    def test_dead_after_last_read(self):
        cfg, points = self.live_in("""
_start:
    li t0, 3
    sd t0, 0(gp)
    ebreak
""")
        sd_pc = next(pc for pc, i in cfg.instrs.items()
                     if i.mnemonic == "sd")
        ebreak_pc = next(pc for pc, i in cfg.instrs.items()
                         if i.mnemonic == "ebreak")
        assert 5 in points[sd_pc]          # the sd still reads t0
        assert 5 not in points[ebreak_pc]  # dead once it has issued

    def test_halt_counts_paired_slot_reads(self):
        # The dual-issue front end can pair the halt with the next
        # sequential word, which issues (and reads t0) in the same
        # group — so t0 must stay live at the ebreak point even though
        # the sd is CFG-unreachable.
        cfg, points = self.live_in("""
_start:
    li t0, 3
    ebreak
    sd t0, 0(gp)
""")
        ebreak_pc = next(pc for pc, i in cfg.instrs.items()
                         if i.mnemonic == "ebreak")
        assert 5 in points[ebreak_pc]

    def test_unknown_target_forces_all_registers(self):
        cfg = build_cfg(program("countnegative"))
        domain = MaskingLiveness(cfg)
        block = BasicBlock(start=0x123, has_unknown_target=True)
        assert domain.meet_extra(cfg, block) == ALL_REGISTERS
        assert domain.meet_extra(cfg, cfg.entry_block) is None
