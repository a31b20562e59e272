"""The rules' set domains on the one solver: reaching definitions and
liveness."""

from repro.isa import assemble
from repro.lint import (
    Liveness,
    MaskingLiveness,
    ReachingDefinitions,
    build_cfg,
    solve_absint,
)
from repro.lint.dataflow import RUNTIME, RUNTIME_INITIALIZED, UNINIT


def solved(source, domain, base=0x1000):
    cfg = build_cfg(assemble(source, base=base))
    return cfg, solve_absint(cfg, domain)


def state_at(result, cfg, pc):
    """Per-instruction state (before for forward, after for backward)."""
    for block in cfg.blocks():
        for spc, _, state in result.states(block):
            if spc == pc:
                return state
    raise AssertionError("pc %#x not found" % pc)


class TestReachingDefinitions:
    def test_entry_boundary(self):
        cfg, result = solved("_start:\n    ebreak\n",
                             ReachingDefinitions())
        entry_in = result.in_state(cfg.entry)
        for reg in range(32):
            expected = (RUNTIME if reg in RUNTIME_INITIALIZED
                        else UNINIT)
            assert (expected, reg) in entry_in

    def test_definition_kills_uninit(self):
        cfg, result = solved("""
_start:
    addi t0, x0, 7
    add t1, t0, t0
    ebreak
""", ReachingDefinitions())
        add_pc = cfg.entry + 4
        state = state_at(result, cfg, add_pc)
        assert (UNINIT, 5) not in state       # t0 defined at entry+0
        assert (cfg.entry, 5) in state

    def test_join_keeps_both_paths(self):
        cfg, result = solved("""
_start:
    beqz a0, other
    addi t0, x0, 1
    j join
other:
    addi t0, x0, 2
join:
    add t1, t0, t0
    ebreak
""", ReachingDefinitions())
        join = cfg.program.symbol("join")
        state = state_at(result, cfg, join)
        defs = {site for site, reg in state if reg == 5}
        assert len(defs) == 2                 # both addi defs reach
        assert UNINIT not in defs

    def test_uninit_survives_one_sided_init(self):
        cfg, result = solved("""
_start:
    beqz a0, join
    addi t0, x0, 1
join:
    add t1, t0, t0
    ebreak
""", ReachingDefinitions())
        join = cfg.program.symbol("join")
        assert (UNINIT, 5) in state_at(result, cfg, join)


class TestLiveness:
    def test_store_keeps_register_live(self):
        cfg, result = solved("""
_start:
    addi t0, x0, 9
    sd t0, 0(gp)
    ebreak
""", Liveness())
        assert 5 in state_at(result, cfg, cfg.entry)  # live after addi

    def test_overwrite_kills_liveness(self):
        cfg, result = solved("""
_start:
    addi t0, x0, 1
    addi t0, x0, 2
    sd t0, 0(gp)
    ebreak
""", Liveness())
        assert 5 not in state_at(result, cfg, cfg.entry)

    def test_loop_carried_liveness(self):
        cfg, result = solved("""
_start:
    addi t0, x0, 8
loop:
    addi t0, t0, -1
    bnez t0, loop
    ebreak
""", Liveness())
        loop = cfg.program.symbol("loop")
        # t0 is live around the back edge.
        assert 5 in result.in_state(loop)
        assert 5 in state_at(result, cfg, cfg.entry)

    def test_nothing_live_after_halt(self):
        cfg, result = solved("_start:\n    ebreak\n", Liveness())
        assert result.out_state(cfg.entry) == frozenset()

    def test_x0_never_live(self):
        cfg, result = solved("""
_start:
    add t0, x0, x0
    sd t0, 0(gp)
    ebreak
""", Liveness())
        for block in cfg.blocks():
            assert 0 not in result.in_state(block.start)
            assert 0 not in result.out_state(block.start)


class TestEveryBlockHasAState:
    """The rule domains meet every block with at least the empty set;
    :class:`MaskingLiveness` keeps ``None`` ("no proof") where no path
    reaches the exit."""

    SOURCE = """
_start:
    addi t0, x0, 1
    beqz t0, spin
    j done
    addi t1, x0, 2
done:
    sd t0, 0(gp)
    ebreak
spin:
    addi t2, t2, 1
    j spin
"""

    def test_rule_domains_reach_every_block(self):
        for domain in (ReachingDefinitions(), Liveness()):
            cfg, result = solved(self.SOURCE, domain)
            for block in cfg.all_blocks():
                assert result.in_state(block.start) is not None
                assert result.out_state(block.start) is not None
                for _, _, state in result.states(block):
                    assert state is not None

    def test_masking_liveness_keeps_no_proof_points(self):
        cfg = build_cfg(assemble(self.SOURCE, base=0x1000))
        points = solve_absint(cfg, MaskingLiveness(cfg)).point_states()
        spin = cfg.program.symbol("spin")
        unreached = next(pc for pc, i in cfg.instrs.items()
                         if i.mnemonic == "addi" and i.rd == 6)
        none_pcs = sorted(pc for pc, state in points.items()
                          if state is None)
        # The exit-less loop has no proof; the unreachable block still
        # reaches the halt, so the backward analysis reaches it.
        assert none_pcs == [spin, spin + 4]
        assert points[unreached] is not None
