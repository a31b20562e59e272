"""Static fault-masking proofs: unit behaviour + the soundness bridge.

The load-bearing property: for every kernel, every recorded cycle's
frontier program point, and every register, ``statically proven dead``
implies ``the dynamic access log also proves it dead`` — the static
masked set is a *subset* of the dynamic one.  A single violation means
a static masking proof is unsound, so this is checked over complete golden runs of all 29 kernels
(cycle-sampled for runtime; every register is checked at every sampled
cycle).  Truncated golden runs fall outside the proofs' path-complete
premise, and :func:`~repro.montecarlo.golden.classify_batch` drops the
filter for them — also asserted here.
"""

import pytest

from repro.isa.assembler import assemble
from repro.lint.absint import ALL_REGISTERS, RESULT_REGISTER
from repro.lint.masking import (
    FRONTIER_HALTED,
    MaskingProofs,
    StaticMaskFilter,
    compute_masking_proofs,
)
from repro.montecarlo.golden import mc_golden_run
from repro.workloads import all_names, program

BASE = 0x0001_0000

#: Cycle sampling step for the subset check (every register is still
#: checked at every sampled cycle).
CYCLE_STEP = 7


def simple_proofs():
    return compute_masking_proofs(assemble("""
_start:
    li t0, 3
    sd t0, 0(gp)
    ebreak
""", base=BASE))


class TestMaskingProofs:
    def test_dead_between_write_and_read(self):
        proofs = simple_proofs()
        pcs = sorted(proofs.live_in)
        li_pc, sd_pc, ebreak_pc = pcs
        # Before the li issues the old t0 value is already dead (the
        # li overwrites it on every path); the sd still reads it; once
        # the sd has issued it is dead again.
        assert proofs.dead_at(li_pc, 5)
        assert not proofs.dead_at(sd_pc, 5)
        assert proofs.dead_at(ebreak_pc, 5)

    def test_result_register_never_proven_dead(self):
        proofs = simple_proofs()
        for pc in proofs.live_in:
            assert not proofs.dead_at(pc, RESULT_REGISTER)
        assert not proofs.dead_at(FRONTIER_HALTED, RESULT_REGISTER)

    def test_halted_frontier_kills_everything_else(self):
        proofs = simple_proofs()
        assert proofs.dead_registers(FRONTIER_HALTED) \
            == ALL_REGISTERS - {RESULT_REGISTER}

    def test_unknown_point_proves_nothing(self):
        proofs = simple_proofs()
        assert not proofs.dead_at(0xDEAD_0000, 5)
        assert proofs.dead_registers(0xDEAD_0000) == frozenset()

    def test_windows_are_maximal_and_contiguous(self):
        proofs = simple_proofs()
        pcs = sorted(proofs.live_in)
        windows = proofs.windows(5)
        assert windows == [(pcs[0], pcs[0] + 4), (pcs[2], pcs[2] + 4)]
        for start, end in windows:
            for pc in range(start, end, 4):
                assert proofs.dead_at(pc, 5)

    def test_point_counts_consistent(self):
        proofs = simple_proofs()
        assert proofs.point_count == 3
        assert proofs.dead_point_count(5) == 2
        assert proofs.coverage()[5] == 2

    def test_proofs_published_as_point_metadata(self):
        prog = assemble("""
_start:
    li t0, 3
    sd t0, 0(gp)
    ebreak
""", base=BASE)
        proofs = MaskingProofs(prog)
        for pc in proofs.live_in:
            assert prog.point_metadata(pc, "masking.dead") \
                == proofs.dead_registers(pc)

    def test_filter_delegates_to_proofs(self):
        proofs = simple_proofs()
        filt = StaticMaskFilter(proofs)
        for pc in proofs.live_in:
            for reg in (5, RESULT_REGISTER):
                assert filt.is_masked(pc, reg) \
                    == proofs.dead_at(pc, reg)


class TestStaticSubsetOfDynamic:
    """The soundness bridge, per kernel."""

    @pytest.mark.parametrize("name", sorted(all_names()))
    def test_static_masked_subset_of_dynamic_masked(self, name):
        # Complete (finished) golden runs: the proofs quantify over
        # complete paths, which is also the only regime the campaign
        # engine uses them in (classify_batch drops the filter for
        # truncated runs).
        prog = program(name)
        proofs = MaskingProofs(prog)
        artifact = mc_golden_run(prog, record_ccf=False)
        assert artifact.base.finished
        checked = proven = 0
        for core in (0, 1):
            trace = artifact.frontier[core]
            access = artifact.access[core]
            for cycle in range(0, len(trace), CYCLE_STEP):
                frontier = trace[cycle]
                for reg in ALL_REGISTERS:
                    checked += 1
                    if not proofs.dead_at(frontier, reg):
                        continue
                    proven += 1
                    dead, _ = access.corruption_fate(reg, cycle)
                    assert dead, (
                        "%s: static proof at cycle %d (frontier %#x) "
                        "claims r%d dead but the access log reads it"
                        % (name, cycle, frontier, reg))
        # The proofs must also be useful, not vacuously sound.
        assert proven > 0.2 * checked, (
            "%s: only %d/%d points proven" % (name, proven, checked))

    def test_truncated_golden_run_disables_the_filter(self):
        """A golden run cut off mid-flight breaks the proofs'
        complete-path premise (its end-of-run checksum read is not
        preceded by the write a full path would have), so the
        classifier must ignore the static filter for it."""
        from repro.montecarlo.batch import STATUS_STATIC, TrialBatch
        from repro.montecarlo.golden import classify_batch

        prog = program("binarysearch")
        artifact = mc_golden_run(prog, max_cycles=500,
                                 record_ccf=False)
        assert not artifact.base.finished
        filt = StaticMaskFilter.from_program(prog)
        # The static proof legitimately claims s0 dead at the entry
        # frontier — which the truncated log contradicts.
        assert filt.is_masked(artifact.frontier[0][0], RESULT_REGISTER)
        batch = TrialBatch("transient", 1)
        batch.set_transient_trial(0, cycle=0, core=0,
                                  register=RESULT_REGISTER, bit=3)
        classify_batch(artifact, batch, static_filter=filt)
        assert batch.count_status(STATUS_STATIC) == 0
