"""The redundancy-scheme framework: topology, verdicts, equivalence.

The full-matrix acceptance checks (SafeDM bit-identity and DME
final-state equivalence over all 29 kernels) run in the CI ``schemes``
job via ``benchmarks/bench_schemes.py``; these tests keep the framework
honest on a fast kernel subset.
"""

import dataclasses

import pytest

from repro.checkpoint import jsonable
from repro.schemes import SCHEME_KINDS, SchemeSpec, make_scheme
from repro.schemes.base import (
    RedundancyScheme,
    build_scheme,
    delta_equivalence,
)
from repro.schemes.dme import (
    DMETransformError,
    decorrelated_program,
    dme_register_map,
    dme_transform_report,
)
from repro.schemes.matrix import matrix_table, run_scheme_trials
from repro.schemes.tmr import MajorityVoter, majority_value
from repro.soc.config import SocConfig
from repro.soc.experiment import run_redundant
from repro.workloads import all_names, program


class TestSchemeSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme kind"):
            SchemeSpec(kind="quadruple")

    def test_zero_stagger_rejected(self):
        with pytest.raises(ValueError):
            SchemeSpec(kind="lockstep", stagger=0)

    def test_tmr_needs_three_replicas(self):
        with pytest.raises(ValueError):
            SchemeSpec(kind="tmr", replicas=2)

    def test_multipair_needs_disjoint_pairs(self):
        with pytest.raises(ValueError):
            SchemeSpec(kind="multipair", pairs=((0, 1),))
        with pytest.raises(ValueError):
            SchemeSpec(kind="multipair", pairs=((0, 1), (1, 2)))

    def test_dme_identity_rotation_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            SchemeSpec(kind="dme", dme_rotation=0)

    def test_dme_misaligned_shift_rejected(self):
        with pytest.raises(ValueError):
            SchemeSpec(kind="dme", dme_text_shift=0x21)

    def test_spec_joins_sim_cache_key(self):
        from repro.runner.cache import sim_config_digest
        plain = sim_config_digest(SocConfig())
        tmr = sim_config_digest(
            SocConfig(scheme=SchemeSpec(kind="tmr")))
        assert plain != tmr


class TestFactory:
    def test_kind_string_builds_each_scheme(self):
        for kind in SCHEME_KINDS:
            scheme = build_scheme(kind)
            assert scheme.kind == kind
            assert isinstance(scheme, RedundancyScheme)

    def test_instance_passes_through(self):
        scheme = build_scheme("tmr")
        assert build_scheme(scheme) is scheme

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            build_scheme(42)

    def test_make_scheme_wrapper(self):
        assert make_scheme(SchemeSpec(kind="lockstep")).kind \
            == "lockstep"


class TestDeltaEquivalence:
    def test_zero_delta_is_plain_equality(self):
        assert delta_equivalence(0) is None

    def test_tolerates_exactly_the_delta(self):
        eq = delta_equivalence(0x1000_0000)
        word = (0x13, 1)
        assert eq(word + (0x4000_0000,), word + (0x5000_0000,))
        assert not eq(word + (0x4000_0000,), word + (0x5000_0008,))
        # The delta is directional: shifted-down values differ.
        assert not eq(word + (0x5000_0000,), word + (0x4000_0000,))

    def test_word_or_enable_divergence_is_never_tolerated(self):
        eq = delta_equivalence(0x1000_0000)
        assert not eq((0x13, 1, 0x4000_0000), (0x33, 1, 0x5000_0000))
        assert not eq((0x13, 1, 0x4000_0000), (0x13, 0, 0x5000_0000))


class TestMajorityVoter:
    def test_all_agree(self):
        voter = MajorityVoter()
        voter.sample(5, [(1, 1, 7)], [(1, 1, 7)], [(1, 1, 7)])
        assert voter.stats.agreed == 1
        assert not voter.event_detected

    def test_two_agree_flags_minority(self):
        voter = MajorityVoter()
        voter.sample(5, [(1, 1, 7)], [(1, 1, 9)], [(1, 1, 7)])
        assert voter.stats.corrected == 1
        assert voter.stats.outvoted == (0, 1, 0)
        assert voter.event_detected
        assert voter.first_event_cycle() == 5

    def test_none_agree_is_uncorrectable(self):
        voter = MajorityVoter()
        voter.sample(5, [(1, 1, 7)], [(1, 1, 8)], [(1, 1, 9)])
        assert voter.stats.uncorrectable == 1

    def test_flush_votes_stream_residue(self):
        voter = MajorityVoter()
        voter.sample(5, [(1, 1, 7)], [], [])  # replica 0 ran long
        voter.flush(9)
        assert voter.stats.corrected == 1
        assert voter.stats.first_corrected_cycle == 9

    def test_majority_value(self):
        assert majority_value((5, 5, 7)) == 5
        assert majority_value((7, 5, 5)) == 5
        assert majority_value((5, 7, 5)) == 5
        assert majority_value((1, 2, 3)) is None


class TestSafeDMPairBitIdentity:
    """scheme="safedm" is the extracted legacy path: every RunResult
    observable must match the pre-refactor ``run_redundant`` exactly,
    on both execution tiers."""

    @pytest.mark.parametrize("kernel", ["binarysearch", "cosf"])
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_matches_legacy_run(self, kernel, engine):
        prog = program(kernel)
        legacy = run_redundant(prog, benchmark=kernel, engine=engine)
        scheme = run_redundant(prog, benchmark=kernel, engine=engine,
                               scheme="safedm")
        legacy_fields = dataclasses.asdict(legacy)
        scheme_fields = dataclasses.asdict(scheme)
        legacy_fields.pop("scheme_stats")
        stats = scheme_fields.pop("scheme_stats")
        assert scheme_fields == legacy_fields
        assert stats["detected"] is False
        assert stats["outputs"][0] == stats["outputs"][1]


def _tier_cases():
    """Every kernel under every scheme; bitonic, the kernel this sweep
    grew from, keeps its historical scheme-only test ids."""
    for name in all_names():
        for kind in SCHEME_KINDS:
            ident = kind if name == "bitonic" else "%s-%s" % (name, kind)
            yield pytest.param(name, kind, id=ident)


class TestAllSchemesTierEquivalence:
    """Fast tier is bit-identical to reference under every scheme."""

    #: Truncated so the kernels x schemes sweep stays suite-cheap.
    MAX_CYCLES = 4000

    def _run(self, name, kind, engine):
        grab = []
        result = run_redundant(program(name), benchmark=name, scheme=kind,
                               engine=engine, max_cycles=self.MAX_CYCLES,
                               soc_hook=grab.append)
        return result, grab[0]

    @pytest.mark.parametrize("name,kind", _tier_cases())
    def test_fast_matches_reference(self, name, kind):
        ref, ref_soc = self._run(name, kind, "reference")
        fast, fast_soc = self._run(name, kind, "fast")
        assert fast_soc.engine_stats.fallback_reason is None
        assert dataclasses.asdict(fast) == dataclasses.asdict(ref)
        assert jsonable(fast_soc.state_dict()) \
            == jsonable(ref_soc.state_dict())
        assert ref.scheme == kind
        if ref.finished:
            # A truncated run leaves the replicas' commit streams
            # unequal, which every checker rightly reports.
            assert ref.scheme_stats["detected"] is False


class TestSchemeRuns:
    def test_scheme_rejects_resume_and_capture(self):
        prog = program("cosf")
        with pytest.raises(ValueError, match="resume"):
            run_redundant(prog, scheme="tmr", resume_from=object())
        with pytest.raises(ValueError, match="capture"):
            run_redundant(prog, scheme="tmr", capture=object())

    def test_lockstep_clean_run(self):
        prog = program("cosf")
        result = run_redundant(prog, benchmark="cosf",
                               scheme="lockstep")
        assert result.finished
        stats = result.scheme_stats
        assert stats["mismatches"] == 0
        assert stats["compared"] > 0
        assert stats["outputs"][0] == stats["outputs"][1]

    def test_tmr_fault_free_all_agree(self):
        prog = program("cosf")
        result = run_redundant(prog, benchmark="cosf", scheme="tmr")
        stats = result.scheme_stats
        assert stats["voted"] == stats["agreed"]
        assert stats["uncorrectable"] == 0
        assert len(set(stats["outputs"])) == 1
        assert stats["voted_output"] == stats["outputs"][0]

    def test_multipair_runs_two_pairs(self):
        prog = program("cosf")
        result = run_redundant(prog, benchmark="cosf",
                               scheme="multipair")
        stats = result.scheme_stats
        assert stats["pairs"] == [[0, 1], [2, 3]] \
            or stats["pairs"] == [(0, 1), (2, 3)]
        assert len(stats["outputs"]) == 4
        assert len(set(stats["outputs"])) == 1
        assert not any(stats["pair_detected"])

    def test_dme_reaches_same_final_state(self):
        prog = program("cosf")
        plain = run_redundant(prog, benchmark="cosf", scheme="safedm")
        dme = run_redundant(prog, benchmark="cosf", scheme="dme")
        assert dme.finished
        stats = dme.scheme_stats
        assert stats["detected"] is False
        # Trail replica (decorrelated build) computes the same result.
        assert stats["outputs"][0] == stats["outputs"][1]
        assert stats["outputs"][0] == plain.scheme_stats["outputs"][0]

    def test_hardware_cost_ordering(self):
        costs = {kind: build_scheme(kind).hardware_cost()
                 for kind in SCHEME_KINDS}
        assert costs["lockstep"]["total_luts"] \
            < costs["safedm"]["total_luts"] \
            < costs["tmr"]["total_luts"] \
            < costs["multipair"]["total_luts"]
        assert costs["multipair"]["cores"] == 4
        assert costs["tmr"]["cores"] == 3


class TestStateDictRoundTrip:
    def _mid_run(self, kind, cycles=400):
        scheme = build_scheme(kind)
        soc = scheme.build()
        scheme.start(soc, program("cosf"), benchmark="cosf")
        for _ in range(cycles):
            soc.step()
        return scheme, soc

    @pytest.mark.parametrize("kind", ["lockstep", "tmr"])
    def test_round_trip_restores_checker(self, kind):
        scheme, _ = self._mid_run(kind)
        state = scheme.state_dict()
        other = build_scheme(kind)
        other_soc = other.build()
        other.start(other_soc, program("cosf"), benchmark="cosf")
        other.load_state_dict(state)
        assert other.state_dict() == state

    def test_kind_mismatch_rejected(self):
        scheme, _ = self._mid_run("lockstep")
        other = build_scheme("tmr")
        with pytest.raises(ValueError, match="kind"):
            other.load_state_dict(scheme.state_dict())


class TestDMETransform:
    SPEC = SchemeSpec(kind="dme")

    def test_register_map_is_bijection(self):
        mapping = dme_register_map(self.SPEC.dme_rotation)
        assert sorted(mapping) == sorted(mapping.values())
        assert all(reg != mapped for reg, mapped in mapping.items())

    @pytest.mark.parametrize("kernel",
                             ["binarysearch", "cosf", "recursion"])
    def test_cfg_isomorphic(self, kernel):
        base = program(kernel).base
        report = dme_transform_report(kernel, self.SPEC, base)
        assert report.cfg_isomorphic
        assert report.blocks > 0

    def test_rotatable_registers_actually_remapped(self):
        # recursion touches none of the rotatable set, so it remaps 0
        # words; these kernels use saved/temp registers heavily.
        for kernel in ("binarysearch", "cosf"):
            base = program(kernel).base
            report = dme_transform_report(kernel, self.SPEC, base)
            assert report.words_remapped > 0

    def test_unknown_benchmark_raises(self):
        with pytest.raises(DMETransformError):
            decorrelated_program("not-a-kernel", self.SPEC, 0x1_0000)

    def test_text_actually_shifted(self):
        prog = program("cosf")
        trail = decorrelated_program("cosf", self.SPEC, prog.base)
        assert trail.base == prog.base + self.SPEC.dme_text_shift


class TestSchemeMatrix:
    def test_lockstep_catches_every_unmasked_ccf(self):
        """The diversity ≡ 0 control: lockstep coverage is 1.0."""
        row = run_scheme_trials("lockstep", program("cosf"),
                                benchmark="cosf", num_faults=2,
                                stimuli=(0x5EED,))
        assert len(row.trials) == 2
        assert row.silent == 0
        assert row.coverage == 1.0

    def test_matrix_table_renders(self):
        row = run_scheme_trials("safedm", program("cosf"),
                                benchmark="cosf", num_faults=1,
                                stimuli=(0x5EED,))
        table = matrix_table([row])
        assert "safedm" in table
        assert "coverage" in table
        payload = row.to_dict()
        assert payload["trials"] == 1
        assert payload["hardware"]["cores"] == 2


class TestWatchedCores:
    def test_scheme_overrides_watched(self):
        scheme = build_scheme("tmr")
        soc = scheme.build()
        assert soc._watched_indices() == (0, 1, 2)

    def test_default_derives_from_pairs(self):
        from repro.soc.mpsoc import MPSoC
        soc = MPSoC()
        assert soc._watched_indices() == (0, 1)
