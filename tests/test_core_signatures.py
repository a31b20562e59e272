"""Data / Instruction signature unit tests (paper Section III-B)."""

import pytest

from repro.core.signatures import (
    DataSignatureUnit,
    InstructionSignatureUnit,
    IsVariant,
    SignatureConfig,
)


def ds_pair(**kwargs):
    config = SignatureConfig(**kwargs)
    return DataSignatureUnit(config), DataSignatureUnit(config)


def is_pair(**kwargs):
    config = SignatureConfig(**kwargs)
    return (InstructionSignatureUnit(config),
            InstructionSignatureUnit(config))


IDLE4 = [(0, 0)] * 4


class TestDataSignature:
    def test_reset_signatures_equal(self):
        a, b = ds_pair()
        assert a.equal(b)
        assert a.signature() == b.signature()

    def test_signature_length(self):
        a, _ = ds_pair(num_ports=4, ds_depth=7)
        assert len(a.signature()) == 28

    def test_different_values_differ(self):
        a, b = ds_pair()
        a.sample([(1, 5)] + IDLE4[:3])
        b.sample([(1, 6)] + IDLE4[:3])
        assert not a.equal(b)

    def test_same_samples_equal(self):
        a, b = ds_pair()
        for _ in range(10):
            a.sample([(1, 7), (1, 8), (0, 0), (0, 0)])
            b.sample([(1, 7), (1, 8), (0, 0), (0, 0)])
        assert a.equal(b)

    def test_timing_difference_detected(self):
        """Same value stream, shifted by one cycle, must differ while
        in the window (the every-cycle sampling rationale)."""
        a, b = ds_pair()
        a.sample([(1, 5)] + IDLE4[:3])
        a.sample(IDLE4)
        b.sample(IDLE4)
        b.sample([(1, 5)] + IDLE4[:3])
        assert not a.equal(b)

    def test_difference_ages_out_of_window(self):
        a, b = ds_pair(ds_depth=3)
        a.sample([(1, 5)] + IDLE4[:3])
        b.sample([(1, 6)] + IDLE4[:3])
        assert not a.equal(b)
        for _ in range(3):
            a.sample(IDLE4)
            b.sample(IDLE4)
        assert a.equal(b)

    def test_hold_freezes_window(self):
        a, b = ds_pair()
        a.sample([(1, 5)] + IDLE4[:3])
        b.sample([(1, 5)] + IDLE4[:3])
        # a holds while b keeps shifting idle samples.
        for _ in range(3):
            a.sample(IDLE4, hold=True)
            b.sample(IDLE4)
        # a still has the (1,5) sample at the newest slot; b aged it.
        assert not a.equal(b)

    def test_extra_ports_ignored(self):
        a, _ = ds_pair(num_ports=2)
        a.sample([(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
        assert len(a.signature()) == 2 * a.config.ds_depth

    def test_too_few_ports_rejected(self):
        a, _ = ds_pair(num_ports=4)
        with pytest.raises(ValueError):
            a.sample([(1, 1)])

    def test_layout_mentions_all_ports(self):
        a, _ = ds_pair(num_ports=3, ds_depth=5)
        layout = a.layout()
        assert "RP_1^1..RP_1^5" in layout
        assert "RP_3^1..RP_3^5" in layout

    def test_signature_bits(self):
        a, _ = ds_pair(num_ports=4, ds_depth=7)
        assert a.signature_bits() == 4 * 7 * 65

    def test_reset(self):
        a, b = ds_pair()
        a.sample([(1, 5)] + IDLE4[:3])
        a.reset()
        assert a.equal(b)


class TestInstructionSignaturePerStage:
    def test_reset_equal(self):
        a, b = is_pair()
        assert a.equal(b)

    def test_same_stages_equal(self):
        a, b = is_pair()
        stages = [(0x13,), None, (0x33, 0x93), None, None, None, None]
        a.sample_stage_words(stages)
        b.sample_stage_words(list(stages))
        assert a.equal(b)

    def test_same_instructions_different_stage_differ(self):
        """The refinement over the plain in-flight list: same words in
        different stages produce different signatures (III-B.2)."""
        a, b = is_pair()
        a.sample_stage_words([(0x33,), None, None, None, None, None,
                              None])
        b.sample_stage_words([None, (0x33,), None, None, None, None,
                              None])
        assert not a.equal(b)

    def test_slot_count_within_stage_matters(self):
        a, b = is_pair()
        a.sample_stage_words([(0x33, 0x13), None, None, None, None,
                              None, None])
        b.sample_stage_words([(0x33,), None, None, None, None, None,
                              None])
        assert not a.equal(b)

    def test_wrong_stage_count_rejected(self):
        a, _ = is_pair(pipeline_stages=7)
        with pytest.raises(ValueError):
            a.sample_stage_words([None] * 5)

    def test_signature_padding(self):
        a, _ = is_pair(pipeline_width=2, pipeline_stages=7)
        a.sample_stage_words([(0x33,), None, None, None, None, None,
                              None])
        sig = a.signature()
        assert len(sig) == 14
        assert sig[0] == (1, 0x33)
        assert sig[1] == (0, 0)

    def test_sample_stages_slot_form(self):
        a, b = is_pair()
        a.sample_stages([[(1, 0x33), (0, 0)]] + [[(0, 0), (0, 0)]] * 6)
        b.sample_stage_words([(0x33,), None, None, None, None, None,
                              None])
        assert a.equal(b)

    def test_hold_keeps_previous_state(self):
        a, b = is_pair()
        stages = [(0x33,), None, None, None, None, None, None]
        a.sample_stage_words(stages)
        b.sample_stage_words(stages)
        a.sample_stage_words([None] * 7, hold=True)
        assert a.equal(b)

    def test_wrong_variant_method_rejected(self):
        a, _ = is_pair()
        with pytest.raises(ValueError):
            a.sample_inflight([1, 2, 3])


class TestInstructionSignatureInflight:
    def test_equal_windows(self):
        a, b = is_pair(is_variant=IsVariant.INFLIGHT)
        a.sample_inflight([1, 2, 3])
        b.sample_inflight([1, 2, 3])
        assert a.equal(b)

    def test_cannot_see_stage_placement(self):
        """The fallback variant's documented weakness: same in-flight
        list, different stages, equal signatures."""
        a, b = is_pair(is_variant=IsVariant.INFLIGHT)
        a.sample_inflight([0x33, 0x13])
        b.sample_inflight([0x33, 0x13])
        assert a.equal(b)

    def test_window_truncates_to_depth(self):
        a, _ = is_pair(is_variant=IsVariant.INFLIGHT, inflight_depth=4)
        a.sample_inflight(list(range(10)))
        assert a.signature() == (6, 7, 8, 9)

    def test_zero_padding(self):
        a, _ = is_pair(is_variant=IsVariant.INFLIGHT, inflight_depth=4)
        a.sample_inflight([5])
        assert a.signature() == (0, 0, 0, 5)

    def test_stage_words_sample_the_derived_window(self):
        """Stage words clock the window read deepest stage first,
        windowed to the FIFO depth; a hold keeps it."""
        a, b = is_pair(is_variant=IsVariant.INFLIGHT, inflight_depth=4)
        a.sample_stage_words([(0x13,), None, (0x33, 0x93), None, None,
                              (0x6F,), (0x73, 0x23)])
        b.sample_inflight([0x73, 0x23, 0x6F, 0x33, 0x93, 0x13])
        assert a.signature() == (0x6F, 0x33, 0x93, 0x13)
        assert a.equal(b)
        a.sample_stage_words([None] * 7, hold=True)
        assert a.equal(b)
        a.sample_stage_words([None] * 7)
        assert a.signature() == (0, 0, 0, 0)
        with pytest.raises(ValueError):
            a.sample_stage_words([None] * 5)

    def test_signature_bits(self):
        a, _ = is_pair(is_variant=IsVariant.INFLIGHT, inflight_depth=14)
        assert a.signature_bits() == 14 * 33
