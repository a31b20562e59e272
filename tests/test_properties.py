"""Property-based tests (hypothesis) on core invariants."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.history import EpisodeHistogram
from repro.core.monitor import ReportingMode
from repro.core.signatures import (
    DataSignatureUnit,
    InstructionSignatureUnit,
    IsVariant,
    SignatureConfig,
    inflight_from_stage_words,
)
from repro.cpu.exec_unit import execute_alu
from repro.isa.decoder import decode
from repro.isa.encoder import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import SPECS
from repro.mem.memory import Memory
from repro.replay import ReplayEngine, ReplayMonitor
from repro.trace.stream_trace import (
    CoreSample,
    CycleSample,
    StreamTrace,
    TraceMeta,
)

MASK = (1 << 64) - 1

regs = st.integers(min_value=0, max_value=31)
imm12 = st.integers(min_value=-2048, max_value=2047)
u64 = st.integers(min_value=0, max_value=MASK)


# --- encode/decode round trip -------------------------------------------------

@given(rd=regs, rs1=regs, rs2=regs,
       name=st.sampled_from(["add", "sub", "sll", "slt", "sltu", "xor",
                             "srl", "sra", "or", "and", "mul", "div",
                             "rem", "addw", "subw", "mulw"]))
def test_r_type_round_trip(name, rd, rs1, rs2):
    instr = Instruction(SPECS[name], rd=rd, rs1=rs1, rs2=rs2)
    back = decode(encode(instr))
    assert (back.mnemonic, back.rd, back.rs1, back.rs2) == \
        (name, rd, rs1, rs2)


@given(rd=regs, rs1=regs, imm=imm12,
       name=st.sampled_from(["addi", "slti", "sltiu", "xori", "ori",
                             "andi", "addiw", "ld", "lw", "lh", "lb",
                             "lbu", "lhu", "lwu", "jalr"]))
def test_i_type_round_trip(name, rd, rs1, imm):
    instr = Instruction(SPECS[name], rd=rd, rs1=rs1, imm=imm)
    back = decode(encode(instr))
    assert (back.mnemonic, back.rd, back.rs1, back.imm) == \
        (name, rd, rs1, imm)


@given(rs1=regs, rs2=regs, imm=imm12,
       name=st.sampled_from(["sb", "sh", "sw", "sd"]))
def test_s_type_round_trip(name, rs1, rs2, imm):
    instr = Instruction(SPECS[name], rs1=rs1, rs2=rs2, imm=imm)
    back = decode(encode(instr))
    assert (back.mnemonic, back.rs1, back.rs2, back.imm) == \
        (name, rs1, rs2, imm)


@given(rs1=regs, rs2=regs,
       imm=st.integers(min_value=-2048, max_value=2047).map(lambda i:
                                                            i * 2),
       name=st.sampled_from(["beq", "bne", "blt", "bge", "bltu",
                             "bgeu"]))
def test_b_type_round_trip(name, rs1, rs2, imm):
    instr = Instruction(SPECS[name], rs1=rs1, rs2=rs2, imm=imm)
    back = decode(encode(instr))
    assert (back.mnemonic, back.rs1, back.rs2, back.imm) == \
        (name, rs1, rs2, imm)


@given(rd=regs,
       imm=st.integers(min_value=-(1 << 19),
                       max_value=(1 << 19) - 1).map(lambda i: i * 2))
def test_jal_round_trip(rd, imm):
    instr = Instruction(SPECS["jal"], rd=rd, imm=imm)
    back = decode(encode(instr))
    assert (back.rd, back.imm) == (rd, imm)


# --- ALU semantics against Python oracles -------------------------------------

@given(a=u64, b=u64)
def test_add_sub_inverse(a, b):
    instr_add = Instruction(SPECS["add"], rd=1, rs1=2, rs2=3)
    instr_sub = Instruction(SPECS["sub"], rd=1, rs1=2, rs2=3)
    total = execute_alu(instr_add, a, b)
    assert execute_alu(instr_sub, total, b) == a


@given(a=u64, b=u64)
def test_mul_matches_python(a, b):
    instr = Instruction(SPECS["mul"], rd=1, rs1=2, rs2=3)
    assert execute_alu(instr, a, b) == (a * b) & MASK


@given(a=u64, b=st.integers(min_value=1, max_value=MASK))
def test_divu_remu_reconstruct(a, b):
    divu = Instruction(SPECS["divu"], rd=1, rs1=2, rs2=3)
    remu = Instruction(SPECS["remu"], rd=1, rs1=2, rs2=3)
    q = execute_alu(divu, a, b)
    r = execute_alu(remu, a, b)
    assert (q * b + r) & MASK == a
    assert r < b


@given(a=u64, b=u64)
def test_div_rem_signed_reconstruct(a, b):
    div = Instruction(SPECS["div"], rd=1, rs1=2, rs2=3)
    rem = Instruction(SPECS["rem"], rd=1, rs1=2, rs2=3)
    q = execute_alu(div, a, b)
    r = execute_alu(rem, a, b)
    if b != 0:
        assert (q * b + r) & MASK == a


@given(a=u64, shamt=st.integers(min_value=0, max_value=63))
def test_shift_pairs(a, shamt):
    slli = Instruction(SPECS["slli"], rd=1, rs1=2, imm=shamt)
    srli = Instruction(SPECS["srli"], rd=1, rs1=2, imm=shamt)
    assert execute_alu(slli, a, 0) == (a << shamt) & MASK
    assert execute_alu(srli, a, 0) == a >> shamt


# --- DS row-window (FIFO) invariants -----------------------------------------

@given(values=st.lists(u64, max_size=50),
       depth=st.integers(min_value=1, max_value=10))
def test_ds_window_keeps_last_n(values, depth):
    """Each port keeps its last ``ds_depth`` samples, oldest first,
    idle-padded until the window fills."""
    unit = DataSignatureUnit(SignatureConfig(num_ports=1, ds_depth=depth))
    for value in values:
        unit.sample([(1, value)])
    expected = ([(0, 0)] * depth + [(1, value) for value in values])
    assert unit.signature() == tuple(expected[-depth:])


@given(values=st.lists(st.tuples(u64, st.booleans()), max_size=50),
       depth=st.integers(min_value=1, max_value=8))
def test_ds_hold_never_changes_signature(values, depth):
    unit = DataSignatureUnit(SignatureConfig(num_ports=2, ds_depth=depth))
    for value, hold in values:
        before = unit.signature()
        unit.sample([(1, value), (0, 0)], hold=hold)
        if hold:
            assert unit.signature() == before
    assert len(unit.signature()) == 2 * depth


# --- Data-signature invariants -------------------------------------------------

samples = st.lists(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, MASK)),
             min_size=4, max_size=4),
    min_size=0, max_size=30)


@given(stream=samples)
def test_identical_streams_never_diverse(stream):
    """No false diversity: identical port streams compare equal."""
    config = SignatureConfig(num_ports=4, ds_depth=5)
    a, b = DataSignatureUnit(config), DataSignatureUnit(config)
    for cycle_samples in stream:
        a.sample(cycle_samples)
        b.sample(cycle_samples)
        assert a.equal(b)


@given(stream=samples.filter(lambda s: len(s) >= 1),
       flip_bit=st.integers(0, 63))
def test_any_recent_difference_is_diverse(stream, flip_bit):
    """No false negatives within the window: any difference in the
    last n samples makes the signatures differ."""
    config = SignatureConfig(num_ports=4, ds_depth=5)
    a, b = DataSignatureUnit(config), DataSignatureUnit(config)
    for cycle_samples in stream[:-1]:
        a.sample(cycle_samples)
        b.sample(cycle_samples)
    last = stream[-1]
    mutated = [(last[0][0], last[0][1] ^ (1 << flip_bit))] + last[1:]
    a.sample(last)
    b.sample(mutated)
    assert not a.equal(b)


@given(stream=samples, extra=st.integers(5, 20))
def test_difference_expires_after_window(stream, extra):
    config = SignatureConfig(num_ports=4, ds_depth=5)
    a, b = DataSignatureUnit(config), DataSignatureUnit(config)
    a.sample([(1, 1), (0, 0), (0, 0), (0, 0)])
    b.sample([(1, 2), (0, 0), (0, 0), (0, 0)])
    idle = [(0, 0)] * 4
    for _ in range(extra):
        a.sample(idle)
        b.sample(idle)
    assert a.equal(b)


# --- histogram invariants --------------------------------------------------------

@given(pattern=st.lists(st.booleans(), max_size=200),
       bin_size=st.integers(1, 8))
def test_histogram_cycle_conservation(pattern, bin_size):
    hist = EpisodeHistogram(bin_size=bin_size, num_bins=16)
    for value in pattern:
        hist.sample(value)
    hist.finish()
    assert hist.total_cycles == sum(pattern)
    # episode count equals the number of True-runs
    runs = 0
    previous = False
    for value in pattern:
        if value and not previous:
            runs += 1
        previous = value
    assert hist.episodes == runs
    assert sum(hist.bins) == runs


# --- memory invariants -------------------------------------------------------------

@given(address=st.integers(0, 1 << 40).map(lambda a: a & ~7),
       value=u64,
       size=st.sampled_from([1, 2, 4, 8]))
def test_memory_write_read_round_trip(address, value, size):
    mem = Memory()
    mem.write(address, value, size)
    assert mem.read(address, size) == value & ((1 << (8 * size)) - 1)


@given(address=st.integers(0, 1 << 30).map(lambda a: a & ~7),
       first=u64, second=u64)
def test_memory_last_write_wins(address, first, second):
    mem = Memory()
    mem.write(address, first, 8)
    mem.write(address, second, 8)
    assert mem.read(address, 8) == second


# --- equal() vs signature() equality -----------------------------------------

paired_streams = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, MASK)),
                 min_size=4, max_size=4),
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, MASK)),
                 min_size=4, max_size=4),
        st.booleans(),   # feed unit b the same row as unit a?
        st.booleans(),   # hold unit a this cycle
        st.booleans()),  # hold unit b this cycle
    max_size=40)


#: Two streams whose first port values differ by 2**61 - 1, the modulus
#: of CPython's int hash: equal hashes, different signatures.
hash_collision = [([(1, 0)] * 4, [(1, 2**61 - 1)] + [(1, 0)] * 3,
                   False, False, False)]


@given(stream=paired_streams)
@example(stream=hash_collision)
def test_ds_equal_matches_signature(stream):
    """equal() agrees with signature() equality on every prefix of
    arbitrary paired streams, including holds and mixed
    identical/divergent rows."""
    config = SignatureConfig(num_ports=4, ds_depth=5)
    a, b = DataSignatureUnit(config), DataSignatureUnit(config)
    for row_a, row_b, same, hold_a, hold_b in stream:
        a.sample(row_a, hold=hold_a)
        b.sample(row_a if same else row_b, hold=hold_b)
        assert a.equal(b) == (a.signature() == b.signature())
        assert b.equal(a) == a.equal(b)


@given(stream=paired_streams)
@example(stream=hash_collision)
def test_is_equal_matches_signature(stream):
    """Same property for the Instruction Signature, driving the
    (valid, word) slot form through both units."""
    config = SignatureConfig(pipeline_width=2, pipeline_stages=2)
    a = InstructionSignatureUnit(config)
    b = InstructionSignatureUnit(config)
    for row_a, row_b, same, hold_a, hold_b in stream:
        slots_a = [row_a[:2], row_a[2:]]
        slots_b = slots_a if same else [row_b[:2], row_b[2:]]
        a.sample_stages(slots_a, hold=hold_a)
        b.sample_stages(slots_b, hold=hold_b)
        assert a.equal(b) == (a.signature() == b.signature())


# --- INFLIGHT through stage words ---------------------------------------------

stage_word_streams = st.lists(
    st.tuples(
        st.lists(st.one_of(st.none(),
                           st.lists(st.integers(0, (1 << 32) - 1),
                                    min_size=1, max_size=2).map(tuple)),
                 min_size=7, max_size=7),
        st.booleans()),  # hold this cycle
    max_size=30)


@given(stream=stage_word_streams, depth=st.integers(1, 16))
def test_inflight_stage_words_match_derived_window(stream, depth):
    """An INFLIGHT unit clocked with stage words equals one clocked
    with the in-flight window derived from them, holds included."""
    config = SignatureConfig(is_variant=IsVariant.INFLIGHT,
                             inflight_depth=depth)
    a = InstructionSignatureUnit(config)
    b = InstructionSignatureUnit(config)
    for stages, hold in stream:
        a.sample_stage_words(stages, hold=hold)
        b.sample_inflight(inflight_from_stage_words(stages), hold=hold)
        assert a.equal(b)
        assert a.signature() == b.signature()


# --- fast replay vs the reference replay --------------------------------------

#: Captured register ports per core (three per issue slot, two slots).
CAPTURED_PORTS = 6

#: Small alphabets, so that DS windows and IS stage tuples do match.
port_samples = st.tuples(*[st.tuples(st.integers(0, 1), st.integers(0, 2))
                           for _ in range(CAPTURED_PORTS)])
stage_tuples = st.tuples(*[
    st.one_of(st.none(), st.just(()),
              st.lists(st.sampled_from((0, 7, 9)), min_size=1,
                       max_size=2).map(tuple))
    for _ in range(7)])


@st.composite
def synthetic_traces(draw):
    """Two cores with holds on either one.  Each trace draws how often
    a core holds and how often core 1 takes core 0's ports and stages,
    so that long runs of equal signatures occur too."""
    hold_level = draw(st.integers(0, 4))
    copy_level = draw(st.integers(0, 10))
    samples = []
    for cycle in range(draw(st.integers(0, 40))):
        taps = []
        for core in range(2):
            commits = draw(st.integers(0, 2))
            if draw(st.integers(1, 10)) <= hold_level:
                taps.append(CoreSample(True, commits, None, None))
            elif (core == 1 and not taps[0].hold
                  and draw(st.integers(1, 10)) <= copy_level):
                taps.append(CoreSample(False, commits, taps[0].ports,
                                       taps[0].stages))
            else:
                taps.append(CoreSample(False, commits, draw(port_samples),
                                       draw(stage_tuples)))
        samples.append(CycleSample(cycle, tuple(taps)))
    return StreamTrace(meta=TraceMeta(diff_preload=draw(st.integers(-3, 3))),
                       samples=samples)


signatures = st.builds(
    SignatureConfig,
    num_ports=st.integers(1, CAPTURED_PORTS + 1),
    ds_depth=st.integers(1, 16),
    is_variant=st.sampled_from(IsVariant),
    inflight_depth=st.integers(1, 20))


def _realigning_trace():
    """Core 1 holds for three cycles, longer than a depth-2 DS, while
    core 0 samples the same row; then core 1 catches up, and the two
    windows are equal again from the next cycle at depth 2 and ten
    cycles later at depth 12."""
    ports = ((1, 2),) * CAPTURED_PORTS
    stages = ((7,), None, (9, 0), (), None, None, None)
    sampled = CoreSample(False, 1, ports, stages)
    held = CoreSample(True, 0, None, None)
    pattern = [(sampled, held)] * 3 + [(held, sampled)] * 2 + \
        [(sampled, sampled)] * 12
    return StreamTrace(meta=TraceMeta(diff_preload=1), samples=[
        CycleSample(cycle, taps) for cycle, taps in enumerate(pattern)])


@given(trace=synthetic_traces(), signature=signatures,
       mode=st.sampled_from(ReportingMode), threshold=st.integers(0, 6))
@example(trace=_realigning_trace(), signature=SignatureConfig(ds_depth=2),
         mode=ReportingMode.INTERRUPT_THRESHOLD, threshold=2)
@example(trace=_realigning_trace(),
         signature=SignatureConfig(ds_depth=12,
                                   is_variant=IsVariant.INFLIGHT),
         mode=ReportingMode.INTERRUPT_FIRST, threshold=1)
@example(trace=_realigning_trace(),
         signature=SignatureConfig(num_ports=CAPTURED_PORTS + 1),
         mode=ReportingMode.POLLING, threshold=1)
def test_fast_replay_equals_reference_replay(trace, signature, mode,
                                             threshold):
    """ReplayEngine's shared verdict streams count exactly what a real
    DiversityMonitor replayed cycle by cycle counts; a geometry the
    capture cannot feed raises ValueError on both paths."""
    reference = ReplayMonitor(trace, signature=signature, mode=mode,
                              threshold=threshold)
    engine = ReplayEngine(trace)
    if signature.num_ports > CAPTURED_PORTS and any(
            not tap.hold for sample in trace for tap in sample.cores):
        with pytest.raises(ValueError):
            reference.replay()
        with pytest.raises(ValueError):
            engine.replay(signature=signature, mode=mode,
                          threshold=threshold)
        return
    monitor = reference.replay()
    fast = engine.replay(signature=signature, mode=mode,
                         threshold=threshold)
    assert fast.stats == monitor.stats
    assert fast.diff_stats == monitor.instruction_diff.stats
    assert fast.history.state_dict() == monitor.history.state_dict()
