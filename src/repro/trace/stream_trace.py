"""Raw signature-stream capture: the capture half of capture/replay.

SafeDM is purely observational (paper Section III): the monitor reads
per-cycle pipeline-stage occupancy and register-port samples but never
perturbs the cores.  Those raw taps are therefore a pure function of
the *simulation* inputs (program, platform geometry, staggering,
arbiter start, cycle budget) and entirely independent of the *monitor*
configuration (IS variant, DS geometry, reporting mode, threshold).

A :class:`StreamTrace` stores a capture as columns:

* ``cycles``: the observed cycles;
* per monitored core, ``hold`` (the pipeline hold flag) and
  ``commits`` (the commit count, which feeds the instruction-diff
  staggering counter): one byte per observed cycle;
* per monitored core, ``ports`` (every register-port ``(enable,
  value)`` sample, reads then writes) and ``stages`` (the per-stage
  instruction-word occupancy, ``None`` = empty stage): one tuple per
  cycle on which that core was not held.  The signature units freeze
  on hold, so nothing else is consumed then.  The stage words are the
  one IS tap: the live monitor and replay both derive the INFLIGHT
  window from them
  (:func:`repro.core.signatures.inflight_from_stage_words`).

:class:`StreamRecorder` owns the trace it fills.  On the reference
tier :meth:`repro.core.monitor.DiversityMonitor.observe` calls
:meth:`StreamRecorder.record` every observed cycle; the fast tier's
generated span calls nothing, it appends the values it computes for
the signature units straight to the columns through
:meth:`StreamRecorder.appends`.  Iterating a trace yields per-cycle
views (:class:`CycleSample` holding two :class:`CoreSample`) built on
the fly, and :meth:`StreamTrace.append` fills the columns from such
views.

The binary codec is a small JSON metadata header followed by a
zlib-compressed LEB128 varint body using cycle-gap deltas, port-value
XOR deltas against the previous cycle, and a shared instruction-word
dictionary (loop bodies repeat the same few words for thousands of
cycles).  Encoding is fully lossless: ``decode(encode(t))``
reproduces every column bit for bit.

``repro.replay`` recomputes monitor outcomes from these traces for any
monitor configuration without touching ``repro.cpu``/``repro.mem``.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from array import array
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

#: Bump when the binary layout changes; decoding rejects other versions.
TRACE_SCHEMA_VERSION = 1

_MAGIC = b"SDMT"


@dataclass(frozen=True)
class CoreSample:
    """One core's raw monitor taps for one cycle: a view of the
    trace's columns.

    ``ports`` and ``stages`` are ``None`` when the pipeline held: the
    signature units freeze on hold, so the values are never consumed.
    """

    hold: bool
    commits: int
    ports: Optional[Tuple[Tuple[int, int], ...]]
    stages: Optional[Tuple[Optional[Tuple[int, ...]], ...]]


@dataclass(frozen=True)
class CycleSample:
    """Both monitored cores' taps for one observed cycle."""

    cycle: int
    cores: Tuple[CoreSample, ...]


@dataclass
class TraceMeta:
    """Simulation-side context a replay cannot recompute.

    The monitor-independent fields of a
    :class:`~repro.soc.experiment.RunResult` live here, so a replayed
    result only needs the monitor counters recomputed.
    """

    benchmark: str = "program"
    stagger_nops: int = 0
    late_core: int = 1
    rr_start: int = 0
    max_cycles: int = 0
    #: Instruction-diff preload (program-level staggering correction).
    diff_preload: int = 0
    cycles: int = 0
    committed: int = 0
    finished: bool = False
    ipc: float = 0.0
    #: Simulation cache key the trace is content-addressed by ("" when
    #: captured outside the cache machinery).
    sim_key: str = ""


_META_FIELDS = frozenset(field.name for field in
                         dataclasses.fields(TraceMeta))


def _meta_from(blob: bytes) -> TraceMeta:
    """The :class:`TraceMeta` of an encoded header's JSON object."""
    try:
        fields = json.loads(blob.decode("utf-8"))
    except ValueError as exc:
        raise ValueError("corrupt trace metadata (%s)" % exc) from None
    if not isinstance(fields, dict):
        raise ValueError("corrupt trace metadata (expected a JSON object)")
    unknown = sorted(set(fields) - _META_FIELDS)
    if unknown:
        raise ValueError("corrupt trace metadata (unknown field %s)"
                         % ", ".join(map(repr, unknown)))
    return TraceMeta(**fields)


def _write_varint(out: bytearray, value: int):
    if value < 0:
        raise ValueError("varint values must be non-negative: %d" % value)
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def varint(self) -> int:
        data = self.data
        pos = self.pos
        result = 0
        shift = 0
        while True:
            if pos >= len(data):
                raise ValueError("truncated varint")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self.pos = pos
                return result
            shift += 7

    def read(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise ValueError("truncated stream")
        blob = self.data[self.pos:end]
        self.pos = end
        return blob


def _core_views(hold, commits, ports, stages) -> Iterator[CoreSample]:
    """One core's per-cycle views, read off its four columns."""
    ports = iter(ports)
    stages = iter(stages)
    for held, count in zip(hold, commits):
        if held:
            yield CoreSample(True, count, None, None)
        else:
            yield CoreSample(False, count, next(ports), next(stages))


class StreamTrace:
    """A capture's columns plus metadata (see the module docstring).

    ``samples`` fills the columns from per-cycle views, as
    :meth:`append` does; iterating yields the views back.
    """

    def __init__(self, meta: Optional[TraceMeta] = None,
                 samples: Optional[List[CycleSample]] = None):
        self.meta = meta or TraceMeta()
        self.cycles = array("q")
        self.hold = (bytearray(), bytearray())
        self.commits = (bytearray(), bytearray())
        self.ports: Tuple[list, list] = ([], [])
        self.stages: Tuple[list, list] = ([], [])
        for sample in samples or ():
            self.append(sample)

    def append(self, sample: CycleSample):
        """Add one observed cycle, given as its per-cycle view."""
        cores = sample.cores
        if len(cores) != 2:
            raise ValueError("a cycle holds exactly two cores, got %d"
                             % len(cores))
        for core in cores:
            if not core.hold and (core.ports is None
                                  or core.stages is None):
                raise ValueError("non-hold samples need ports and stages")
        self.cycles.append(sample.cycle)
        for index, core in enumerate(cores):
            self.hold[index].append(1 if core.hold else 0)
            self.commits[index].append(core.commits)
            if not core.hold:
                self.ports[index].append(core.ports)
                self.stages[index].append(core.stages)

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self) -> Iterator[CycleSample]:
        """The per-cycle views, built as they are read."""
        return map(CycleSample, self.cycles, zip(
            *map(_core_views, self.hold, self.commits, self.ports,
                 self.stages)))

    @property
    def samples(self) -> List[CycleSample]:
        """Every observed cycle's view, in a new list."""
        return list(self)

    # -- binary codec ------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize to the compact binary form (lossless)."""
        header = bytearray(_MAGIC)
        _write_varint(header, TRACE_SCHEMA_VERSION)
        meta_json = json.dumps(dataclasses.asdict(self.meta),
                               sort_keys=True,
                               separators=(",", ":")).encode("utf-8")
        _write_varint(header, len(meta_json))
        header += meta_json

        body = bytearray()
        append = body.append
        _write_varint(body, len(self.cycles))
        word_ids: dict = {}
        # Encoded stage tuples whose words all had dictionary ids
        # before: every later occurrence encodes to the same bytes.
        stage_bytes: dict = {}
        # Encoded port deltas of two bytes or more: register values
        # repeat, so most deltas recur.
        delta_bytes: dict = {}
        prev_ports: Tuple[List[int], List[int]] = ([], [])
        ports_of = tuple(map(iter, self.ports))
        stages_of = tuple(map(iter, self.stages))
        hold0, hold1 = self.hold
        commits0, commits1 = self.commits
        prev_cycle = -1
        for cycle, held0, count0, held1, count1 in zip(
                self.cycles, hold0, commits0, hold1, commits1):
            gap = cycle - prev_cycle - 1
            if gap < 0:
                raise ValueError("cycles must be strictly increasing")
            if gap < 0x80:
                append(gap)
            else:
                _write_varint(body, gap)
            prev_cycle = cycle
            append(2)
            for index, held, count in ((0, held0, count0),
                                       (1, held1, count1)):
                append(held)
                if count < 0x80:
                    append(count)
                else:
                    _write_varint(body, count)
                if held:
                    continue
                ports = next(ports_of[index])
                stages = next(stages_of[index])
                prev = prev_ports[index]
                while len(prev) < len(ports):
                    prev.append(0)
                if len(ports) < 0x80:
                    append(len(ports))
                else:
                    _write_varint(body, len(ports))
                mask = 0
                deltas = []
                for bit, (enable, value) in enumerate(ports):
                    if enable:
                        mask |= 1 << bit
                    deltas.append(value ^ prev[bit])
                    prev[bit] = value
                if mask < 0x80:
                    append(mask)
                else:
                    _write_varint(body, mask)
                for delta in deltas:
                    if delta < 0x80:
                        append(delta)
                        continue
                    known = delta_bytes.get(delta)
                    if known is None:
                        known = bytearray()
                        _write_varint(known, delta)
                        known = delta_bytes[delta] = bytes(known)
                    body += known
                known = stage_bytes.get(stages)
                if known is not None:
                    body += known
                    continue
                start = len(body)
                fresh = False
                _write_varint(body, len(stages))
                for words in stages:
                    if words is None:
                        append(0)
                        continue
                    _write_varint(body, len(words) + 1)
                    for word in words:
                        ref = word_ids.get(word)
                        if ref is None:
                            word_ids[word] = len(word_ids)
                            fresh = True
                            append(0)
                            _write_varint(body, word)
                        else:
                            _write_varint(body, ref + 1)
                if not fresh:
                    stage_bytes[stages] = bytes(body[start:])
        return bytes(header) + zlib.compress(body, 6)

    @classmethod
    def decode(cls, data: bytes) -> "StreamTrace":
        """Rebuild a trace from :meth:`encode` output, column by
        column."""
        if data[:len(_MAGIC)] != _MAGIC:
            raise ValueError("not a stream trace (bad magic)")
        reader = _Reader(data, len(_MAGIC))
        version = reader.varint()
        if version != TRACE_SCHEMA_VERSION:
            raise ValueError("unsupported trace schema %d" % version)
        trace = cls(meta=_meta_from(reader.read(reader.varint())))
        try:
            reader = _Reader(zlib.decompress(data[reader.pos:]))
        except zlib.error as exc:
            raise ValueError("corrupt stream (%s)" % exc) from None

        add_cycle = trace.cycles.append
        columns = tuple(zip(trace.hold, trace.commits, trace.ports,
                            trace.stages, ([], [])))
        words_by_id: List[int] = []
        cycle = -1
        for _ in range(reader.varint()):
            cycle += reader.varint() + 1
            add_cycle(cycle)
            cores = reader.varint()
            if cores != 2:
                raise ValueError("corrupt stream (a cycle holds exactly"
                                 " two cores, got %d)" % cores)
            for hold, commits, ports_column, stages_column, prev \
                    in columns:
                held = reader.read(1)[0] != 0
                hold.append(held)
                commits.append(reader.varint())
                if held:
                    continue
                num_ports = reader.varint()
                while len(prev) < num_ports:
                    prev.append(0)
                mask = reader.varint()
                ports = []
                for bit in range(num_ports):
                    value = reader.varint() ^ prev[bit]
                    prev[bit] = value
                    ports.append(((mask >> bit) & 1, value))
                stages: List[Optional[Tuple[int, ...]]] = []
                for _ in range(reader.varint()):
                    token = reader.varint()
                    if token == 0:
                        stages.append(None)
                        continue
                    words = []
                    for _ in range(token - 1):
                        ref = reader.varint()
                        if ref == 0:
                            word = reader.varint()
                            words_by_id.append(word)
                        else:
                            word = words_by_id[ref - 1]
                        words.append(word)
                    stages.append(tuple(words))
                ports_column.append(tuple(ports))
                stages_column.append(tuple(stages))
        return trace

    def byte_size(self) -> int:
        """Encoded size in bytes.  This encodes the whole trace: about
        9.5–12 ms per 1000 observed cycles on a shared 2-CPU x86 host
        (cosf, countnegative and binarysearch captures)."""
        return len(self.encode())

    def save(self, path) -> int:
        """Write the encoded trace to ``path`` and return its size in
        bytes."""
        payload = self.encode()
        with open(path, "wb") as handle:
            handle.write(payload)
        return len(payload)

    @classmethod
    def load(cls, path) -> "StreamTrace":
        with open(path, "rb") as handle:
            return cls.decode(handle.read())


class StreamRecorder:
    """Capture hook that fills its own :class:`StreamTrace` during a
    live run.

    Attach via :meth:`DiversityMonitor.attach_capture`.  On the
    reference tier the monitor calls :meth:`record` once per observed
    cycle, before sampling, so the recorder sees exactly what the
    signature units consume.  The fast tier never calls :meth:`record`:
    its span appends the same values to the columns in line, through
    the bound appends :meth:`appends` hands it.
    """

    def __init__(self):
        self.trace = StreamTrace()
        #: Instruction-diff preload at attach time (set by the caller
        #: that wired the capture, e.g. ``run_redundant``).
        self.diff_preload = 0
        self._appends = self.appends()

    def appends(self):
        """``(cycle, cores)``: the bound ``append`` of the cycle column,
        and per monitored core those of its ``(hold, commits, ports,
        stages)`` columns."""
        trace = self.trace
        return trace.cycles.append, tuple(
            (hold.append, commits.append, ports.append, stages.append)
            for hold, commits, ports, stages in zip(
                trace.hold, trace.commits, trace.ports, trace.stages))

    def record(self, cycle: int, core0, core1):
        """Tap both cores for one observed cycle."""
        add_cycle, columns = self._appends
        add_cycle(cycle)
        for core, (hold, commits, ports, stages) in zip((core0, core1),
                                                        columns):
            hold(core.hold)
            commits(core.commits_this_cycle)
            if not core.hold:
                ports(tuple(core.regfile.port_samples()))
                stages(tuple(core.stage_words()))

    def __len__(self) -> int:
        return len(self.trace)

    def to_trace(self, meta: Optional[TraceMeta] = None) -> StreamTrace:
        """The recorded trace, with ``meta`` (``meta.diff_preload`` is
        filled from the recorder if the caller left it at zero)."""
        meta = meta or TraceMeta()
        if meta.diff_preload == 0:
            meta.diff_preload = self.diff_preload
        self.trace.meta = meta
        return self.trace
