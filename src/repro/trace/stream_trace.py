"""Raw signature-stream capture: the capture half of capture/replay.

SafeDM is purely observational (paper Section III): the monitor reads
per-cycle pipeline-stage occupancy and register-port samples but never
perturbs the cores.  Those raw taps are therefore a pure function of
the *simulation* inputs (program, platform geometry, staggering,
arbiter start, cycle budget) and entirely independent of the *monitor*
configuration (IS variant, DS geometry, reporting mode, threshold).

:class:`StreamRecorder` hooks into
:meth:`repro.core.monitor.DiversityMonitor.attach_capture` and records,
for every observed cycle and each monitored core:

* the pipeline ``hold`` flag,
* the commit count (feeds the instruction-diff staggering counter),
* all register-port ``(enable, value)`` samples (skipped on hold —
  the signature units freeze then), and
* the per-stage instruction-word occupancy (``None`` = empty stage;
  the INFLIGHT fallback view is derivable from it, see
  :func:`repro.core.signatures.inflight_from_stage_words`).

:class:`StreamTrace` is the container plus a compact binary codec:
a small JSON metadata header followed by a zlib-compressed LEB128
varint body using cycle-gap deltas, port-value XOR deltas against the
previous cycle, and a shared instruction-word dictionary (loop bodies
repeat the same few words for thousands of cycles).  Encoding is fully
lossless: ``decode(encode(t))`` reproduces every sample bit for bit.

``repro.replay`` recomputes monitor outcomes from these traces for any
monitor configuration without touching ``repro.cpu``/``repro.mem``.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

#: Bump when the binary layout changes; decoding rejects other versions.
TRACE_SCHEMA_VERSION = 1

_MAGIC = b"SDMT"


@dataclass(frozen=True)
class CoreSample:
    """One core's raw monitor taps for one cycle.

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


class StreamTrace:
    """An ordered set of :class:`CycleSample` rows plus metadata."""

    def __init__(self, meta: Optional[TraceMeta] = None,
                 samples: Optional[List[CycleSample]] = None):
        self.meta = meta or TraceMeta()
        self.samples: List[CycleSample] = samples if samples is not None \
            else []

    def append(self, sample: CycleSample):
        self.samples.append(sample)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[CycleSample]:
        return iter(self.samples)

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
        _write_varint(body, len(self.samples))
        word_ids: dict = {}
        prev_ports: List[List[int]] = []
        prev_cycle = -1
        for sample in self.samples:
            gap = sample.cycle - prev_cycle - 1
            if gap < 0:
                raise ValueError("cycles must be strictly increasing")
            _write_varint(body, gap)
            prev_cycle = sample.cycle
            _write_varint(body, len(sample.cores))
            for index, core in enumerate(sample.cores):
                body.append(1 if core.hold else 0)
                _write_varint(body, core.commits)
                if core.hold:
                    continue
                ports = core.ports
                stages = core.stages
                if ports is None or stages is None:
                    raise ValueError(
                        "non-hold samples need ports and stages")
                while len(prev_ports) <= index:
                    prev_ports.append([])
                prev = prev_ports[index]
                while len(prev) < len(ports):
                    prev.append(0)
                _write_varint(body, len(ports))
                mask = 0
                for bit, (enable, _) in enumerate(ports):
                    if enable:
                        mask |= 1 << bit
                _write_varint(body, mask)
                for bit, (_, value) in enumerate(ports):
                    _write_varint(body, value ^ prev[bit])
                    prev[bit] = value
                _write_varint(body, len(stages))
                for words in stages:
                    if words is None:
                        _write_varint(body, 0)
                        continue
                    _write_varint(body, len(words) + 1)
                    for word in words:
                        known = word_ids.get(word)
                        if known is None:
                            word_ids[word] = len(word_ids)
                            _write_varint(body, 0)
                            _write_varint(body, word)
                        else:
                            _write_varint(body, known + 1)
        return bytes(header) + zlib.compress(bytes(body), 6)

    @classmethod
    def decode(cls, data: bytes) -> "StreamTrace":
        """Rebuild a trace from :meth:`encode` output."""
        if data[:len(_MAGIC)] != _MAGIC:
            raise ValueError("not a stream trace (bad magic)")
        reader = _Reader(data, len(_MAGIC))
        version = reader.varint()
        if version != TRACE_SCHEMA_VERSION:
            raise ValueError("unsupported trace schema %d" % version)
        meta = TraceMeta(**json.loads(
            reader.read(reader.varint()).decode("utf-8")))
        try:
            reader = _Reader(zlib.decompress(data[reader.pos:]))
        except zlib.error as exc:
            raise ValueError("corrupt stream (%s)" % exc) from None

        samples: List[CycleSample] = []
        words_by_id: List[int] = []
        prev_ports: List[List[int]] = []
        cycle = -1
        for _ in range(reader.varint()):
            cycle += reader.varint() + 1
            cores = []
            for index in range(reader.varint()):
                hold = bool(reader.read(1)[0])
                commits = reader.varint()
                if hold:
                    cores.append(CoreSample(True, commits, None, None))
                    continue
                while len(prev_ports) <= index:
                    prev_ports.append([])
                prev = prev_ports[index]
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
                cores.append(CoreSample(False, commits, tuple(ports),
                                        tuple(stages)))
            samples.append(CycleSample(cycle, tuple(cores)))
        return cls(meta=meta, samples=samples)

    def byte_size(self) -> int:
        """Encoded size in bytes (re-encodes; use sparingly)."""
        return len(self.encode())

    def save(self, path):
        with open(path, "wb") as handle:
            handle.write(self.encode())

    @classmethod
    def load(cls, path) -> "StreamTrace":
        with open(path, "rb") as handle:
            return cls.decode(handle.read())


class StreamRecorder:
    """Capture hook collecting raw monitor taps during a live run.

    Attach via :meth:`DiversityMonitor.attach_capture`; the monitor
    calls :meth:`record` once per observed cycle, before sampling, so
    the recorder sees exactly what the signature units consume.
    """

    def __init__(self):
        self.samples: List[CycleSample] = []
        #: Instruction-diff preload at attach time (set by the caller
        #: that wired the capture, e.g. ``run_redundant``).
        self.diff_preload = 0

    @staticmethod
    def _tap(core) -> CoreSample:
        if core.hold:
            return CoreSample(True, core.commits_this_cycle, None, None)
        return CoreSample(False, core.commits_this_cycle,
                          tuple(core.regfile.port_samples()),
                          tuple(core.stage_words()))

    def record(self, cycle: int, core0, core1):
        """Tap both cores for one observed cycle."""
        self.samples.append(CycleSample(
            cycle, (self._tap(core0), self._tap(core1))))

    def __len__(self) -> int:
        return len(self.samples)

    def to_trace(self, meta: Optional[TraceMeta] = None) -> StreamTrace:
        """Package the recorded samples (``meta.diff_preload`` is filled
        from the recorder if the caller left it at zero)."""
        meta = meta or TraceMeta()
        if meta.diff_preload == 0:
            meta.diff_preload = self.diff_preload
        return StreamTrace(meta=meta, samples=self.samples)
