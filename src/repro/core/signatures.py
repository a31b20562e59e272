"""Data and instruction signature generators (paper Section III-B).

The *Data Signature* (DS) concatenates, for each monitored register
port, the last ``n`` cycles of (enable, value) samples:

    DS = RP_1^1 .. RP_1^n  RP_2^1 .. RP_2^n  ...  RP_m^1 .. RP_m^n

The *Instruction Signature* (IS) concatenates the per-stage instruction
slots of the pipeline:

    IS = I_1^1 .. I_p^1  I_1^2 .. I_p^2  ...  I_1^o .. I_p^o

with a (valid, encoding) pair per slot, so two cores holding the same
instructions but in different stages produce different signatures.  For
cores without all-or-none stage movement the paper's fallback — the
FIFO of fetched-but-not-retired instructions — is available as
``IsVariant.INFLIGHT``.

Each unit has one representation of its captured state, sampled from
one tap per core: the DS keeps a window of register-port rows (ports
are recorded every cycle, paper III-B.1), and the IS takes the
per-stage instruction words, from which the INFLIGHT window is
derived.

Implementation note: units expose both a tuple-building ``signature()``
(introspection, tests) and an ``equal()`` used by the cycle-loop
monitor.  ``equal()`` compares the captured state bit for bit, as the
hardware comparators do, without re-tupling it into the signature
layout: the DS row window, or the IS stage words (in-flight window
under INFLIGHT).  Both views hold the same information, so ``equal()``
is True exactly when the ``signature()``s are equal.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


class IsVariant(enum.Enum):
    """Instruction-signature construction variant."""

    #: Per-stage slots (paper's main design; needs group stage movement).
    PER_STAGE = "per_stage"
    #: FIFO of fetched-but-not-retired instructions (paper's fallback).
    INFLIGHT = "inflight"


@dataclass(frozen=True)
class SignatureConfig:
    """Geometry of the signature units for one core.

    ``ds_depth`` is *n* (paper: "depends on the depth of the processor
    pipeline and is implementation specific"); ``num_ports`` is *m*;
    ``pipeline_width`` is *p*; ``pipeline_stages`` is *o*.
    """

    num_ports: int = 4
    ds_depth: int = 7
    pipeline_width: int = 2
    pipeline_stages: int = 7
    is_variant: IsVariant = IsVariant.PER_STAGE
    #: Depth of the fallback in-flight FIFO (width * stages by default).
    inflight_depth: int = 14


IDLE = (0, 0)


def inflight_from_stage_words(stage_words) -> Tuple[int, ...]:
    """In-flight instruction window derived from per-stage occupancy.

    The INFLIGHT fallback's fetched-but-not-retired FIFO is exactly the
    pipeline contents read deepest-stage-first, so one per-stage tap
    (:meth:`repro.cpu.core.Core.stage_words`, live or captured by
    :mod:`repro.trace.stream_trace`) feeds either IS variant.
    """
    words: List[int] = []
    for group in reversed(stage_words):
        if group:
            words.extend(group)
    return tuple(words)


def inflight_window(words: Sequence[int], depth: int) -> Tuple[int, ...]:
    """The INFLIGHT FIFO's contents for in-flight ``words``: the
    youngest ``depth`` of them, zero-padded to the FIFO depth."""
    window = tuple(words[-depth:]) if len(words) > depth else tuple(words)
    return (0,) * (depth - len(window)) + window


class DataSignatureUnit:
    """Per-register-port FIFOs feeding the Data Signature (Fig. 2a).

    Ports are sampled every cycle (paper III-B.1), so all port FIFOs
    shift in lockstep and the unit stores one *row* (the tuple of port
    samples) per cycle; ``equal`` compares the two row windows.
    """

    __slots__ = ("config", "_num_ports", "_rows")

    def __init__(self, config: SignatureConfig):
        self.config = config
        self._num_ports = config.num_ports
        self.reset()

    def sample(self, port_samples: Sequence[Tuple[int, int]],
               hold: bool = False):
        """Clock one cycle of register-port activity into the FIFOs.

        ``port_samples`` must supply at least ``num_ports`` entries of
        (enable, value); extra ports beyond the monitored set are
        ignored (an integration choice, mirroring the 4 monitored ports
        of the paper's NOEL-V instance).  The pipeline ``hold`` signal
        freezes the FIFOs.
        """
        if hold:
            return
        num_ports = self._num_ports
        if len(port_samples) < num_ports:
            raise ValueError("expected >= %d port samples, got %d"
                             % (num_ports, len(port_samples)))
        self._rows.append(tuple(port_samples[:num_ports]))

    # -- comparison ---------------------------------------------------------

    def equal(self, other: "DataSignatureUnit") -> bool:
        """DS comparison (used every cycle by the monitor)."""
        return self._rows == other._rows

    def signature(self) -> Tuple:
        """The DS: concatenation of all FIFO contents, oldest first."""
        out = []
        rows = self._rows
        for port in range(self._num_ports):
            out.extend(row[port] for row in rows)
        return tuple(out)

    def signature_bits(self) -> int:
        """Width of the DS in flops (enable + 64-bit value per entry)."""
        return self.config.num_ports * self.config.ds_depth * 65

    def layout(self) -> str:
        """Human-readable Fig. 2a-style layout description."""
        cfg = self.config
        return ("DS = " + " ".join(
            "RP_%d^1..RP_%d^%d" % (port + 1, port + 1, cfg.ds_depth)
            for port in range(cfg.num_ports)))

    def reset(self):
        depth = self.config.ds_depth
        idle_row = (IDLE,) * self._num_ports
        self._rows = deque([idle_row] * depth, maxlen=depth)

    # -- snapshot protocol ------------------------------------------------

    def state_dict(self) -> dict:
        return {"rows": [[list(sample) for sample in row]
                         for row in self._rows]}

    def load_state_dict(self, state):
        depth = self.config.ds_depth
        rows = [tuple((int(en), int(val)) for en, val in row)
                for row in state["rows"]]
        if len(rows) != depth:
            raise ValueError("snapshot has %d DS rows, expected %d"
                             % (len(rows), depth))
        for row in rows:
            if len(row) != self._num_ports:
                raise ValueError("snapshot DS row width mismatch")
        self._rows = deque(rows, maxlen=depth)


class InstructionSignatureUnit:
    """Per-stage slot capture feeding the Instruction Signature (Fig. 2b)."""

    __slots__ = ("config", "_variant", "_stage_words", "_inflight_words")

    def __init__(self, config: SignatureConfig):
        self.config = config
        self._variant = config.is_variant
        #: PER_STAGE: per-stage word tuples (None = empty stage).  Kept
        #: as a tuple so the sampled value can be stored as-is (the fast
        #: execution tier writes the stage tuple it already built).
        self._stage_words: Tuple[Optional[Tuple[int, ...]], ...] = \
            (None,) * config.pipeline_stages
        #: INFLIGHT: zero-padded window of in-flight words.
        self._inflight_words: Tuple[int, ...] = \
            (0,) * config.inflight_depth

    # -- clocking ----------------------------------------------------------

    def sample_stage_words(self,
                           stage_words: Sequence[Optional[Tuple[int, ...]]],
                           hold: bool = False):
        """Clock one cycle of pipeline-stage occupancy (either variant).

        ``stage_words`` holds, per stage, the tuple of instruction words
        occupying it (None when empty).  Under INFLIGHT the unit keeps
        the in-flight window derived from it
        (:func:`inflight_from_stage_words`), windowed as
        :meth:`sample_inflight` does.  On ``hold`` the previous state
        is kept — which equals the live state, since a held pipeline
        moved nothing.
        """
        if hold:
            return
        words = tuple(stage_words)
        if len(words) != self.config.pipeline_stages:
            raise ValueError("expected %d stages, got %d"
                             % (self.config.pipeline_stages, len(words)))
        if self._variant is IsVariant.PER_STAGE:
            self._stage_words = words
        else:
            self.sample_inflight(inflight_from_stage_words(words))

    def sample_stages(self, stage_slots: Sequence[Sequence[Tuple[int, int]]],
                      hold: bool = False):
        """Clock from explicit (valid, word) slot form (test-friendly)."""
        words = []
        for stage in stage_slots:
            live = tuple(word for valid, word in stage if valid)
            words.append(live if live else None)
        self.sample_stage_words(words, hold=hold)

    def sample_inflight(self, words: Sequence[int], hold: bool = False):
        """Clock one cycle of the fallback in-flight view (INFLIGHT mode).

        The hardware keeps a FIFO enqueued at fetch / dequeued at retire;
        behaviourally that FIFO's contents *are* the in-flight window, so
        we capture the window directly, zero-padded to the FIFO depth.
        """
        if self._variant is not IsVariant.INFLIGHT:
            raise ValueError("unit configured for %s" % self._variant)
        if hold:
            return
        self._inflight_words = inflight_window(words,
                                               self.config.inflight_depth)

    # -- comparison / introspection ---------------------------------------------

    def equal(self, other: "InstructionSignatureUnit") -> bool:
        """IS comparison (used every cycle by the monitor)."""
        if self._variant is IsVariant.PER_STAGE:
            return self._stage_words == other._stage_words
        return self._inflight_words == other._inflight_words

    def signature(self) -> Tuple:
        """The IS: concatenation of all slots, stage-major."""
        if self._variant is IsVariant.INFLIGHT:
            return self._inflight_words
        width = self.config.pipeline_width
        out = []
        for words in self._stage_words:
            slots = [(1, word) for word in words] if words else []
            while len(slots) < width:
                slots.append(IDLE)
            out.extend(slots)
        return tuple(out)

    def signature_bits(self) -> int:
        """Width of the IS in flops (valid + 32-bit encoding per slot)."""
        cfg = self.config
        if self._variant is IsVariant.INFLIGHT:
            return cfg.inflight_depth * 33
        return cfg.pipeline_stages * cfg.pipeline_width * 33

    def layout(self) -> str:
        """Human-readable Fig. 2b-style layout description."""
        cfg = self.config
        if self._variant is IsVariant.INFLIGHT:
            return "IS = fetched-not-retired[1..%d]" % cfg.inflight_depth
        return ("IS = " + " ".join(
            "I_1^%d..I_%d^%d" % (stage + 1, cfg.pipeline_width, stage + 1)
            for stage in range(cfg.pipeline_stages)))

    def reset(self):
        self._stage_words = (None,) * self.config.pipeline_stages
        self._inflight_words = (0,) * self.config.inflight_depth

    # -- snapshot protocol ------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "stage_words": [None if words is None else list(words)
                            for words in self._stage_words],
            "inflight_words": list(self._inflight_words),
        }

    def load_state_dict(self, state):
        stage_words = tuple(None if words is None
                            else tuple(int(word) for word in words)
                            for words in state["stage_words"])
        if len(stage_words) != self.config.pipeline_stages:
            raise ValueError("snapshot has %d IS stages, expected %d"
                             % (len(stage_words),
                                self.config.pipeline_stages))
        inflight = tuple(int(word) for word in state["inflight_words"])
        if len(inflight) != self.config.inflight_depth:
            raise ValueError("snapshot in-flight window depth mismatch")
        self._stage_words = stage_words
        self._inflight_words = inflight
