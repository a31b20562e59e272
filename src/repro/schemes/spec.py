"""Redundancy-scheme specification (leaf module, no platform imports).

:class:`SchemeSpec` is the *configuration* half of a redundancy scheme:
a frozen value naming the kind and its parameters.  The runtime half —
replica topology, per-cycle check taps, verdicts — lives in
:mod:`repro.schemes.base` and is built from a spec via
:func:`repro.schemes.make_scheme`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Scheme kinds accepted by ``SchemeSpec`` / the ``--scheme`` CLI flag.
SCHEME_KINDS: Tuple[str, ...] = ("safedm", "lockstep", "tmr",
                                 "multipair", "dme")

#: Callee-saved registers the DME transform may permute: s1 and
#: s2..s11.  s0 (x8) is excluded — the workload contract stores the
#: checksum there — as are ra/sp/gp/tp/t* and the argument registers,
#: whose roles are pinned by the bare-metal startup convention.
DME_ROTATABLE: Tuple[int, ...] = (9, 18, 19, 20, 21, 22, 23, 24, 25,
                                  26, 27)


@dataclass(frozen=True)
class SchemeSpec:
    """Declarative description of one redundancy scheme.

    Only the fields relevant to ``kind`` are consulted; the others keep
    their defaults so every spec canonicalizes to a stable cache-key
    payload.

    * ``safedm`` — the paper's monitored non-lockstepped pair (cores 0,
      1).
    * ``lockstep`` — DCLS pair: shadow core behind a ``stagger``-cycle
      delay, per-commit stream comparison (diversity ≡ 0 control).
    * ``tmr`` — three replicas and a per-commit majority voter.
    * ``multipair`` — ``pairs`` monitored pairs sharing one bus.
    * ``dme`` — the trail core runs a structurally decorrelated build:
      text reassembled at ``+dme_text_shift``, callee-saved temporaries
      re-register-allocated by ``dme_rotation``, data section base
      shifted by ``dme_data_shift``.
    """

    kind: str = "safedm"
    #: Lockstep comparator delay / shadow nop-sled length (cycles).
    stagger: int = 2
    #: Monitored pair topology for ``multipair``.
    pairs: Tuple[Tuple[int, int], ...] = ((0, 1), (2, 3))
    #: Replica count for ``tmr``.
    replicas: int = 3
    #: DME: trail text image base shift (bytes, word-aligned).
    dme_text_shift: int = 0x0002_0000
    #: DME: trail data section (gp) shift inside its region (bytes).
    dme_data_shift: int = 0x800
    #: DME: rotation applied to the permutable register set.
    dme_rotation: int = 3

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError("unknown scheme kind %r (expected one of"
                             " %s)" % (self.kind,
                                       ", ".join(SCHEME_KINDS)))
        if self.stagger < 1:
            raise ValueError("scheme stagger must be >= 1 cycle")
        if self.kind == "tmr" and self.replicas != 3:
            raise ValueError("TMR votes over exactly 3 replicas")
        if self.kind == "multipair":
            if len(self.pairs) < 2:
                raise ValueError("multipair needs >= 2 monitored pairs")
            seen = set()
            for pair in self.pairs:
                if len(pair) != 2:
                    raise ValueError("bad multipair pair %r" % (pair,))
                seen.update(pair)
            if len(seen) != 2 * len(self.pairs):
                raise ValueError("multipair pairs must not share cores")
        if self.kind == "dme":
            if self.dme_text_shift % 8:
                raise ValueError("DME text shift must be 8-byte"
                                 " aligned")
            if self.dme_data_shift % 16:
                raise ValueError("DME data shift must be 16-byte"
                                 " aligned")
            if self.dme_rotation % len(DME_ROTATABLE) == 0:
                raise ValueError(
                    "DME rotation %d is the identity over the %d"
                    " permutable registers; pick a rotation that"
                    " actually decorrelates" %
                    (self.dme_rotation, len(DME_ROTATABLE)))
