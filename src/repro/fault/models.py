"""Fault models for the CCF campaign.

The paper's physical argument: a common-cause disturbance (voltage
droop, clock glitch) hits both cores, and *what it corrupts depends on
the electrical state of each core at that instant*.  If the two cores'
states are identical, the corruption is identical and the redundant
outputs still match — the undetectable CCF.  If the states differ in
anything, the corruptions differ and output comparison catches them.

We operationalize that with a state-dependent fault effect: the
corrupted register and bit are derived from a deterministic digest of
the core's full microarchitectural state, so identical states yield
identical corruptions and different states (almost surely) different
ones.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

from ..cpu.core import Core


def state_digest(core: Core) -> int:
    """Deterministic digest of a core's *active* electrical state.

    A physical disturbance couples into whatever is switching: the
    in-flight instructions (per-stage words), the fetch PC and the
    register-port traffic of the current cycle.  Idle storage (e.g. a
    register that has not been touched for many cycles) holds its value
    without switching and contributes negligibly to transient currents,
    so it does not steer *where* the corruption lands — although it can
    of course be the victim.

    This is deliberately the same state SafeDM's signatures observe:
    the model then realises the paper's argument that a diverse
    signature window implies electrically diverse cores, and hence
    differing corruption.
    """
    crc = 0
    for words in core.stage_words():
        if words:
            for word in words:
                crc = zlib.crc32(word.to_bytes(4, "little"), crc)
        crc = zlib.crc32(b"|", crc)
    crc = zlib.crc32(core.fetch_pc.to_bytes(8, "little"), crc)
    for enable, value in core.regfile.port_samples():
        crc = zlib.crc32(bytes([enable]) + value.to_bytes(8, "little"),
                         crc)
    return crc & 0xFFFFFFFF


def ccf_target(state: int, activity: int, stimulus: int) -> Tuple[int, int]:
    """``(register, bit)`` a common-cause disturbance ``stimulus``
    corrupts on a core with the given state and activity digests.

    The one copy of the mixing arithmetic: the injector applies it to
    live cores, the Monte-Carlo classifier to digests observed on the
    golden run.
    """
    mixed = ((state ^ activity) * 0x9E3779B1 + stimulus) & 0xFFFFFFFF
    # Avoid x0 so the corruption is never trivially absorbed.
    return 1 + (mixed % 31), (mixed >> 8) % 64


@dataclass(frozen=True)
class FaultEffect:
    """A concrete corruption: flip ``bit`` of register ``register``."""

    register: int
    bit: int

    def apply(self, core: Core):
        if self.register == 0:
            return  # x0 is hardwired; the flip is absorbed
        core.regfile.values[self.register] ^= (1 << self.bit)


@dataclass(frozen=True)
class CommonCauseFault:
    """A single physical disturbance hitting both cores at one cycle.

    ``stimulus`` identifies the disturbance (droop amplitude/location);
    the actual corruption of each core is the stimulus *modulated by
    that core's state* via :func:`state_digest`.
    """

    cycle: int
    stimulus: int

    def effect_on(self, core: Core, activity: int = 0,
                  state: Optional[int] = None) -> FaultEffect:
        """Corruption produced on ``core`` by this disturbance.

        ``activity`` is a digest of the core's recent switching activity
        (the SafeDM-visible signature window): a droop's effect depends
        on the currents drawn over the last cycles, not just on the
        instantaneous register state.  ``state`` is the core's
        :func:`state_digest` when the caller already has it.
        """
        if state is None:
            state = state_digest(core)
        register, bit = ccf_target(state, activity, self.stimulus)
        return FaultEffect(register=register, bit=bit)

    def inject(self, core0: Core, core1: Core,
               digests) -> Tuple[FaultEffect, FaultEffect]:
        """Apply the disturbance to both cores, each modulated by its
        ``(state digest, activity digest)`` pair in ``digests``;
        returns both effects."""
        effect0, effect1 = (self.effect_on(core, activity, state)
                            for core, (state, activity)
                            in zip((core0, core1), digests))
        effect0.apply(core0)
        effect1.apply(core1)
        return effect0, effect1


@dataclass(frozen=True)
class TransientFault:
    """An independent single-core transient (classic SEU model)."""

    cycle: int
    core: int
    register: int
    bit: int

    def inject(self, target: Core) -> FaultEffect:
        effect = FaultEffect(register=self.register, bit=self.bit)
        effect.apply(target)
        return effect
