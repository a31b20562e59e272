"""Architectural register file with tapped (observable) ports.

SafeDM's data signature is built from "the data being read/written for
the last n cycles on each of the register ports" (paper Section
III-B.1).  The register file therefore exposes, every cycle, one sample
per physical port: ``(enable, value)``.  The pipeline records reads at
the register-access stage and writes at writeback, mirroring where the
NOEL-V register file ports are exercised.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Deque, List, Optional, Tuple

from ..isa.registers import NUM_REGISTERS, XMASK

#: A port sample: (enable, 64-bit value on the port).
PortSample = Tuple[int, int]

IDLE_SAMPLE: PortSample = (0, 0)


class RegisterFile:
    """32 x 64-bit integer registers plus a readiness scoreboard.

    ``ready_cycle[r]`` is the first cycle at which a consumer may issue
    reading ``r`` (bypass network included: an ALU result is readable the
    cycle after issue).  ``PENDING`` marks a register whose producing
    load has not yet completed in the memory stage.
    """

    PENDING = 1 << 62

    __slots__ = ("values", "ready_cycle", "num_read_ports",
                 "num_write_ports", "read_samples", "write_samples",
                 "_idle_reads", "_idle_writes")

    def __init__(self, num_read_ports: int = 4, num_write_ports: int = 2):
        self.values: List[int] = [0] * NUM_REGISTERS
        self.ready_cycle: List[int] = [0] * NUM_REGISTERS
        self.num_read_ports = num_read_ports
        self.num_write_ports = num_write_ports
        # Idle templates: begin_cycle() refills the live sample lists
        # in place from these instead of allocating fresh lists.
        self._idle_reads: List[PortSample] = [IDLE_SAMPLE] * num_read_ports
        self._idle_writes: List[PortSample] = [IDLE_SAMPLE] * num_write_ports
        self.read_samples: List[PortSample] = list(self._idle_reads)
        self.write_samples: List[PortSample] = list(self._idle_writes)

    # -- architectural access ---------------------------------------------

    def read(self, index: int) -> int:
        """Architectural read (x0 hardwired to zero)."""
        return self.values[index] if index else 0

    def write(self, index: int, value: int):
        """Architectural write (writes to x0 are dropped)."""
        if index:
            self.values[index] = value & XMASK

    # -- scoreboard ------------------------------------------------------------

    def ready(self, index: int, cycle: int) -> bool:
        """True when register ``index`` may be read at ``cycle``."""
        return index == 0 or self.ready_cycle[index] <= cycle

    def set_ready(self, index: Optional[int], cycle: int):
        if index:
            self.ready_cycle[index] = cycle

    def mark_pending(self, index: Optional[int]):
        """Mark ``index`` as produced by an in-flight load."""
        if index:
            self.ready_cycle[index] = self.PENDING

    # -- port observation ----------------------------------------------------

    def begin_cycle(self):
        """Reset port samples; the pipeline re-records any activity."""
        self.read_samples[:] = self._idle_reads
        self.write_samples[:] = self._idle_writes

    def record_read(self, port: int, index: int):
        """Tap a read of register ``index`` on read port ``port``."""
        self.read_samples[port] = (1, self.read(index))

    def record_write(self, port: int, index: int, value: int):
        """Tap a write on write port ``port`` (x0 writes still toggle the
        port in hardware, so they are recorded too)."""
        self.write_samples[port] = (1, value & XMASK)

    def port_samples(self) -> List[PortSample]:
        """All port samples for this cycle, reads then writes."""
        return self.read_samples + self.write_samples

    def reset(self):
        self.values = [0] * NUM_REGISTERS
        self.ready_cycle = [0] * NUM_REGISTERS
        self.begin_cycle()

    # -- snapshot protocol ------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "values": list(self.values),
            "ready_cycle": list(self.ready_cycle),
            "read_samples": [list(sample) for sample in self.read_samples],
            "write_samples": [list(sample) for sample in self.write_samples],
        }

    def load_state_dict(self, state):
        values = [int(v) for v in state["values"]]
        if len(values) != NUM_REGISTERS:
            raise ValueError("snapshot has %d registers, expected %d"
                             % (len(values), NUM_REGISTERS))
        reads = state["read_samples"]
        writes = state["write_samples"]
        if (len(reads) != self.num_read_ports
                or len(writes) != self.num_write_ports):
            raise ValueError("snapshot port counts do not match regfile")
        self.values = values
        self.ready_cycle = [int(v) for v in state["ready_cycle"]]
        # Samples must restore as tuples: signature rows hash them.
        self.read_samples = [(int(en), int(val)) for en, val in reads]
        self.write_samples = [(int(en), int(val)) for en, val in writes]


class RecordingRegisterFile(RegisterFile):
    """A :class:`RegisterFile` that logs architectural accesses.

    Used only on the golden run (:func:`repro.fault.injector.
    record_golden_run`), to drive the dead-register analysis:
    ``(0, r)`` = read of ``r``, ``(1, r)`` = write, ``(3, c)`` = cycle
    ``c`` starts.  The recorder appends the cycle markers and, per
    cycle, the owning core's issue frontier to :attr:`frontier` (a
    packed ``array``: a campaign keeps it for its lifetime); both
    engine tiers produce the same log (the fast tier logs in its
    generated code).  Behaviour is bit-identical to the base class —
    the overrides only append to the log.

    The log is a ``deque``, which grows in fixed-size blocks.  A list
    would grow one buffer by reallocation, and freeing a long
    recording's buffer raises glibc's threshold for mapping large
    blocks: later recordings in the process would grow theirs inside
    the heap and fragment it, so a campaign's peak memory would depend
    on the campaigns run before it.
    """

    __slots__ = ("log", "frontier")

    def __init__(self, source: RegisterFile):
        super().__init__(num_read_ports=source.num_read_ports,
                         num_write_ports=source.num_write_ports)
        self.values = list(source.values)
        self.ready_cycle = list(source.ready_cycle)
        self.read_samples = list(source.read_samples)
        self.write_samples = list(source.write_samples)
        self.log: Deque[Tuple[int, int]] = deque()
        self.frontier = array("q")

    def read(self, index: int) -> int:
        if index:
            self.log.append((0, index))
            return self.values[index]
        return 0

    def write(self, index: int, value: int):
        if index:
            self.log.append((1, index))
            self.values[index] = value & XMASK
