"""RISC-V integer register file names and ABI aliases.

The NOEL-V core modelled by this reproduction is an RV64 design with the
standard 32 integer registers.  This module is the single source of truth
for register naming used by the assembler, the disassembler and the
pipeline model.
"""

from __future__ import annotations

NUM_REGISTERS = 32
XLEN = 64
XMASK = (1 << XLEN) - 1

#: The kernels' checksum register (s0 == x8): every kernel leaves its
#: result here, and the fault classifier, the scheme checkers, the RTOS
#: jobs and the static masking proofs read it at halt.
RESULT_REGISTER = 8

#: Canonical ABI names indexed by register number.
ABI_NAMES = (
    "zero", "ra", "sp", "gp", "tp",
    "t0", "t1", "t2",
    "s0", "s1",
    "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
    "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
    "t3", "t4", "t5", "t6",
)

#: Extra accepted aliases.
_ALIASES = {"fp": 8, "s0": 8}


def _build_name_table() -> dict:
    table = {}
    for idx, name in enumerate(ABI_NAMES):
        table[name] = idx
        table["x%d" % idx] = idx
    table.update(_ALIASES)
    return table


#: Mapping of every accepted register spelling to its index.
NAME_TO_INDEX = _build_name_table()


class RegisterError(ValueError):
    """Raised for an unknown register name or an out-of-range index."""


def parse_register(name: str) -> int:
    """Return the register index for ``name`` (ABI or ``xN`` spelling).

    >>> parse_register("a0")
    10
    >>> parse_register("x31")
    31
    """
    key = name.strip().lower()
    if key not in NAME_TO_INDEX:
        raise RegisterError("unknown register name: %r" % name)
    return NAME_TO_INDEX[key]


def register_name(index: int) -> str:
    """Return the canonical ABI name of register ``index``.

    >>> register_name(2)
    'sp'
    """
    if not 0 <= index < NUM_REGISTERS:
        raise RegisterError("register index out of range: %r" % index)
    return ABI_NAMES[index]


def to_signed(value: int, bits: int = XLEN) -> int:
    """Interpret ``value`` (masked to ``bits``) as a two's-complement int."""
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def to_unsigned(value: int, bits: int = XLEN) -> int:
    """Mask ``value`` to an unsigned ``bits``-wide integer."""
    return value & ((1 << bits) - 1)
