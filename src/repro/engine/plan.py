"""Static fetch-group plans for the fast execution tier.

The fast tier (see :mod:`repro.engine.fast`) keeps all mutable state in
the *same* objects the reference interpreter uses; what it specializes
away is the per-cycle re-derivation of facts that are static for a given
program image:

* what the fetch unit will produce at a given PC — which instruction
  words, whether they pair into a dual-issue group, and where fetch goes
  next (:class:`PlanEntry`),
* what issuing that group does — operand reads, the functional result,
  scoreboard updates, branch resolution (a per-entry *issue handler*
  generated as Python source and compiled once).

A plan entry is valid for exactly one (pc, page-version) and is checked
against the live :attr:`~repro.mem.memory.Memory.page_versions` on every
fetch; a mismatch (self-modifying or reloaded code) rebuilds the entry
from the new bytes, up to ``REBUILD_BUDGET`` times per PC, before the
PC falls back to the reference fetch path for good.  Entries are
seeded from the basic blocks :class:`repro.lint.cfg.ControlFlowGraph`
computes over the assembled image and built lazily for PCs outside it
(stagger sleds).

Bit-identity contract: every statement an issue handler emits is a
transliteration of :meth:`repro.cpu.core.Core._issue` with the decoded
operands folded to constants.  Anything the transliteration cannot
prove static (unknown mnemonics, undecodable words, unallocated pages)
yields ``entry = None`` — the fast tier then delegates that PC to the
reference interpreter, reproducing even its error behaviour.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Dict, List, Optional, Tuple

from ..cpu.core import CoreConfig
from ..cpu.exec_unit import execute_alu
from ..cpu.pipeline import Group as _Group, can_pair
from ..isa.decoder import decode
from ..isa.instruction import FetchedInstruction, Instruction
from ..isa.opcodes import (
    CLASS_BRANCH,
    CLASS_DIV,
    CLASS_JUMP,
    CLASS_MUL,
)
from ..isa.program import Program
from ..lint.cfg import build_cfg
from ..mem.memory import PAGE_BITS, PAGE_MASK, Memory

#: Fetch-redirect kinds a plan entry can encode.
KIND_STATIC = 0   #: next fetch PC is a constant (sequential or jal)
KIND_JALR = 2     #: fetch blocks until the jalr issues
KIND_BRANCH = 3   #: next fetch PC depends on the branch predictor
KIND_HALT = 4     #: ecall/ebreak: fetch disables itself

_XMASK = "0xFFFFFFFFFFFFFFFF"
_PENDING = "0x4000000000000000"  # RegisterFile.PENDING == 1 << 62

# -- superblock trace-tier layout --------------------------------------
#
# On success a compiled fetch handler returns the *successor link* —
# the content of a one-slot link cell ``(next_pc, fetch_fn)`` — so
# steady-state execution threads directly from one compiled block to
# the next without any per-cycle dictionary dispatch.  Chains of these
# links across unconditional control flow and both arms of every branch
# are the superblocks; a cell whose target has no block yet holds a
# dead link, whose fetch goes to the block tier (dictionary dispatch in
# repro.engine.fast) once.  Failure codes stay integers: 0 = I-line
# fill requested in-line, 2 = page-version guard failed (self-modifying
# or reloaded code).

#: Re-specializations allowed per PC after page-version invalidations
#: (self-modifying code) before the PC is pinned to the reference path.
REBUILD_BUDGET = 4

# Deferred-counter slots shared between generated code and the fast
# tier's span loop (the ``acc`` list in repro.engine.fast).  Slots 0-12
# mirror CoreStats/EngineStats counters; 13-16 are the per-reason
# delegation histogram feeding ``EngineStats.deopt_reasons``.
ACC_FETCH = 0     # stats.fetch_groups
ACC_IFMISS = 1    # stats.ifetch_miss_cycles (miss issuance)
ACC_DECHIT = 2    # stats.decode_cache_hits
ACC_DECMISS = 3   # stats.decode_cache_misses
ACC_COMMIT = 4    # stats.committed
ACC_LOADS = 5     # stats.committed_loads
ACC_STORES = 6    # stats.committed_stores
ACC_BRANCH = 7    # stats.committed_branches
ACC_MULDIV = 8    # stats.committed_muldiv
ACC_ISSUED = 9    # stats.issued_groups (block-tier dispatch)
ACC_DUAL = 10     # stats.dual_issued_groups (block-tier dispatch)
ACC_IFAST = 11    # estats.issue_fast (block-tier dispatch)
ACC_IREF = 12     # estats.issue_ref
ACC_PLAN = 13     # deopt reason: plan_miss
ACC_PAGE = 14     # deopt reason: page_version
ACC_SHAPE = 15    # deopt reason: issue_shape
ACC_MEM = 16      # deopt reason: mem_stage
ACC_SIZE = 17


class PlanEntry:
    """Everything static about fetching (and issuing) at one PC."""

    __slots__ = ("pc", "page", "version", "words", "i0", "i1", "n",
                 "fetch2", "kind", "next_pc", "btaken", "bfall", "bindex",
                 "issue_maker", "logged_issue_maker", "fetch_maker")

    def __init__(self, pc: int, page: int, version: int,
                 words: Tuple[int, ...], i0: Instruction,
                 i1: Optional[Instruction], n: int, fetch2: bool,
                 kind: int, next_pc: int, btaken: int = 0, bfall: int = 0,
                 bindex: int = 0):
        self.pc = pc
        self.page = page
        self.version = version
        self.words = words
        self.i0 = i0
        self.i1 = i1
        self.n = n
        #: True when the reference fetch also touches the decode cache
        #: for ``pc + 4`` (paired, or pair considered-and-rejected).
        self.fetch2 = fetch2
        self.kind = kind
        self.next_pc = next_pc
        self.btaken = btaken
        self.bfall = bfall
        self.bindex = bindex
        #: Lazily compiled closure factories (shared by both cores;
        #: each core instantiates its own closures over its own state).
        #: The logged issue factory's handlers also append to a
        #: recording register file's access log.
        self.issue_maker = None
        self.logged_issue_maker = None
        self.fetch_maker = None


def _signed(var: str) -> str:
    return ("(%s - 0x10000000000000000 if %s >= 0x8000000000000000 "
            "else %s)" % (var, var, var))


def _s32(var: str) -> str:
    return "(((%s & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)" % var


def _wrap_w(expr: str) -> str:
    return ("(((((%s) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000) & %s"
            ")" % (expr, _XMASK))


def _alu_expr(instr: Instruction, a: str, b: str, sym) -> Optional[str]:
    """Constant-folded expression for ``execute_alu(instr, a, b)``.

    Immediates are lifted into the constant pool via ``sym`` so the
    expression text is shape-stable.  Returns None for mnemonics left
    to the interpreter fallback (the div/rem family — 20-cycle latency
    makes inlining pointless — and anything unknown, which must raise
    exactly like the reference).
    """
    name = instr.mnemonic
    imm = instr.imm
    if name == "addi":
        return "(%s + %s) & %s" % (a, sym(imm), _XMASK)
    if name == "slti":
        return "1 if %s < %s else 0" % (_signed(a), sym(imm))
    if name == "sltiu":
        return "1 if %s < %s else 0" % (a, sym(imm & 0xFFFFFFFFFFFFFFFF))
    if name == "xori":
        return "(%s ^ %s) & %s" % (a, sym(imm), _XMASK)
    if name == "ori":
        return "(%s | %s) & %s" % (a, sym(imm), _XMASK)
    if name == "andi":
        return "(%s & %s) & %s" % (a, sym(imm), _XMASK)
    if name == "slli":
        return "(%s << %s) & %s" % (a, sym(imm), _XMASK)
    if name == "srli":
        return "%s >> %s" % (a, sym(imm))
    if name == "srai":
        return "(%s >> %s) & %s" % (_signed(a), sym(imm), _XMASK)
    if name == "addiw":
        return _wrap_w("%s + %s" % (a, sym(imm)))
    if name == "slliw":
        return _wrap_w("%s << %s" % (a, sym(imm)))
    if name == "srliw":
        return _wrap_w("(%s & 0xFFFFFFFF) >> %s" % (a, sym(imm)))
    if name == "sraiw":
        return _wrap_w("%s >> %s" % (_s32(a), sym(imm)))
    if name == "add":
        return "(%s + %s) & %s" % (a, b, _XMASK)
    if name == "sub":
        return "(%s - %s) & %s" % (a, b, _XMASK)
    if name == "sll":
        return "(%s << (%s & 63)) & %s" % (a, b, _XMASK)
    if name == "slt":
        return "1 if %s < %s else 0" % (_signed(a), _signed(b))
    if name == "sltu":
        return "1 if %s < %s else 0" % (a, b)
    if name == "xor":
        return "%s ^ %s" % (a, b)
    if name == "srl":
        return "%s >> (%s & 63)" % (a, b)
    if name == "sra":
        return "(%s >> (%s & 63)) & %s" % (_signed(a), b, _XMASK)
    if name == "or":
        return "%s | %s" % (a, b)
    if name == "and":
        return "%s & %s" % (a, b)
    if name == "addw":
        return _wrap_w("%s + %s" % (a, b))
    if name == "subw":
        return _wrap_w("%s - %s" % (a, b))
    if name == "sllw":
        return _wrap_w("%s << (%s & 31)" % (a, b))
    if name == "srlw":
        return _wrap_w("(%s & 0xFFFFFFFF) >> (%s & 31)" % (a, b))
    if name == "sraw":
        return _wrap_w("%s >> (%s & 31)" % (_s32(a), b))
    if name == "mul":
        return "(%s * %s) & %s" % (a, b, _XMASK)
    if name == "mulh":
        return "((%s * %s) >> 64) & %s" % (_signed(a), _signed(b), _XMASK)
    if name == "mulhsu":
        return "((%s * %s) >> 64) & %s" % (_signed(a), b, _XMASK)
    if name == "mulhu":
        return "((%s * %s) >> 64) & %s" % (a, b, _XMASK)
    if name == "mulw":
        return _wrap_w("%s * %s" % (a, b))
    if name == "lui":
        return sym(imm & 0xFFFFFFFFFFFFFFFF)
    return None


def _emit_squash(lines: List[str], indent: str):
    """Transliteration of Core._squash_younger().

    ``stats`` and ``stages`` are factory-scope bindings of the owning
    core's objects (see build_issue_maker).
    """
    lines.append(indent + "stats.flushes += 1")
    lines.append(indent + "stages[0] = None")
    lines.append(indent + "stages[1] = None")
    lines.append(indent + "core._jalr_block = False")


_BRANCH_OPS = {"beq": "==", "bne": "!=", "bltu": "<", "bgeu": ">="}


def _issue_log(slots) -> tuple:
    """What Core._issue appends to a recording register file's log for
    one group, slot by slot: each source operand twice (the read, then
    the ``record_read`` port tap that reads again), then an ALU or
    jump destination's write.  x0 is never logged."""
    log = []
    for _, instr, _ in slots:
        for reg in (instr.rs1, instr.rs2):
            if reg:
                log += [(0, reg), (0, reg)]
        if instr.rd and instr.iclass not in (CLASS_BRANCH, "load",
                                             "store", "system"):
            log.append((1, instr.rd))
    return tuple(log)


class _ConstPool:
    """Collects per-entry constants during handler-source generation.

    Every call to :meth:`sym` replaces one concrete value (a register
    index, immediate, PC, decoded-instruction object, ...) with a fresh
    symbolic parameter name.  The generated source then depends only on
    the entry's *structure*, so entries that differ only in constants
    share one compiled code object via :data:`_SHAPE_CACHE` — which is
    what makes handler compilation cheap: a program has hundreds of
    plan entries but only a couple dozen shapes, and the shapes repeat
    across programs within a process.
    """

    def __init__(self):
        self.values: List[object] = []

    def sym(self, value) -> str:
        name = "K%d" % len(self.values)
        self.values.append(value)
        return name


#: handler source text -> compiled ``_make`` factory (module-wide).
_SHAPE_CACHE: Dict[str, object] = {}


def _shape_make(source: str):
    make = _SHAPE_CACHE.get(source)
    if make is None:
        namespace: Dict[str, object] = {}
        exec(compile(source, "<repro.engine shape>", "exec"), namespace)
        make = _SHAPE_CACHE[source] = namespace["_make"]
    return make


#: (id(program), config key) -> compiled template plan.  Programs are
#: cached per name by the workload registry, so identity keys are
#: stable; the template holds a strong reference to its program, which
#: keeps the id from being reused while the entry lives.
_PLAN_TEMPLATES: Dict[tuple, "ProgramPlan"] = {}
_PLAN_TEMPLATE_LIMIT = 16


class ProgramPlan:
    """Per-PC :class:`PlanEntry` table for one memory image."""

    def __init__(self, memory: Memory, core_config: CoreConfig):
        self.memory = memory
        self.config = core_config
        line_size = core_config.l1i.line_size
        self._line_shift = line_size.bit_length() - 1
        self._set_mask = core_config.l1i.num_sets - 1
        self._pred_mask = core_config.predictor_entries - 1
        #: pc -> PlanEntry, or None for PCs pinned to the reference
        #: path (undecodable, unallocated, page-crossing oddities).
        self.entries: Dict[int, Optional[PlanEntry]] = {}
        self.blocks_compiled = 0
        #: page -> version observed while compiling (template validity).
        self._page_versions: Dict[int, int] = {}
        self._program: Optional[Program] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def for_soc(cls, memory: Memory, core_config: CoreConfig,
                program: Optional[Program] = None) -> "ProgramPlan":
        """A plan for one run, reusing compiled templates across runs.

        Entry compilation and handler-source generation cost ~8% of a
        fast-tier run when paid every time; the same program image run
        repeatedly (benchmark repeats, sweep points, campaign trials)
        produces byte-identical entries, so the compiled template is
        cached per (program identity, core config) and each run gets a
        shallow clone.  The clone owns its entry *dict* — lazily built
        entries (stagger sleds, whose content varies per run) stay
        private — while the :class:`PlanEntry` objects and their
        compiled factories are shared.  Reuse is guarded by the page
        versions recorded at compile time; deterministic loading gives
        every run of the same program the same versions, and any
        mismatch (mutated image) recompiles the template.
        """
        if program is None:
            return cls(memory, core_config)
        key = (id(program), astuple(core_config))
        template = _PLAN_TEMPLATES.get(key)
        if (template is None or template._program is not program
                or not template._versions_match(memory)):
            if len(_PLAN_TEMPLATES) >= _PLAN_TEMPLATE_LIMIT:
                _PLAN_TEMPLATES.clear()
            template = cls(memory, core_config)
            template.compile_program(program)
            template._program = program
            _PLAN_TEMPLATES[key] = template
        return template._instantiate(memory)

    def _versions_match(self, memory: Memory) -> bool:
        versions = memory.page_versions
        for page, version in self._page_versions.items():
            if versions.get(page, 0) != version:
                return False
        return True

    def _instantiate(self, memory: Memory) -> "ProgramPlan":
        clone = ProgramPlan(memory, self.config)
        clone.entries = dict(self.entries)
        clone.blocks_compiled = self.blocks_compiled
        return clone

    def compile_program(self, program: Program):
        """Seed entries for every instruction PC the CFG knows about.

        Uses the lint CFG's basic blocks so the plan covers exactly the
        decodable, non-data instruction stream (constant pools never
        produce entries), and counts compiled blocks for telemetry.
        Handler factories are pre-bound here too; thanks to the shape
        cache this is mostly dictionary lookups, not compilation.
        """
        for block in build_cfg(program).blocks():
            for pc, _ in block.instrs:
                if pc not in self.entries:
                    self.entries[pc] = self._build(pc)
        for entry in self.entries.values():
            if entry is not None:
                self.build_issue_maker(entry)
                self.build_fetch_maker(entry)

    def entry_at(self, pc: int) -> Optional[PlanEntry]:
        """The entry for ``pc``, built (and cached) on first use."""
        entry = self._build(pc)
        self.entries[pc] = entry
        return entry

    def _peek_word(self, address: int) -> Optional[int]:
        """Read an instruction word without allocating memory pages.

        The reference fetch path allocates a zero page on first touch;
        the plan builder must not, so an unallocated page simply pins
        the PC to the reference path (which then allocates — and fails
        to decode — exactly as it would have without a plan).
        """
        page = self.memory._pages.get(address >> PAGE_BITS)
        if page is None:
            return None
        start = address & PAGE_MASK
        return int.from_bytes(page[start:start + 4], "little")

    def _build(self, pc: int) -> Optional[PlanEntry]:
        if pc & 3:
            return None
        word0 = self._peek_word(pc)
        if word0 is None:
            return None
        try:
            i0 = decode(word0)
        except Exception:
            return None
        page = pc >> PAGE_BITS
        version = self.memory.page_versions.get(page, 0)
        self._page_versions[page] = version

        def entry(words, i1, n, fetch2, kind, next_pc,
                  btaken=0, bfall=0, bindex=0):
            self.blocks_compiled += 1
            return PlanEntry(pc, page, version, words, i0, i1, n, fetch2,
                             kind, next_pc, btaken, bfall, bindex)

        # First-slot redirects terminate the fetch group (mirrors
        # Core._redirect_after on the first fetched instruction).
        name = i0.mnemonic
        if name == "jal":
            return entry((word0,), None, 1, False, KIND_STATIC,
                         pc + i0.imm)
        if name == "jalr":
            return entry((word0,), None, 1, False, KIND_JALR, pc + 4)
        if i0.iclass == CLASS_BRANCH:
            return entry((word0,), None, 1, False, KIND_BRANCH, 0,
                         btaken=pc + i0.imm, bfall=pc + 4,
                         bindex=(pc >> 2) & self._pred_mask)
        if name in ("ecall", "ebreak"):
            return entry((word0,), None, 1, False, KIND_HALT, pc + 4)

        # Sequential first slot: the fetch unit tries to pair pc + 4
        # from the same cache line.  Same line implies same page, and —
        # because line presence is per-line — an icache hit on pc
        # guarantees the probe of pc + 4 hits too, so pairing is static.
        pc2 = pc + 4
        if (pc2 >> self._line_shift) != (pc >> self._line_shift):
            return entry((word0,), None, 1, False, KIND_STATIC, pc2)
        word1 = self._peek_word(pc2)
        if word1 is None:
            return None
        try:
            i1 = decode(word1)
        except Exception:
            return None  # reference raises SimulationError; delegate
        if not can_pair(FetchedInstruction(i0, pc),
                        FetchedInstruction(i1, pc2)):
            # Pair rejected: single-slot group, but the reference still
            # ran pc2 through the decode cache (fetch2 bookkeeping).
            return entry((word0,), i1, 1, True, KIND_STATIC, pc2)
        name1 = i1.mnemonic
        words = (word0, word1)
        if name1 == "jal":
            return entry(words, i1, 2, True, KIND_STATIC, pc2 + i1.imm)
        if name1 == "jalr":
            return entry(words, i1, 2, True, KIND_JALR, pc2 + 4)
        if i1.iclass == CLASS_BRANCH:
            return entry(words, i1, 2, True, KIND_BRANCH, 0,
                         btaken=pc2 + i1.imm, bfall=pc2 + 4,
                         bindex=(pc2 >> 2) & self._pred_mask)
        if name1 in ("ecall", "ebreak"):
            return entry(words, i1, 2, True, KIND_HALT, pc2 + 4)
        return entry(words, i1, 2, True, KIND_STATIC, pc2 + 4)

    # -- issue-handler generation -----------------------------------------

    def build_issue_maker(self, entry: PlanEntry, logged: bool = False):
        """The issue-handler factory for ``entry`` (cached on the entry).

        The factory has the contract::

            maker(core, values, ready, reads, log) -> fn
            fn(group, cycle) -> bool

        where ``values``/``ready``/``reads`` are the core's *live*
        regfile lists.  ``fn`` returns False (no state change) when a
        source or destination register is not ready — the same
        condition Core._sources_ready evaluates — and otherwise
        performs exactly what Core._issue does for this group, with
        operands, targets, and port indices bound to per-entry
        constants.  Code is compiled once per *shape* (see
        :class:`_ConstPool`); each core instantiates its own closure.

        A ``logged`` handler also extends ``log`` (the access log of a
        :class:`~repro.cpu.regfile.RecordingRegisterFile`) with what
        Core._issue logs through it; plain handlers ignore ``log``.
        """
        maker = entry.logged_issue_maker if logged else entry.issue_maker
        if maker is not None:
            return maker
        source, consts = self._issue_maker_source(entry, logged)
        make = _shape_make(source)
        args = (execute_alu, entry.i0, entry.i1) + tuple(consts)

        def maker(core, values, ready, reads, log, _make=make,
                  _args=args):
            return _make(core, values, ready, reads, log, *_args)

        if logged:
            entry.logged_issue_maker = maker
        else:
            entry.issue_maker = maker
        return maker

    def _issue_maker_source(self, entry: PlanEntry, logged: bool):
        """(source, constants) for the ``_make`` issue factory.

        The source depends only on the entry's structure; every
        varying value is lifted into the constant pool and enters the
        compiled code as a parameter that the handler re-binds as a
        default argument (LOAD_FAST in the body).
        """
        pool = _ConstPool()
        sym = pool.sym
        slots = [(0, entry.i0, entry.pc)]
        if entry.n == 2:
            slots.append((1, entry.i1, entry.pc + 4))

        lines: List[str] = []
        guarded: Dict[int, None] = {}
        for _, instr, _ in slots:
            for reg in instr.sources():
                if reg:
                    guarded.setdefault(reg)
            dest = instr.destination()
            if dest is not None:
                guarded.setdefault(dest)
        for reg in guarded:
            lines.append("    if ready[%s] > cycle:" % sym(reg))
            lines.append("        return False")
        if logged:
            accesses = _issue_log(slots)
            if accesses:
                lines.append("    log += %s" % sym(accesses))
        lines.append("    group.ex_done_cycle = cycle + 1")

        squash_slot = None
        for slot, instr, pc in slots:
            a = "a%d" % slot
            b = "b%d" % slot
            f = "f%d" % slot
            if instr.rs1 is not None:
                lines.append("    %s = %s" % (
                    a, "values[%s]" % sym(instr.rs1) if instr.rs1
                    else "0"))
                lines.append("    reads[%d] = (1, %s)" % (2 * slot, a))
            if instr.rs2 is not None:
                lines.append("    %s = %s" % (
                    b, "values[%s]" % sym(instr.rs2) if instr.rs2
                    else "0"))
                lines.append("    reads[%d] = (1, %s)" % (2 * slot + 1, b))

            iclass = instr.iclass
            name = instr.mnemonic
            if iclass == CLASS_BRANCH:
                op = _BRANCH_OPS.get(name)
                if op is not None:
                    taken = "%s %s %s" % (a, op, b)
                elif name == "blt":
                    taken = "%s < %s" % (_signed(a), _signed(b))
                else:  # bge
                    taken = "%s >= %s" % (_signed(a), _signed(b))
                lines.append("    t = %s" % taken)
                lines.append("    %s = group.instrs[%d]" % (f, slot))
                lines.append("    m = t != %s.predicted_taken" % f)
                # BranchPredictor.update, transliterated: misprediction
                # count, then the 2-bit saturating-counter train.
                lines.append("    if m:")
                lines.append("        predictor.mispredictions += 1")
                if self.config.predictor_enabled:
                    kidx = sym((pc >> 2) & self._pred_mask)
                    lines.append("    s = ptable[%s]" % kidx)
                    lines.append("    if t:")
                    lines.append("        if s < 3:")
                    lines.append("            ptable[%s] = s + 1" % kidx)
                    lines.append("    elif s:")
                    lines.append("        ptable[%s] = s - 1" % kidx)
                lines.append("    if m:")
                lines.append("        stats.branch_mispredicts += 1")
                _emit_squash(lines, "        ")
                lines.append("        core.fetch_pc = %s if t else %s"
                             % (sym(pc + instr.imm), sym(pc + 4)))
                lines.append("        core.fetch_enabled = not core.halted")
            elif iclass == CLASS_JUMP:
                klink = sym((pc + 4) & 0xFFFFFFFFFFFFFFFF)
                lines.append("    %s = group.instrs[%d]" % (f, slot))
                lines.append("    %s.result = %s" % (f, klink))
                if instr.rd:
                    krd = sym(instr.rd)
                    lines.append("    values[%s] = %s" % (krd, klink))
                    lines.append("    ready[%s] = cycle + 1" % krd)
                if name == "jalr":
                    _emit_squash(lines, "    ")
                    lines.append("    core.fetch_pc = (%s + %s) & -2"
                                 % (a, sym(instr.imm)))
                    lines.append("    core.fetch_enabled = not core.halted")
            elif iclass == "load":
                lines.append("    %s = group.instrs[%d]" % (f, slot))
                lines.append("    %s.effective_address = (%s + %s) & %s"
                             % (f, a, sym(instr.imm), _XMASK))
                if instr.destination() is not None:
                    lines.append("    ready[%s] = %s"
                                 % (sym(instr.rd), _PENDING))
            elif iclass == "store":
                lines.append("    %s = group.instrs[%d]" % (f, slot))
                lines.append("    %s.effective_address = (%s + %s) & %s"
                             % (f, a, sym(instr.imm), _XMASK))
                lines.append("    %s.store_value = %s" % (f, b))
            elif iclass == "system":
                if name in ("ecall", "ebreak"):
                    lines.append("    core.halted = True")
                    lines.append("    core.fetch_enabled = False")
                    _emit_squash(lines, "    ")
                    squash_slot = slot
                # fence: pipeline bubble, nothing to execute
            else:
                expr = _alu_expr(instr, a, b, sym)
                if expr is None:
                    expr = "_alu(I%d, %s, %s)" % (
                        slot,
                        a if instr.rs1 is not None else "0",
                        b if instr.rs2 is not None else "0")
                lines.append("    r = %s" % expr)
                lines.append("    %s = group.instrs[%d]" % (f, slot))
                lines.append("    %s.result = r" % f)
                if instr.rd:
                    lines.append("    values[%s] = r" % sym(instr.rd))
                if iclass == CLASS_MUL:
                    latency = self.config.mul_latency
                elif iclass == CLASS_DIV:
                    latency = self.config.div_latency
                    lines.append("    group.ex_done_cycle = cycle + %d"
                                 % latency)
                else:
                    latency = 1
                if instr.destination() is not None:
                    lines.append("    ready[%s] = cycle + %d"
                                 % (sym(instr.rd), latency))
        if squash_slot is not None:
            lines.append("    group.truncate(%d)" % squash_slot)
        # The truthy return doubles as the issue width so the span loop
        # can count dual issues without re-measuring the group.
        lines.append("    return %d" % entry.n)

        names = ["K%d" % index for index in range(len(pool.values))]
        tail = "".join(", %s" % name for name in names)
        rebind = "".join(", %s=%s" % (name, name) for name in names)
        if logged:
            rebind = ", log=log" + rebind
        source = (
            "def _make(core, values, ready, reads, log, _alu, I0, I1%s):\n"
            "    stats = core.stats\n"
            "    stages = core.stages\n"
            "    predictor = core.predictor\n"
            "    ptable = predictor._table\n"
            "    def _issue(group, cycle, core=core, values=values,"
            " ready=ready, reads=reads, stats=stats, stages=stages,"
            " predictor=predictor, ptable=ptable, _alu=_alu,"
            " I0=I0, I1=I1%s):\n"
            % (tail, rebind)
            + "\n".join("    " + line for line in lines)
            + "\n    return _issue")
        return source, pool.values

    # -- fetch-handler generation -----------------------------------------

    def build_fetch_maker(self, entry: PlanEntry):
        """The fetch-handler factory for ``entry`` (cached on the entry).

        The factory has the contract::

            maker(core, stages, stats, acc, isets, icstats, fcache,
                  versions, request_line, predictor, ptable,
                  ifn, mfn, rfn, link_t, link_f) -> fn
            fn(cycle) -> tuple | int

        ``fn`` performs one fetch attempt at this entry's PC with every
        static fact bound as a constant (cache set index, decode-cache
        keys, group shape, redirect target).  On success it stamps the
        new group with the attached stage handlers (``ifn``/``mfn``/
        ``rfn``) and returns the successor *link* — the content of the
        one-slot cell for the fetch direction actually taken
        (``link_t`` = taken/static successor, ``link_f`` = branch
        fall-through), a ``(next_pc, fetch_fn)`` tuple.  Failure keeps
        the old integer codes: 0 when an I-line miss request was issued
        in-line, 2 when the page version no longer matches.  ``acc`` is
        the owning span loop's deferred-counter list (see
        repro.engine.fast and the ACC_* slots above).
        """
        maker = entry.fetch_maker
        if maker is not None:
            return maker
        source, consts = self._fetch_maker_source(entry)
        make = _shape_make(source)
        args = tuple(consts)

        def maker(core, stages, stats, acc, isets, icstats, fcache,
                  versions, request_line, predictor, ptable,
                  ifn, mfn, rfn, link_t, link_f,
                  _make=make, _args=args):
            return _make(core, stages, stats, acc, isets, icstats,
                         fcache, versions, request_line, predictor,
                         ptable, ifn, mfn, rfn, link_t, link_f, *_args)

        entry.fetch_maker = maker
        return maker

    def _fetch_maker_source(self, entry: PlanEntry):
        """(source, constants) for the ``_make`` fetch factory."""
        pool = _ConstPool()
        sym = pool.sym
        pc = entry.pc
        line = pc >> self._line_shift
        kpage = sym(entry.page)
        kver = sym(entry.version)
        kset = sym(line & self._set_mask)
        kline = sym(line)
        kpc = sym(pc)
        w = ["    if versions.get(%s, 0) != %s:" % (kpage, kver),
             "        return 2",
             "    tags = isets[%s]" % kset,
             "    if tags and tags[0] == %s:" % kline,
             "        icstats.hits += 1",
             "    elif %s in tags:" % kline,
             "        tags.remove(%s)" % kline,
             "        tags.insert(0, %s)" % kline,
             "        icstats.hits += 1",
             "    else:",
             "        icstats.misses += 1",
             "        core._ifetch_req = request_line(core_id, %s, cycle,"
             " is_ifetch=True)" % kpc,
             "        acc[1] += 1",  # ACC_IFMISS (miss issuance)
             "        return 0"]

        def decode_touch(kaddr, kcached):
            w.extend([
                "    c = fcache.get(%s)" % kaddr,
                "    if c is not None and c[1] == %s:" % kver,
                "        acc[2] += 1",   # ACC_DECHIT
                "    else:",
                "        acc[3] += 1",   # ACC_DECMISS
                "        fcache[%s] = %s" % (kaddr, kcached),
            ])

        decode_touch(kpc, sym((entry.i0, entry.version)))
        kpc2 = None
        if entry.fetch2:
            kpc2 = sym(pc + 4)
            decode_touch(kpc2, sym((entry.i1, entry.version)))

        w.append("    seq = core._seq")
        w.append("    core._seq = seq + %d" % (2 if entry.fetch2
                                               and entry.n == 2 else 1))
        kfi = sym(FetchedInstruction)
        for slot in range(entry.n):
            f = "f%d" % slot
            w.extend([
                "    %s = %s.__new__(%s)" % (f, kfi, kfi),
                "    %s.instr = %s" % (f, sym(entry.i0 if slot == 0
                                              else entry.i1)),
                "    %s.pc = %s" % (f, kpc if slot == 0 else kpc2),
                "    %s.seq = seq%s" % (f, " + %d" % slot if slot else ""),
                "    %s.effective_address = None" % f,
                "    %s.predicted_taken = False" % f,
                "    %s.result = None" % f,
                "    %s.store_value = None" % f,
            ])
        kg = sym(_Group)
        w.append("    g = %s.__new__(%s)" % (kg, kg))
        w.append("    g.instrs = [%s]" % ", ".join(
            "f%d" % s for s in range(entry.n)))
        w.append("    g.ex_done_cycle = 0")
        w.append("    g.me_initiated = False")
        w.append("    g.me_ready_cycle = None")
        w.append("    g.me_requests = []")
        w.append("    g.words_cache = %s" % sym(entry.words))
        w.append("    g.issue_fn = ifn")
        w.append("    g.me_fn = mfn")
        w.append("    g.retire_fn = rfn")

        last = "f%d" % (entry.n - 1)
        if entry.kind == KIND_BRANCH:
            if self.config.predictor_enabled:
                w.extend([
                    "    if ptable[%s] >= 2:" % sym(entry.bindex),
                    "        %s.predicted_taken = True" % last,
                    "        core.fetch_pc = %s" % sym(entry.btaken),
                    "        nxt = link_t[0]",
                    "    else:",
                    "        core.fetch_pc = %s" % sym(entry.bfall),
                    "        nxt = link_f[0]",
                ])
                # predict_taken bumps the counter before reading the
                # table; order is irrelevant here since nothing raises.
                w.append("    predictor.predictions += 1")
            else:
                w.append("    core.fetch_pc = %s" % sym(entry.bfall))
                w.append("    nxt = link_f[0]")
        elif entry.kind == KIND_JALR:
            # Fetch blocks until the jalr issues; the successor PC is
            # dynamic, so the caller passes a dead link cell.
            w.append("    core._jalr_block = True")
            w.append("    core.fetch_pc = %s" % sym(entry.next_pc))
            w.append("    nxt = link_t[0]")
        elif entry.kind == KIND_HALT:
            w.append("    core.fetch_enabled = False")
            w.append("    core.fetch_pc = %s" % sym(entry.next_pc))
            w.append("    nxt = link_t[0]")
        else:
            w.append("    core.fetch_pc = %s" % sym(entry.next_pc))
            w.append("    nxt = link_t[0]")
        w.append("    stages[0] = g")
        w.append("    acc[0] += 1")   # ACC_FETCH
        w.append("    return nxt")

        names = ["K%d" % index for index in range(len(pool.values))]
        tail = "".join(", %s" % name for name in names)
        rebind = "".join(", %s=%s" % (name, name) for name in names)
        source = (
            "def _make(core, stages, stats, acc, isets, icstats,"
            " fcache, versions, request_line, predictor, ptable,"
            " ifn, mfn, rfn, link_t, link_f%s):\n"
            "    core_id = core.core_id\n"
            "    def _fetch(cycle, core=core, stages=stages, acc=acc,"
            " isets=isets, icstats=icstats, fcache=fcache,"
            " versions=versions, request_line=request_line,"
            " predictor=predictor, ptable=ptable, core_id=core_id,"
            " ifn=ifn, mfn=mfn, rfn=rfn,"
            " link_t=link_t, link_f=link_f%s):\n"
            % (tail, rebind)
            + "\n".join("    " + line for line in w)
            + "\n    return _fetch")
        return source, pool.values
