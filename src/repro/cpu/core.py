"""Cycle-level model of a NOEL-V-like core.

Dual-issue, in-order, 7 stages (FE DE RA EX ME XC WB).  Functional
execution happens at issue time; a readiness scoreboard plus stage
occupancy reproduce the timing (load-use delays, mul/div latency, cache
misses, bus contention, store-buffer pressure).  Every cycle the core
exposes exactly the signals SafeDM taps in hardware:

* :meth:`stage_words` — per-stage instruction words (both IS variants),
* ``regfile.port_samples()`` — per-register-port (enable, value),
* ``hold`` — pipeline hold (SafeDM freezes its FIFOs on hold),
* ``commits_this_cycle`` — feeds the instruction-diff staggering counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.decoder import decode
from ..isa.instruction import FetchedInstruction, Instruction
from ..isa.opcodes import CLASS_BRANCH, CLASS_DIV, CLASS_JUMP, CLASS_MUL
from ..mem.bus import AhbBus, BusRequest
from ..mem.cache import Cache, CacheConfig
from ..mem.memory import PAGE_BITS, Memory
from ..mem.store_buffer import StoreBuffer
from .exec_unit import (
    branch_taken,
    effective_address,
    execute_alu,
    sign_extend_load,
)
from .pipeline import (
    DE,
    EX,
    FE,
    ME,
    NUM_STAGES,
    RA,
    WB,
    XC,
    BranchPredictor,
    Group,
    can_pair,
)
from .regfile import RegisterFile


class SimulationError(Exception):
    """Raised when the simulated program does something unsupported."""


@dataclass
class CoreConfig:
    """Microarchitectural parameters of one core."""

    issue_width: int = 2
    mul_latency: int = 3
    div_latency: int = 20
    dcache_hit_latency: int = 1
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        size=4096, line_size=32, ways=2, name="l1i"))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        size=4096, line_size=32, ways=4, name="l1d"))
    store_buffer_depth: int = 4
    store_buffer_coalesce: bool = True
    predictor_enabled: bool = True
    predictor_entries: int = 256


@dataclass
class CoreStats:
    """Per-core run counters."""

    cycles: int = 0
    committed: int = 0
    hold_cycles: int = 0
    fetch_groups: int = 0
    issued_groups: int = 0
    dual_issued_groups: int = 0
    branch_mispredicts: int = 0
    flushes: int = 0
    ifetch_miss_cycles: int = 0
    dmem_wait_cycles: int = 0
    decode_cache_hits: int = 0
    decode_cache_misses: int = 0
    # Committed-instruction mix (used by workload profiling).
    committed_loads: int = 0
    committed_stores: int = 0
    committed_branches: int = 0
    committed_muldiv: int = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def memory_fraction(self) -> float:
        """Fraction of committed instructions touching memory."""
        if not self.committed:
            return 0.0
        return (self.committed_loads + self.committed_stores) \
            / self.committed

    @property
    def decode_cache_hit_rate(self) -> float:
        accesses = self.decode_cache_hits + self.decode_cache_misses
        return self.decode_cache_hits / accesses if accesses else 0.0

    def to_metrics(self, registry, labels=()):
        """Bridge the per-core counters into a telemetry registry."""
        for name, value in (
                ("cycles", self.cycles),
                ("committed", self.committed),
                ("hold_cycles", self.hold_cycles),
                ("fetch_groups", self.fetch_groups),
                ("issued_groups", self.issued_groups),
                ("dual_issued_groups", self.dual_issued_groups),
                ("branch_mispredicts", self.branch_mispredicts),
                ("flushes", self.flushes),
                ("ifetch_miss_cycles", self.ifetch_miss_cycles),
                ("dmem_wait_cycles", self.dmem_wait_cycles),
                ("decode_cache_hits", self.decode_cache_hits),
                ("decode_cache_misses", self.decode_cache_misses)):
            registry.counter("repro_cpu_%s_total" % name,
                             labels).inc(value)
        registry.gauge("repro_cpu_decode_cache_hit_rate",
                       labels).set(self.decode_cache_hit_rate)


class Core:
    """One simulated core attached to the shared bus."""

    def __init__(self, core_id: int, bus: AhbBus, memory: Memory,
                 config: Optional[CoreConfig] = None):
        """Build the core idle: halted with fetch disabled, so it
        counts as finished and the platform never steps it until a
        start path calls :meth:`reset`."""
        self.core_id = core_id
        self.bus = bus
        self.memory = memory
        self.config = config or CoreConfig()
        cfg = self.config
        self.regfile = RegisterFile(num_read_ports=2 * cfg.issue_width,
                                    num_write_ports=cfg.issue_width)
        self.icache = Cache(cfg.l1i)
        self.dcache = Cache(cfg.l1d)
        self.store_buffer = StoreBuffer(core_id, bus,
                                        depth=cfg.store_buffer_depth,
                                        coalesce=cfg.store_buffer_coalesce)
        self.predictor = BranchPredictor(entries=cfg.predictor_entries,
                                         enabled=cfg.predictor_enabled)
        self.stats = CoreStats()
        self.reset(entry=0)
        self.halted = True
        self.fetch_enabled = False

    # -- lifecycle -------------------------------------------------------

    def reset(self, entry: int):
        """Reset microarchitectural state and point fetch at ``entry``
        (clearing the idle halt :meth:`__init__` leaves)."""
        self.stages: List[Optional[Group]] = [None] * NUM_STAGES
        self.fetch_pc = entry
        self.fetch_enabled = True
        self.halted = False
        self._seq = 0
        self._fetch_cache: Dict[int, Tuple[Instruction, int]] = {}
        self._ifetch_req: Optional[BusRequest] = None
        self._jalr_block = False
        self.hold = False
        self.commits_this_cycle = 0
        self.committed_words: List[int] = []
        self.regfile.reset()
        self.store_buffer.reset()

    def start(self, entry: int):
        """Begin executing at ``entry`` (keeps caches and predictor warm
        only if the caller does not also reset them)."""
        self.reset(entry=entry)

    @property
    def finished(self) -> bool:
        """True when halted and fully drained."""
        return (self.halted and all(g is None for g in self.stages)
                and self.store_buffer.empty)

    # -- observation points (SafeDM taps) ------------------------------------

    def stage_words(self) -> List[Optional[Tuple[int, ...]]]:
        """Per-stage instruction-word tuples (None for empty stages),
        FE first — the Fig. 2b input.

        The one IS tap: the per-stage signature pads each stage to the
        issue width with idle slots, and the INFLIGHT fallback reads
        the same stages deepest first
        (:func:`repro.core.signatures.inflight_from_stage_words`).
        """
        return [None if group is None else group.words_cache
                for group in self.stages]

    # -- snapshot protocol ------------------------------------------------

    def state_dict(self, ctx) -> dict:
        from ..checkpoint import stats_state
        return {
            "stages": [None if group is None else group.state_dict(ctx)
                       for group in self.stages],
            "fetch_pc": self.fetch_pc,
            "fetch_enabled": self.fetch_enabled,
            "halted": self.halted,
            "seq": self._seq,
            # Decode-cache entries are fully determined by (pc, page
            # version): the word is re-read from the restored memory.
            "fetch_cache": {pc: entry[1]
                            for pc, entry in self._fetch_cache.items()},
            "ifetch_req": (None if self._ifetch_req is None
                           else ctx.intern(self._ifetch_req)),
            "jalr_block": self._jalr_block,
            "hold": self.hold,
            "commits_this_cycle": self.commits_this_cycle,
            "committed_words": list(self.committed_words),
            "regfile": self.regfile.state_dict(),
            "icache": self.icache.state_dict(),
            "dcache": self.dcache.state_dict(),
            "store_buffer": self.store_buffer.state_dict(ctx),
            "predictor": self.predictor.state_dict(),
            "stats": stats_state(self.stats),
        }

    def load_state_dict(self, state, ctx):
        from ..checkpoint import load_stats_state
        stages = state["stages"]
        if len(stages) != NUM_STAGES:
            raise ValueError("snapshot has %d pipeline stages, expected %d"
                             % (len(stages), NUM_STAGES))
        self.stages = [None if entry is None
                       else Group.from_state(entry, ctx)
                       for entry in stages]
        self.fetch_pc = int(state["fetch_pc"])
        self.fetch_enabled = bool(state["fetch_enabled"])
        self.halted = bool(state["halted"])
        self._seq = int(state["seq"])
        self._load_fetch_cache(state["fetch_cache"])
        ifetch = state["ifetch_req"]
        self._ifetch_req = None if ifetch is None else ctx.resolve(ifetch)
        self._jalr_block = bool(state["jalr_block"])
        self.hold = bool(state["hold"])
        self.commits_this_cycle = int(state["commits_this_cycle"])
        self.committed_words = [int(word)
                                for word in state["committed_words"]]
        self.regfile.load_state_dict(state["regfile"])
        self.icache.load_state_dict(state["icache"])
        self.dcache.load_state_dict(state["dcache"])
        self.store_buffer.load_state_dict(state["store_buffer"], ctx)
        self.predictor.load_state_dict(state["predictor"])
        load_stats_state(self.stats, state["stats"])

    def _load_fetch_cache(self, entries):
        """Rebuild the decode cache against the *restored* memory.

        Requires memory to be restored first.  An entry whose word no
        longer decodes must be stale (its page changed after caching),
        and a stale entry misses on its next access exactly like a
        missing one — dropping it preserves behaviour and counters.
        """
        cache: Dict[int, Tuple[Instruction, int]] = {}
        memory = self.memory
        for pc_key, version in entries.items():
            pc = int(pc_key)
            try:
                instr = decode(memory.read_word(pc))
            except Exception:
                continue
            cache[pc] = (instr, int(version))
        self._fetch_cache = cache

    # -- per-cycle step ----------------------------------------------------------

    def step(self, cycle: int):
        """Advance the core by one cycle."""
        stages = self.stages
        stats = self.stats
        stats.cycles += 1
        self.commits_this_cycle = 0
        self.committed_words = []
        self.regfile.begin_cycle()
        self.store_buffer.step(cycle)
        advanced = False

        # WB: retire.
        group = stages[WB]
        if group is not None:
            self._retire(group)
            stages[WB] = None
            advanced = True

        # XC -> WB.
        group = stages[XC]
        if group is not None and stages[WB] is None:
            stages[WB] = group
            stages[XC] = None
            advanced = True

        # ME -> XC (memory completion).
        group = stages[ME]
        if group is not None:
            if not group.me_initiated:
                self._initiate_me(group, cycle)
            elif group.me_ready_cycle is None:
                self._check_me(group, cycle)
            if group.me_ready_cycle is None or cycle < group.me_ready_cycle:
                stats.dmem_wait_cycles += 1
            elif stages[XC] is None:
                stages[XC] = group
                stages[ME] = None
                advanced = True

        # EX -> ME.
        group = stages[EX]
        if (group is not None and cycle >= group.ex_done_cycle
                and stages[ME] is None):
            stages[ME] = group
            stages[EX] = None
            self._initiate_me(group, cycle)
            advanced = True

        # RA -> EX (issue).
        group = stages[RA]
        if (group is not None and stages[EX] is None
                and self._sources_ready(group, cycle)):
            stages[RA] = None
            self._issue(group, cycle)
            stages[EX] = group
            advanced = True

        # DE -> RA.
        group = stages[DE]
        if group is not None and stages[RA] is None:
            stages[RA] = group
            stages[DE] = None
            advanced = True

        # FE -> DE.
        group = stages[FE]
        if group is not None and stages[DE] is None:
            stages[DE] = group
            stages[FE] = None
            advanced = True

        # Fetch into FE.
        if stages[FE] is None and self.fetch_enabled \
                and not self._jalr_block:
            if self._fetch(cycle):
                advanced = True

        self.hold = not advanced
        if not advanced:
            stats.hold_cycles += 1

    # -- fetch ------------------------------------------------------------------

    def _fetch(self, cycle: int) -> bool:
        # An outstanding I-line fill blocks fetch until it completes.
        if self._ifetch_req is not None:
            if not self._ifetch_req.done(cycle):
                self.stats.ifetch_miss_cycles += 1
                return False
            self.icache.fill(self._ifetch_req.address)
            self._ifetch_req = None

        pc = self.fetch_pc
        if not self.icache.lookup(pc):
            self._ifetch_req = self.bus.request_line(self.core_id, pc,
                                                     cycle, is_ifetch=True)
            self.stats.ifetch_miss_cycles += 1
            return False

        first = self._fetch_instruction(pc)
        group_instrs = [first]
        next_pc = self._redirect_after(first)
        if next_pc is None:
            # Sequential: try to pair a second instruction from the same
            # cache line (the 2-wide fetch bundle).
            second_pc = pc + 4
            same_line = (self.icache.line_address(second_pc)
                         == self.icache.line_address(pc))
            if same_line and self.icache.probe(second_pc):
                second = self._fetch_instruction(second_pc)
                if can_pair(first, second):
                    group_instrs.append(second)
                    next_pc = self._redirect_after(second)
                    if next_pc is None:
                        next_pc = second_pc + 4
                else:
                    self._seq -= 1  # second stays unfetched
                    next_pc = second_pc
            else:
                next_pc = second_pc
        self.fetch_pc = next_pc
        self.stages[FE] = Group(instrs=group_instrs)
        self.stats.fetch_groups += 1
        return True

    def _fetch_instruction(self, pc: int) -> FetchedInstruction:
        # Per-pc decode cache, guarded by the memory page's write
        # version so stores into code pages (reload, self-modification)
        # invalidate exactly the affected entries.
        versions = self.memory.page_versions
        entry = self._fetch_cache.get(pc)
        if entry is not None and versions.get(pc >> PAGE_BITS, 0) == entry[1]:
            instr = entry[0]
            self.stats.decode_cache_hits += 1
        else:
            self.stats.decode_cache_misses += 1
            word = self.memory.read_word(pc)
            try:
                instr = decode(word)
            except Exception as exc:
                raise SimulationError(
                    "core %d: cannot decode %#010x at pc=%#x: %s"
                    % (self.core_id, word, pc, exc))
            self._fetch_cache[pc] = (instr,
                                     versions.get(pc >> PAGE_BITS, 0))
        fetched = FetchedInstruction(instr=instr, pc=pc, seq=self._seq)
        self._seq += 1
        return fetched

    def _redirect_after(self, fetched: FetchedInstruction) -> Optional[int]:
        """Fetch-time redirect decision; None means fall through."""
        instr = fetched.instr
        name = instr.mnemonic
        if name == "jal":
            return fetched.pc + instr.imm
        if name == "jalr":
            self._jalr_block = True
            return fetched.pc + 4  # placeholder; fetch blocks anyway
        if instr.iclass == CLASS_BRANCH:
            if self.predictor.predict_taken(fetched.pc):
                fetched.predicted_taken = True
                return fetched.pc + instr.imm
            return fetched.pc + 4
        if name in ("ecall", "ebreak"):
            self.fetch_enabled = False
            return fetched.pc + 4
        return None

    # -- issue (RA -> EX) -------------------------------------------------------

    def _sources_ready(self, group: Group, cycle: int) -> bool:
        regfile = self.regfile
        for fetched in group.instrs:
            for src in fetched.instr.sources():
                if not regfile.ready(src, cycle):
                    return False
            rd = fetched.instr.destination()
            if rd is not None and not regfile.ready(rd, cycle):
                return False  # conservative WAW ordering
        return True

    def _issue(self, group: Group, cycle: int):
        self.stats.issued_groups += 1
        if len(group.instrs) > 1:
            self.stats.dual_issued_groups += 1
        group.ex_done_cycle = cycle + 1
        regfile = self.regfile
        squash_after = None

        for slot, fetched in enumerate(group.instrs):
            instr = fetched.instr
            iclass = instr.iclass
            rs1 = rs2 = 0
            if instr.rs1 is not None:
                rs1 = regfile.read(instr.rs1)
                regfile.record_read(2 * slot, instr.rs1)
            if instr.rs2 is not None:
                rs2 = regfile.read(instr.rs2)
                regfile.record_read(2 * slot + 1, instr.rs2)

            if iclass == CLASS_BRANCH:
                taken = branch_taken(instr, rs1, rs2)
                mispredicted = taken != fetched.predicted_taken
                self.predictor.update(fetched.pc, taken, mispredicted)
                if mispredicted:
                    self.stats.branch_mispredicts += 1
                    target = fetched.pc + instr.imm if taken \
                        else fetched.pc + 4
                    self._squash_younger()
                    self.fetch_pc = target
                    self.fetch_enabled = not self.halted
            elif iclass == CLASS_JUMP:
                result = (fetched.pc + 4) & ((1 << 64) - 1)
                fetched.result = result
                regfile.write(instr.rd, result)
                regfile.set_ready(instr.destination(), cycle + 1)
                if instr.mnemonic == "jalr":
                    target = (rs1 + instr.imm) & ~1
                    self._squash_younger()
                    self.fetch_pc = target
                    self._jalr_block = False
                    self.fetch_enabled = not self.halted
            elif iclass == "load":
                fetched.effective_address = effective_address(instr, rs1)
                regfile.mark_pending(instr.destination())
            elif iclass == "store":
                fetched.effective_address = effective_address(instr, rs1)
                fetched.store_value = rs2
            elif iclass == "system":
                if instr.mnemonic in ("ecall", "ebreak"):
                    self.halted = True
                    self.fetch_enabled = False
                    self._squash_younger()
                    squash_after = slot
                # fence: treated as a pipeline bubble (store buffer
                # ordering is already sequential per core).
            else:
                result = execute_alu(instr, rs1, rs2)
                fetched.result = result
                regfile.write(instr.rd, result)
                if iclass == CLASS_MUL:
                    latency = self.config.mul_latency
                elif iclass == CLASS_DIV:
                    latency = self.config.div_latency
                    group.ex_done_cycle = cycle + latency
                else:
                    latency = 1
                regfile.set_ready(instr.destination(), cycle + latency)

        if squash_after is not None:
            group.truncate(squash_after)

    def _squash_younger(self):
        """Drop not-yet-issued younger work (FE/DE stages, fetch buffer)."""
        self.stats.flushes += 1
        self.stages[FE] = None
        self.stages[DE] = None
        # A squashed speculative jalr must release its fetch block, or
        # fetch would wait forever for an issue that never happens.
        self._jalr_block = False
        # Leave any outstanding I-line request to complete into the cache.

    # -- memory stage ----------------------------------------------------------

    def _initiate_me(self, group: Group, cycle: int):
        group.me_initiated = True
        group.me_ready_cycle = cycle + 1
        group.me_requests = []
        for fetched in group.instrs:
            instr = fetched.instr
            if instr.spec.is_load:
                self._initiate_load(group, fetched, cycle)
            elif instr.spec.is_store:
                self._initiate_store(group, fetched, cycle)

    def _initiate_load(self, group: Group, fetched, cycle: int):
        instr = fetched.instr
        address = fetched.effective_address
        # Store-to-load ordering: wait for pending stores to the line.
        if self.store_buffer.contains_line(address):
            group.me_initiated = False  # retry next cycle
            group.me_ready_cycle = None
            return
        raw = self.memory.read(address & ~(instr.spec.size - 1),
                               instr.spec.size)
        value = sign_extend_load(raw, instr.spec.size, instr.spec.signed)
        fetched.result = value
        self.regfile.write(instr.rd, value)
        if self.dcache.lookup(address):
            ready = cycle + self.config.dcache_hit_latency
            group.me_ready_cycle = max(group.me_ready_cycle or 0, ready)
            self.regfile.set_ready(instr.destination(), ready)
        else:
            req = self.bus.request_line(self.core_id, address, cycle)
            group.me_requests.append((req, fetched))
            group.me_ready_cycle = None

    def _initiate_store(self, group: Group, fetched, cycle: int):
        instr = fetched.instr
        address = fetched.effective_address
        if not self.store_buffer.push(address, cycle):
            group.me_initiated = False  # buffer full: retry next cycle
            group.me_ready_cycle = None
            return
        self.memory.write(address, fetched.store_value, instr.spec.size)
        # Write-through, write-no-allocate L1.
        self.dcache.lookup(address)

    def _check_me(self, group: Group, cycle: int):
        if not group.me_requests:
            return
        if all(req.done(cycle) for req, _ in group.me_requests):
            for req, fetched in group.me_requests:
                self.dcache.fill(req.address)
                self.regfile.set_ready(fetched.instr.destination(),
                                       cycle + 1)
            group.me_requests = []
            group.me_ready_cycle = cycle + 1

    # -- retire -----------------------------------------------------------------

    def _retire(self, group: Group):
        regfile = self.regfile
        stats = self.stats
        for slot, fetched in enumerate(group.instrs):
            rd = fetched.instr.destination()
            if rd is not None and fetched.result is not None:
                regfile.record_write(slot, rd, fetched.result)
            stats.committed += 1
            iclass = fetched.instr.iclass
            if iclass == "load":
                stats.committed_loads += 1
            elif iclass == "store":
                stats.committed_stores += 1
            elif iclass == "branch":
                stats.committed_branches += 1
            elif iclass in ("mul", "div"):
                stats.committed_muldiv += 1
            self.commits_this_cycle += 1
            self.committed_words.append(fetched.word)
