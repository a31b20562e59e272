"""The fast execution tier: superblock traces over live state.

Design contract (see DESIGN.md "Tiered execution"):

* **All mutable state stays in the reference objects** — cores, regfile
  lists, caches, store buffers, signature units, monitor stats.  The
  fast tier only replaces *code*: per-PC fetch/issue handlers generated
  by :mod:`repro.engine.plan`, and one generated span loop per SoC
  shape that folds the per-cycle attribute chasing of
  :meth:`repro.cpu.core.Core.step` into locals for N cores, samples
  every monitored pair's signature units in line, and fires the scheme
  taps — the same cycle order as :meth:`repro.soc.mpsoc.MPSoC.step`.
  Because state never moves, the fast tier can hand any individual
  decision back to the reference interpreter mid-cycle (a *deopt*) and
  the two tiers interleave freely.
* **Monitor accounting by monitor state**: a disabled monitor generates
  no code; a POLLING monitor's accounting runs as span locals, written
  back at every span exit before any outside code can read it; an
  interrupt-reporting monitor calls its own ``_tick`` every sampled
  cycle, so IRQ subscribers see exactly the reference's state.
* **Superblock traces**: each compiled fetch handler returns the *link*
  to its successor block — a ``(next_pc, fetch_fn)`` tuple threaded
  through one-slot link cells — so steady-state fetch crosses
  unconditional jumps and both arms of every branch without any
  dictionary dispatch.  A cell whose target has no block yet holds a
  dead link: that fetch goes to the block tier (cold dictionary
  dispatch) once, mid-cycle, never skipping a cycle — SafeDM samples
  signatures every cycle — and building the target fills every cell
  waiting for it.  A page-version failure rebuilds the block in place
  up to ``REBUILD_BUDGET`` times before pinning the PC to the
  reference path.
* **Deopt on anything the plan cannot prove static**: plan miss,
  page-version mismatch past budget, issue-shape mismatch, and
  memory-stage hazards the in-line L1 probe cannot retire.  Each
  delegation calls the corresponding reference method on the same
  objects, so the result is bit-identical by construction.
* **One runner interface**: :class:`FastRunner` offers only
  ``run_span(stop)`` and ``_rebuild()``, the interface of
  :class:`repro.engine.ReferenceRunner`; :func:`repro.engine.make_runner`
  picks one, and every loop that advances a SoC (``run_soc``'s chunked
  run loop, the fault injector, the golden recorder, the golden-run
  walk) drives whichever it gets.
* **Checkpoints**: ``load_state_dict`` replaces interior lists and
  dicts, which invalidates captured locals —
  :meth:`FastRunner._rebuild` recreates every closure;
  ``run_soc`` calls it after every checkpoint callback, and forks
  build fresh runners.
* **Golden recordings**: a core whose register file is a
  :class:`~repro.cpu.regfile.RecordingRegisterFile` gets logging
  issue handlers and load closures, and the span stamps its cycle
  marker and issue frontier every cycle, as the reference runner
  does, so the access log equals the reference recorder's.  These are
  separate cache entries: other runs keep the plain generated code.
"""

from __future__ import annotations

from ..core.monitor import ReportingMode
from ..cpu.regfile import RecordingRegisterFile
from ..lint.masking import FRONTIER_HALTED
from ..mem.store_buffer import StoreEntry
from .plan import (
    ACC_BRANCH,
    ACC_COMMIT,
    ACC_DECHIT,
    ACC_DECMISS,
    ACC_DUAL,
    ACC_FETCH,
    ACC_IFAST,
    ACC_IFMISS,
    ACC_IREF,
    ACC_ISSUED,
    ACC_LOADS,
    ACC_MEM,
    ACC_MULDIV,
    ACC_PAGE,
    ACC_PLAN,
    ACC_SHAPE,
    ACC_SIZE,
    ACC_STORES,
    KIND_BRANCH,
    KIND_STATIC,
    REBUILD_BUDGET,
)

_MISS = object()

_XMASK = 0xFFFFFFFFFFFFFFFF

#: Link-cell content that can never match a fetch PC (jalr/halt
#: successors, targets not built yet or pinned, the link after a
#: reference fetch): routes the next fetch to cold dispatch.
_DEAD_LINK = (-1, None)

_AZEROS = [0] * ACC_SIZE

#: ``deopt_reasons`` keys fed by the per-core delegation counters.
_REASON_SLOTS = (("plan_miss", ACC_PLAN), ("page_version", ACC_PAGE),
                 ("issue_shape", ACC_SHAPE), ("mem_stage", ACC_MEM))


def _make_retire(instrs, core, acc, writes):
    """Specialized Core._retire for one instruction-words shape.

    Which slots record a writeback — destination present *and* a result
    value produced — is static per instruction: ALU/MUL/DIV and jumps
    set ``result`` at issue, loads at the memory stage, and branches,
    stores, and system instructions never do.  Commit counters defer
    into the engine's ``acc`` slots; ``commits_this_cycle`` stays live
    because the monitor reads it the same cycle.
    """
    recs = []
    n = len(instrs)
    loads = stores = branches = muldiv = 0
    for slot, instr in enumerate(instrs):
        dest = instr.destination()
        iclass = instr.iclass
        if dest is not None and iclass in ("alu", "mul", "div", "jump",
                                           "load"):
            recs.append((slot, dest))
        if iclass == "load":
            loads += 1
        elif iclass == "store":
            stores += 1
        elif iclass == "branch":
            branches += 1
        elif iclass in ("mul", "div"):
            muldiv += 1
    recs = tuple(recs)
    words = tuple(instr.word for instr in instrs)

    def retire(group, committed_words, recs=recs, n=n, loads=loads,
               stores=stores, branches=branches, muldiv=muldiv,
               words=words, core=core, acc=acc, writes=writes,
               _XMASK=_XMASK, _AC=ACC_COMMIT, _AL=ACC_LOADS,
               _AS=ACC_STORES, _AB=ACC_BRANCH, _AM=ACC_MULDIV):
        fis = group.instrs
        for slot, dest in recs:
            writes[slot] = (1, fis[slot].result & _XMASK)
        acc[_AC] += n
        if loads:
            acc[_AL] += loads
        if stores:
            acc[_AS] += stores
        if branches:
            acc[_AB] += branches
        if muldiv:
            acc[_AM] += muldiv
        core.commits_this_cycle = n
        committed_words += words

    return retire


def _make_init_me(instrs, core, log):
    """Specialized Core._initiate_me for one instruction-words shape.

    Returns ``None`` when the group has no load or store (the caller
    inlines the trivial no-memory transition).  Otherwise returns a
    closure ``init_me(group, cycle) -> bool`` that reproduces
    ``_initiate_me`` + ``_initiate_load``/``_initiate_store`` statement
    for statement — same store-buffer scan order, same D-cache LRU and
    counter updates, same bus-request ordering.  The L1 tag probe and
    store-buffer occupancy check run in-line over the read-only views
    exported by :meth:`repro.mem.cache.Cache.tag_view` and
    :meth:`repro.mem.store_buffer.StoreBuffer.occupancy_view`; the
    closure deopts to the reference memory stage only on an actual
    hazard.  A ``False`` return means "deopt before any side effect"
    (misaligned store: the reference path raises) and the caller
    replays via the reference.

    ``can_pair`` admits at most one memory operation per group, so the
    per-shape record is a single slot.  ``log`` is the core's recording
    register-file log, or None.
    """
    rec = None
    for slot, instr in enumerate(instrs):
        spec = instr.spec
        if spec.is_memory:
            rec = (slot, spec.is_load, spec.size, spec.signed, instr.rd)
    if rec is None:
        return None
    slot, is_load, size, signed, rd = rec
    amask = size - 1
    sign_bit = 1 << (8 * size - 1)
    wrap = 1 << (8 * size)
    smask = wrap - 1
    sb = core.store_buffer
    sb_entries = sb.occupancy_view()
    sb_depth = sb.depth
    sb_coalesce = sb.coalesce
    sbstats = sb.stats
    line_mask = ~(sb.bus.l2.config.line_size - 1)
    mem = core.memory
    pages = mem._pages
    mem_page = mem._page
    versions = mem.page_versions
    dcache = core.dcache
    dsets, dshift, dmask = dcache.tag_view()
    dstats = dcache.stats
    hit_latency = core.config.dcache_hit_latency
    request_line = core.bus.request_line
    core_id = core.core_id
    regfile = core.regfile
    values = regfile.values
    ready = regfile.ready_cycle

    if is_load:
        def init_me(group, cycle, slot=slot, amask=amask,
                    sign_bit=sign_bit, wrap=wrap, sb=sb,
                    sb_entries=sb_entries, line_mask=line_mask,
                    pages=pages, mem_page=mem_page, dsets=dsets,
                    dshift=dshift, dmask=dmask, dstats=dstats,
                    hit_latency=hit_latency, request_line=request_line,
                    core_id=core_id, values=values, ready=ready,
                    size=size, signed=signed, rd=rd, _XMASK=_XMASK):
            fetched = group.instrs[slot]
            address = fetched.effective_address
            group.me_requests = []
            # Store-to-load ordering: wait for pending stores to the
            # line (StoreBuffer.contains_line, inlined).
            line = address & line_mask
            inflight = sb._inflight
            if inflight is not None and inflight.address == line:
                group.me_initiated = False
                group.me_ready_cycle = None
                return True
            for entry in sb_entries:
                if entry.line_address == line:
                    group.me_initiated = False
                    group.me_ready_cycle = None
                    return True
            group.me_initiated = True
            # Memory.read of the aligned-down address (the reference
            # masks, so loads never raise) + sign_extend_load.
            aligned = address - (address & amask)
            page = pages.get(aligned >> 12)
            if page is None:
                page = mem_page(aligned)
            start = aligned & 4095
            raw = int.from_bytes(page[start:start + size], "little")
            if signed and raw & sign_bit:
                raw = (raw - wrap) & _XMASK
            fetched.result = raw
            if rd:
                values[rd] = raw
            # Cache.lookup (MRU fast path first; remove+insert at the
            # head is order-neutral when already most-recent).
            dline = address >> dshift
            tags = dsets[dline & dmask]
            if tags and tags[0] == dline:
                dstats.hits += 1
            elif dline in tags:
                tags.remove(dline)
                tags.insert(0, dline)
                dstats.hits += 1
            else:
                dstats.misses += 1
                group.me_requests.append(
                    (request_line(core_id, address, cycle), fetched))
                group.me_ready_cycle = None
                return True
            rdy = cycle + hit_latency
            mrc = cycle + 1
            group.me_ready_cycle = rdy if rdy > mrc else mrc
            if rd:
                ready[rd] = rdy
            return True

        if log is not None and rd:
            return _logged_load(init_me, log, rd)
    else:
        def init_me(group, cycle, slot=slot, amask=amask, smask=smask,
                    sb=sb, sb_entries=sb_entries, sb_depth=sb_depth,
                    sb_coalesce=sb_coalesce, sbstats=sbstats,
                    line_mask=line_mask, pages=pages,
                    mem_page=mem_page, versions=versions, dsets=dsets,
                    dshift=dshift, dmask=dmask, dstats=dstats,
                    size=size, StoreEntry=StoreEntry):
            fetched = group.instrs[slot]
            address = fetched.effective_address
            if address & amask:
                return False      # misaligned: the reference path raises
            group.me_requests = []
            # StoreBuffer.push, inlined (same scan/stat order).
            line = address & line_mask
            pushed = False
            if sb_coalesce:
                for entry in sb_entries:
                    if entry.line_address == line:
                        entry.stores += 1
                        sbstats.stores_accepted += 1
                        sbstats.coalesced += 1
                        pushed = True
                        break
            if not pushed:
                if len(sb_entries) >= sb_depth:
                    sbstats.full_stalls += 1
                    group.me_initiated = False    # buffer full: retry
                    group.me_ready_cycle = None
                    return True
                sb_entries.append(StoreEntry(line))
                sbstats.stores_accepted += 1
            group.me_initiated = True
            group.me_ready_cycle = cycle + 1
            # Memory.write (aligned by the check above) + page-version
            # bump, then the write-through no-allocate D-cache touch.
            page = pages.get(address >> 12)
            if page is None:
                page = mem_page(address)
            start = address & 4095
            page[start:start + size] = (fetched.store_value
                                        & smask).to_bytes(size, "little")
            key = address >> 12
            versions[key] = versions.get(key, 0) + 1
            dline = address >> dshift
            tags = dsets[dline & dmask]
            if tags and tags[0] == dline:
                dstats.hits += 1
            elif dline in tags:
                tags.remove(dline)
                tags.insert(0, dline)
                dstats.hits += 1
            else:
                dstats.misses += 1
            return True

    return init_me


def _logged_load(init_me, log, rd):
    """A load's ``init_me`` that also logs the write-back the way
    Core._initiate_load's ``RegisterFile.write`` does on a recording
    register file: the load reads memory (``me_initiated``) unless it
    waits on the store buffer."""
    access = (1, rd)

    def logged(group, cycle):
        init_me(group, cycle)
        if group.me_initiated:
            log.append(access)
        return True

    return logged


def _make_core_engine(core, plan, estats):
    """Per-core runtime for the generated span loop.

    Returns the argument tuple ``_make_span`` expects for one core (see
    ``_CORE_ARGS``): live bindings, the deferred-counter list, the cold
    dispatch helpers, the one-slot ``fbox`` carrying the current
    superblock link across span boundaries, and the span-exit ``flush``.

    The cold helpers own the *superblock former*: a registry of link
    *nodes* (``(pc, fetch_fn)`` tuples) plus the cells that reference
    them.  Building a block links both successors of its branch (or its
    one static successor) as chain cells; ``fetch_cold`` materializes
    nodes on first touch and fills every cell waiting for them, and
    ``page_cold`` rebuilds a block after self-modifying code up to
    ``REBUILD_BUDGET`` times before pinning the PC to the reference
    path.  Cold-helper return codes are ``advanced | (reference << 1)``
    with the successor link left in ``fbox[0]``.
    """
    stages = core.stages
    stats = core.stats
    regfile = core.regfile
    values = regfile.values
    # A golden recording's register file: generated code appends the
    # accesses its reference methods would log.
    log = regfile.log if type(regfile) is RecordingRegisterFile else None
    ready = regfile.ready_cycle
    reads = regfile.read_samples
    writes = regfile.write_samples
    idle_reads = regfile._idle_reads
    idle_writes = regfile._idle_writes
    sb = core.store_buffer
    icache = core.icache
    isets = icache.tag_view()[0]
    icstats = icache.stats
    fcache = core._fetch_cache
    versions = core.memory.page_versions
    request_line = core.bus.request_line
    predictor = core.predictor
    ptable = predictor._table
    ref_fetch = core._fetch
    ref_sources_ready = core._sources_ready
    ref_issue = core._issue
    initiate_me = core._initiate_me
    ifill = icache.fill
    dfill = core.dcache.fill
    entries = plan.entries
    entry_at = plan.entry_at
    build_issue_maker = plan.build_issue_maker
    build_fetch_maker = plan.build_fetch_maker
    acc = [0] * ACC_SIZE
    reasons = estats.deopt_reasons

    #: pc -> (pc, fn) node, or None when pinned to the reference path.
    nodes = {}
    #: pc -> [cells] waiting for the node at pc (chain links).
    pending = {}
    #: pc -> [cells currently filled with pc's node] (for rebuilds).
    linked = {}
    #: pc -> page re-specialization count (vs REBUILD_BUDGET).
    rebuilds = {}
    #: pc -> (words, issue fn, dual) or None (block-tier dispatch).
    issue_recs = {}
    #: words_cache -> init_me closure / None (no memory op in group).
    me_shapes = {}
    #: words_cache -> retire closure.
    retire_shapes = {}
    #: One-slot box: the current link, persisted across spans and used
    #: as the cold helpers' link-return channel.
    fbox = [_DEAD_LINK]

    def _issue_rec(entry):
        maker = build_issue_maker(entry, log is not None)
        return (entry.words, maker(core, values, ready, reads, log),
                1 if entry.n == 2 else 0)

    def _issue_fn(entry):
        rec = issue_recs.get(entry.pc)
        if rec is None or rec[0] != entry.words:
            rec = issue_recs[entry.pc] = _issue_rec(entry)
        return rec[1]

    def _me_fn(instrs, words):
        fn = me_shapes.get(words, _MISS)
        if fn is _MISS:
            fn = me_shapes[words] = _make_init_me(instrs, core, log)
        # Attached handlers use False for "no memory op" (None means
        # "dispatch cold" on reference-created and restored groups).
        return False if fn is None else fn

    def _retire_fn(instrs, words):
        fn = retire_shapes.get(words)
        if fn is None:
            fn = retire_shapes[words] = _make_retire(instrs, core, acc,
                                                     writes)
        return fn

    def _chain_cell(pc):
        node = nodes.get(pc, _MISS)
        if node is _MISS:
            cell = [_DEAD_LINK]
            pending.setdefault(pc, []).append(cell)
            return cell
        if node is None:
            return [_DEAD_LINK]     # pinned target: cold dispatch
        cell = [node]
        linked.setdefault(pc, []).append(cell)
        estats.superblock_links += 1
        return cell

    def _pin(pc):
        nodes[pc] = None
        for cell in pending.pop(pc, ()):
            cell[0] = _DEAD_LINK

    def _node_from_entry(pc, entry):
        kind = entry.kind
        if kind == KIND_BRANCH:
            link_t = _chain_cell(entry.btaken)
            link_f = _chain_cell(entry.bfall)
        elif kind == KIND_STATIC:
            link_t = _chain_cell(entry.next_pc)
            link_f = [_DEAD_LINK]
        else:       # jalr, halt: no static successor
            link_t = link_f = [_DEAD_LINK]
        instrs = [entry.i0, entry.i1][:entry.n]
        words = entry.words
        fn = build_fetch_maker(entry)(
            core, stages, stats, acc, isets, icstats, fcache, versions,
            request_line, predictor, ptable, _issue_fn(entry),
            _me_fn(instrs, words), _retire_fn(instrs, words), link_t,
            link_f)
        node = (pc, fn)
        # Register before resolving self-referential pending cells.
        nodes[pc] = node
        cells = pending.pop(pc, None)
        if cells:
            lst = linked.setdefault(pc, [])
            for cell in cells:
                cell[0] = node
                lst.append(cell)
                estats.superblock_links += 1
        return node

    def _make_node(pc):
        node = nodes.get(pc, _MISS)
        if node is not _MISS:
            return node
        entry = entries.get(pc, _MISS)
        if entry is _MISS:
            entry = entry_at(pc)
        if entry is None:
            _pin(pc)
            return None
        return _node_from_entry(pc, entry)

    def fetch_cold(pc, cycle):
        node = _make_node(pc)
        if node is None:
            acc[ACC_PLAN] += 1
            fbox[0] = _DEAD_LINK
            return 3 if ref_fetch(cycle) else 2
        r = node[1](cycle)
        if r.__class__ is tuple:
            fbox[0] = r
            return 1
        if r == 0:
            # I-line fill requested in-line; retry hits the hot path.
            fbox[0] = node
            return 0
        return page_cold(pc, cycle)

    def page_cold(pc, cycle):
        count = rebuilds.get(pc, 0) + 1
        rebuilds[pc] = count
        stale = linked.pop(pc, None)
        entry = entry_at(pc) if count <= REBUILD_BUDGET else None
        issue_recs.pop(pc, None)
        if entry is None:
            _pin(pc)
            if stale:
                for cell in stale:
                    cell[0] = _DEAD_LINK
            acc[ACC_PAGE] += 1
            fbox[0] = _DEAD_LINK
            return 3 if ref_fetch(cycle) else 2
        node = _node_from_entry(pc, entry)
        if stale:
            lst = linked.setdefault(pc, [])
            for cell in stale:
                cell[0] = node
                lst.append(cell)
        estats.recompilations += 1
        reasons["recompile"] = reasons.get("recompile", 0) + 1
        r = node[1](cycle)
        if r.__class__ is tuple:
            fbox[0] = r
            return 1
        if r == 0:
            fbox[0] = node
            return 0
        # Version moved again before execution: delegate this fetch.
        acc[ACC_PAGE] += 1
        fbox[0] = _DEAD_LINK
        return 3 if ref_fetch(cycle) else 2

    def issue_cold(group, cycle):
        pc = group.instrs[0].pc
        rec = issue_recs.get(pc, _MISS)
        if rec is _MISS:
            entry = entries.get(pc, _MISS)
            if entry is _MISS:
                entry = entry_at(pc)
            rec = issue_recs[pc] = (None if entry is None
                                    else _issue_rec(entry))
        if rec is not None and rec[0] == group.words_cache:
            if rec[1](group, cycle):
                stages[2] = None
                stages[3] = group
                acc[ACC_ISSUED] += 1
                if rec[2]:
                    acc[ACC_DUAL] += 1
                acc[ACC_IFAST] += 1
                return 1
            return 0
        acc[ACC_SHAPE] += 1
        if ref_sources_ready(group, cycle):
            stages[2] = None
            ref_issue(group, cycle)
            stages[3] = group
            acc[ACC_IREF] += 1
            return 3
        return 2

    def me_cold(group, cycle):
        fn = _me_fn([fi.instr for fi in group.instrs], group.words_cache)
        if fn is False:
            # _initiate_me for a group with no loads or stores (its
            # per-instruction loop does nothing).
            group.me_initiated = True
            group.me_ready_cycle = cycle + 1
            group.me_requests = []
            return 0
        if fn(group, cycle):
            return 0
        acc[ACC_MEM] += 1
        initiate_me(group, cycle)
        return 1

    def retire_cold(group):
        return _retire_fn([fi.instr for fi in group.instrs],
                          group.words_cache)

    def flush(cycles, hold, dmem, ifwait, issued, dual, chain, ev,
              acc=acc, stats=stats, estats=estats, reasons=reasons):
        stats.cycles += cycles
        stats.hold_cycles += hold
        stats.dmem_wait_cycles += dmem
        stats.ifetch_miss_cycles += ifwait + acc[ACC_IFMISS]
        stats.fetch_groups += acc[ACC_FETCH]
        stats.decode_cache_hits += acc[ACC_DECHIT]
        stats.decode_cache_misses += acc[ACC_DECMISS]
        stats.committed += acc[ACC_COMMIT]
        stats.committed_loads += acc[ACC_LOADS]
        stats.committed_stores += acc[ACC_STORES]
        stats.committed_branches += acc[ACC_BRANCH]
        stats.committed_muldiv += acc[ACC_MULDIV]
        stats.issued_groups += issued + acc[ACC_ISSUED]
        stats.dual_issued_groups += dual + acc[ACC_DUAL]
        estats.deopts += ev
        estats.issue_fast += issued + acc[ACC_IFAST]
        estats.issue_ref += acc[ACC_IREF]
        estats.chained_fetches += chain
        estats.delegations += (acc[ACC_PLAN] + acc[ACC_PAGE]
                               + acc[ACC_SHAPE] + acc[ACC_MEM])
        for reason, slot in _REASON_SLOTS:
            count = acc[slot]
            if count:
                reasons[reason] = reasons.get(reason, 0) + count
        acc[:] = _AZEROS

    return (core, stages, acc, sb, sb.occupancy_view(), sb.stats,
            sb.bus.request_store, sb.master, reads, writes, idle_reads,
            idle_writes, ready, dfill, ifill, initiate_me, retire_cold,
            me_cold, issue_cold, fetch_cold, page_cold, fbox, flush)


# -- generated two-core span loop --------------------------------------
#
# The per-core cycle body below is a transliteration of Core.step with
# the same stage order (WB, XC, ME, EX, RA, DE, FE, fetch) and the same
# advance/hold semantics; both cores' bodies are merged into ONE
# compiled function so per-cycle costs (closure calls, default-argument
# copies, acc subscripts) collapse into local variables.  Tokens: `_N`
# is the core suffix, `AMEM` the ACC_MEM slot index.

_CORE_ARGS = ("core", "stages", "acc", "sb", "sbq", "sbst",
              "req_store", "master", "reads", "writes", "idle_reads",
              "idle_writes", "ready", "dfill", "ifill", "initiate_me",
              "retire_cold", "me_cold", "issue_cold", "fetch_cold",
              "page_cold", "fbox", "flush")

_FIN = ("(core_N.halted and stages_N[0] is None and stages_N[1] is None"
        " and stages_N[2] is None and stages_N[3] is None"
        " and stages_N[4] is None and stages_N[5] is None"
        " and stages_N[6] is None and not sb_N._entries"
        " and sb_N._inflight is None)")

_CORE_BODY = """\
c_cycles_N += 1
core_N.commits_this_cycle = 0
cw_N = []
core_N.committed_words = cw_N
reads_N[:] = idle_reads_N
writes_N[:] = idle_writes_N
ifl = sb_N._inflight
if ifl is not None:
    if ifl.granted and cycle >= ifl.complete_cycle:
        if sbq_N:
            sbst_N.transactions += 1
            sb_N._inflight = req_store_N(
                master_N, sbq_N.pop(0).line_address, cycle)
        else:
            sb_N._inflight = None
elif sbq_N:
    sbst_N.transactions += 1
    sb_N._inflight = req_store_N(master_N,
                                 sbq_N.pop(0).line_address, cycle)
adv_N = False
ev_N = 0
g = stages_N[6]
if g is not None:
    fn = g.retire_fn
    if fn is None:
        fn = retire_cold_N(g)
    fn(g, cw_N)
    stages_N[6] = None
    adv_N = True
g = stages_N[5]
if g is not None and stages_N[6] is None:
    stages_N[6] = g
    stages_N[5] = None
    adv_N = True
g = stages_N[4]
if g is not None:
    if not g.me_initiated:
        fn = g.me_fn
        if fn is None or fn is False:
            ev_N |= me_cold_N(g, cycle)
        elif not fn(g, cycle):
            acc_N[AMEM] += 1
            ev_N = 1
            initiate_me_N(g, cycle)
    elif g.me_ready_cycle is None:
        reqs = g.me_requests
        if reqs:
            done = True
            for req, _f in reqs:
                if not (req.granted and cycle >= req.complete_cycle):
                    done = False
                    break
            if done:
                for req, fetched in reqs:
                    dfill_N(req.address)
                    dest = fetched.instr._destination
                    if dest:
                        ready_N[dest] = cycle + 1
                g.me_requests = []
                g.me_ready_cycle = cycle + 1
    rdy = g.me_ready_cycle
    if rdy is None or cycle < rdy:
        c_dmem_N += 1
    elif stages_N[5] is None:
        stages_N[5] = g
        stages_N[4] = None
        adv_N = True
g = stages_N[3]
if g is not None and cycle >= g.ex_done_cycle and stages_N[4] is None:
    stages_N[4] = g
    stages_N[3] = None
    fn = g.me_fn
    if fn is False:
        g.me_initiated = True
        g.me_ready_cycle = cycle + 1
        g.me_requests = []
    elif fn is None:
        ev_N |= me_cold_N(g, cycle)
    elif not fn(g, cycle):
        acc_N[AMEM] += 1
        ev_N = 1
        initiate_me_N(g, cycle)
    adv_N = True
g = stages_N[2]
if g is not None and stages_N[3] is None:
    fn = g.issue_fn
    if fn is not None:
        r = fn(g, cycle)
        if r:
            stages_N[2] = None
            stages_N[3] = g
            c_issued_N += 1
            if r == 2:
                c_dual_N += 1
            adv_N = True
    else:
        r = issue_cold_N(g, cycle)
        if r == 1:
            adv_N = True
        elif r == 3:
            adv_N = True
            ev_N = 1
        elif r == 2:
            ev_N = 1
g = stages_N[1]
if g is not None and stages_N[2] is None:
    stages_N[2] = g
    stages_N[1] = None
    adv_N = True
g = stages_N[0]
if g is not None and stages_N[1] is None:
    stages_N[1] = g
    stages_N[0] = None
    adv_N = True
if stages_N[0] is None and core_N.fetch_enabled \\
        and not core_N._jalr_block:
    req = core_N._ifetch_req
    if req is not None:
        if req.granted and cycle >= req.complete_cycle:
            ifill_N(req.address)
            core_N._ifetch_req = None
            req = None
        else:
            c_ifwait_N += 1
    if req is None:
        pc = core_N.fetch_pc
        node = fcur_N
        if node[0] == pc:
            r = node[1](cycle)
            if r.__class__ is _tup:
                fcur_N = r
                c_chain_N += 1
                adv_N = True
            elif r == 2:
                r = page_cold_N(pc, cycle)
                fcur_N = fbox_N[0]
                if r & 1:
                    adv_N = True
                if r & 2:
                    ev_N = 1
        else:
            r = fetch_cold_N(pc, cycle)
            fcur_N = fbox_N[0]
            if r & 1:
                adv_N = True
            if r & 2:
                ev_N = 1
if adv_N:
    core_N.hold = False
else:
    core_N.hold = True
    c_hold_N += 1
c_ev_N += ev_N
"""


# DiversityMonitor.observe's per-core sampling (DS row push onto the
# unit's own row deque, IS stage-words tuple), inlined on the same
# objects repro.core.signatures samples.  Tokens: _N core suffix, _S
# signature-unit suffix (side + pair).
_OBS_CORE = """\
if not core_N.hold:
    rows_S.append(_tup(reads_N))
    g0 = stages_N[0]; g1 = stages_N[1]; g2 = stages_N[2]
    g3 = stages_N[3]; g4 = stages_N[4]; g5 = stages_N[5]
    g6 = stages_N[6]
    is_S._stage_words = (
        g0.words_cache if g0 is not None else None,
        g1.words_cache if g1 is not None else None,
        g2.words_cache if g2 is not None else None,
        g3.words_cache if g3 is not None else None,
        g4.words_cache if g4 is not None else None,
        g5.words_cache if g5 is not None else None,
        g6.words_cache if g6 is not None else None,
    )
"""

# The capture recorder's column appends (StreamRecorder.appends),
# spliced around _OBS_CORE for a pair with a recorder: the hold flag
# and commit count every observed cycle; on a cycle the core is not
# held, the row just pushed joined with the write ports (the order of
# RegisterFile.port_samples) and the stage words just stored.
_CAPTURE_HEAD = """\
rec_hold_S(core_N.hold)
rec_commits_S(core_N.commits_this_cycle)
"""
_CAPTURE_TAIL = """\
    rec_ports_S(rows_S[-1] + _tup(writes_N))
    rec_stages_S(is_S._stage_words)
"""


def _poll_tick_lines():
    """Monitor._tick + POLLING run-length accounting over span locals.

    Every tracker is a plain local, seeded at span entry and written
    back at span exit.  Tokens: _P pair suffix, core_A/core_B the
    pair's cores.
    """
    return ["o_diff_P += core_A.commits_this_cycle"
            " - core_B.commits_this_cycle",
            "o_sampled_P += 1",
            "if o_diff_P == 0:",
            "    o_zs_P += 1",
            "    run_zs_P += 1",
            "    if run_zs_P > long_zs_P:",
            "        long_zs_P = run_zs_P",
            "else:",
            "    if o_diff_P < o_dmin_P:",
            "        o_dmin_P = o_diff_P",
            "    elif o_diff_P > o_dmax_P:",
            "        o_dmax_P = o_diff_P",
            "    if run_zs_P:",
            "        hist_stag_P._close_run_at(run_zs_P)",
            "        run_zs_P = 0",
            "no_data = rows_a_P == rows_b_P",
            "no_instr = is_a_P._stage_words == is_b_P._stage_words",
            "if no_data:",
            "    o_nd_P += 1",
            "    run_nd_P += 1",
            "    if run_nd_P > long_nd_P:",
            "        long_nd_P = run_nd_P",
            "    if no_instr:",
            "        o_nv_P += 1",
            "        run_nv_P += 1",
            "        if run_nv_P > long_nv_P:",
            "            long_nv_P = run_nv_P",
            "    elif run_nv_P:",
            "        hist_div_P._close_run_at(run_nv_P)",
            "        run_nv_P = 0",
            "else:",
            "    if run_nd_P:",
            "        hist_data_P._close_run_at(run_nd_P)",
            "        run_nd_P = 0",
            "    if run_nv_P:",
            "        hist_div_P._close_run_at(run_nv_P)",
            "        run_nv_P = 0",
            "if no_instr:",
            "    o_ni_P += 1",
            "    run_ni_P += 1",
            "    if run_ni_P > long_ni_P:",
            "        long_ni_P = run_ni_P",
            "elif run_ni_P:",
            "    hist_instr_P._close_run_at(run_ni_P)",
            "    run_ni_P = 0",
            "o_last_cycle_P = cycle",
            "o_last_nd_P = no_data",
            "o_last_ni_P = no_instr"]


def _poll_seed_lines():
    """Span-entry seeds: delta counters start at zero, absolute
    trackers load from the live monitor objects (every span exit
    writes them back, so span entry always sees reconciled state)."""
    return ["o_sampled_P = o_nd_P = o_ni_P = o_nv_P = o_zs_P = 0",
            "o_diff_P = diff_unit_P.diff",
            "o_dmin_P = diff_stats_P.min_diff",
            "o_dmax_P = diff_stats_P.max_diff",
            "o_last_cycle_P = 0",
            "o_last_nd_P = o_last_ni_P = False",
            "run_nd_P = hist_data_P._run",
            "long_nd_P = hist_data_P.longest",
            "run_ni_P = hist_instr_P._run",
            "long_ni_P = hist_instr_P.longest",
            "run_nv_P = hist_div_P._run",
            "long_nv_P = hist_div_P.longest",
            "run_zs_P = hist_stag_P._run",
            "long_zs_P = hist_stag_P.longest"]


def _poll_flush_lines():
    """Span-exit write-back of the POLLING accounting locals."""
    lines = ["if o_sampled_P:",
             "    diff_unit_P.diff = o_diff_P",
             "    diff_stats_P.sampled_cycles += o_sampled_P",
             "    diff_stats_P.zero_staggering_cycles += o_zs_P",
             "    diff_stats_P.min_diff = o_dmin_P",
             "    diff_stats_P.max_diff = o_dmax_P",
             "    mstats_P.sampled_cycles += o_sampled_P",
             "    mstats_P.no_data_diversity_cycles += o_nd_P",
             "    mstats_P.no_instruction_diversity_cycles += o_ni_P",
             "    mstats_P.no_diversity_cycles += o_nv_P"]
    for hist, run, longest, total in (
            ("data", "run_nd", "long_nd", "o_nd"),
            ("instr", "run_ni", "long_ni", "o_ni"),
            ("div", "run_nv", "long_nv", "o_nv"),
            ("stag", "run_zs", "long_zs", "o_zs")):
        lines += ["    hist_%s_P._run = %s_P" % (hist, run),
                  "    hist_%s_P.longest = %s_P" % (hist, longest),
                  "    hist_%s_P.total_cycles += %s_P" % (hist, total)]
    lines += ["    monitor_P._have_report = True",
              "    monitor_P._last_cycle = o_last_cycle_P",
              "    monitor_P._last_data_div = not o_last_nd_P",
              "    monitor_P._last_instr_div = not o_last_ni_P",
              "    monitor_P._last_stagger = o_diff_P"]
    return lines


#: A recorded core's column appends, in StreamRecorder.appends order.
_CAPTURE_COLUMNS = ("rec_hold", "rec_commits", "rec_ports", "rec_stages")


def _pair_params(kind, has_record):
    """Unsuffixed span bindings one observed pair needs (filled by
    :func:`_pair_binding`)."""
    if kind == "off":
        return []
    names = []
    if has_record:
        names = ["rec_cycle"] + ["%s_%s" % (column, side)
                                 for side in "ab"
                                 for column in _CAPTURE_COLUMNS]
    # Side a/b: the pair's first/second core's signature units.
    names += ["%s_%s" % (arg, side) for side in "ab"
              for arg in ("rows", "is")]
    if kind == "irq":
        return names + ["tick"]
    return names + ["diff_unit", "diff_stats", "mstats", "monitor",
                    "hist_data", "hist_instr", "hist_div", "hist_stag"]


def _pair_observe_lines(kind, has_record):
    """The gated per-cycle observation of one pair (tokens as in
    :func:`_poll_tick_lines`)."""
    lines = ["if not (fin_A or fin_B):"]
    observe = _OBS_CORE
    if has_record:
        lines.append("    rec_cycle_P(cycle)")
        observe = _CAPTURE_HEAD + observe + _CAPTURE_TAIL
    for core, side in (("_A", "_a_P"), ("_B", "_b_P")):
        for line in observe.replace("_N", core).replace("_S", side) \
                           .splitlines():
            lines.append("    " + line)
    if kind == "poll":
        tick = _poll_tick_lines()
    else:
        # Live reporting: the reference _tick runs every sampled
        # cycle, so IRQ subscribers see the reference's state.
        tick = ["tick_P(cycle, rows_a_P != rows_b_P,",
                "       is_a_P._stage_words != is_b_P._stage_words,",
                "       core_A.commits_this_cycle,",
                "       core_B.commits_this_cycle)"]
    lines += ["    " + line for line in tick]
    return lines


# The golden recorder's per-cycle stamp of a core with a recording
# register file, before the cores step: the ``(3, cycle)`` log marker,
# then the issue frontier (repro.engine._frontier_pc: the pc
# of the oldest group in RA, DE, FE, else the halt marker or fetch_pc).
_RECORD_CORE = """\
log_N.append((3, cycle))
g = stages_N[2]
if g is None:
    g = stages_N[1]
    if g is None:
        g = stages_N[0]
if g is not None:
    front_N.append(g.instrs[0].pc)
elif core_N.halted:
    front_N.append(HALTED)
else:
    front_N.append(core_N.fetch_pc)
""".replace("HALTED", str(FRONTIER_HALTED))


def _fin(n):
    return _FIN.replace("_N", "_%d" % n)


def _build_span_source(num_cores, watched, pairs, num_taps, recorded):
    """Span source for one SoC shape.

    Steps ``num_cores`` cores and the bus, then observes every pair in
    ``pairs`` — ``(a, b, kind, has_record)``, gated on its own cores'
    finish state — then fires ``num_taps`` scheme taps ungated, in
    registration order, exactly like :meth:`MPSoC.step`.  ``kind`` is
    ``"off"`` (monitor disabled: no code), ``"poll"`` (POLLING
    accounting and the history module's run trackers generated into
    the loop as pair-suffixed locals, seeded at span entry and written
    back at span exit) or ``"irq"`` (interrupt reporting: inlined
    sampling, then the monitor's own ``_tick``).  ``has_record``
    splices the capture's column appends into the same gated
    observation: the cycle, each core's hold flag and commit count,
    and on a cycle the core is not held the row and the stage words
    the span has just built for the signature units (no call into the
    recorder).  Without it the source is that of a plain run.  The
    span terminates when every core in ``watched`` has finished.  Each
    core in ``recorded`` (its register file records a golden run) is
    stamped every cycle before the cores step, into its log and its
    frontier column.
    """
    args = ["soc"]
    for n in range(num_cores):
        args.extend("%s_%d" % (name, n) for name in _CORE_ARGS)
    for n in recorded:
        args.extend(("log_%d" % n, "front_%d" % n))
    args.extend(["bus", "bus_step"])
    for p, pair in enumerate(pairs):
        args.extend("%s_%d" % (name, p)
                    for name in _pair_params(*pair[2:]))
    args.extend("tap_%d" % i for i in range(num_taps))
    rebind = ", ".join("%s=%s" % (a, a) for a in args)
    lines = [
        "def _make_span(%s):" % ", ".join(args),
        "    def run_span(cycle, stop, %s,"
        " _tup=tuple):" % rebind,
    ]
    entry, loop, body = " " * 8, " " * 12, " " * 16

    def emit(indent, pair_lines, p, a, b):
        for line in pair_lines:
            lines.append(indent + line.replace("_P", "_%d" % p)
                         .replace("_A", "_%d" % a)
                         .replace("_B", "_%d" % b))

    for n in range(num_cores):
        for c in ("cycles", "hold", "dmem", "ifwait", "issued",
                  "dual", "chain", "ev"):
            lines.append(entry + "c_%s_%d = 0" % (c, n))
        lines.append(entry + "fcur_%d = fbox_%d[0]" % (n, n))
        lines.append(entry + "fin_%d = %s" % (n, _fin(n)))
    for p, (a, b, kind, _) in enumerate(pairs):
        if kind == "poll":
            emit(entry, _poll_seed_lines(), p, a, b)
    all_finished = " and ".join("fin_%d" % i for i in watched)
    lines.append(entry + "try:")
    lines.append(loop + "while cycle < stop:")
    lines.append(body + "if %s:" % all_finished)
    lines.append(body + "    break")
    for n in recorded:
        for line in _RECORD_CORE.replace("_N", "_%d" % n).splitlines():
            lines.append(body + line)
    core_body = _CORE_BODY.replace("AMEM", str(ACC_MEM))
    for n in range(num_cores):
        lines.append(body + "if fin_%d:" % n)
        lines.append(body + "    core_%d.commits_this_cycle = 0" % n)
        lines.append(body + "else:")
        for line in core_body.replace("_N", "_%d" % n).splitlines():
            lines.append(body + "    " + line if line else "")
    lines.append(body + "if bus._inflight is not None or bus._queue:")
    lines.append(body + "    bus_step(cycle)")
    for n in range(num_cores):
        lines.append(body + "if not fin_%d:" % n)
        lines.append(body + "    fin_%d = %s" % (n, _fin(n)))
    # Each pair's gate re-evaluates finish state after the cores
    # stepped, exactly like MPSoC.step does.
    for p, (a, b, kind, has_record) in enumerate(pairs):
        if kind != "off":
            emit(body, _pair_observe_lines(kind, has_record), p, a, b)
    for i in range(num_taps):
        lines.append(body + "tap_%d(cycle)" % i)
    lines.append(body + "cycle += 1")
    # The exit write-back runs on a trap too, which then leaves the SoC
    # exactly where MPSoC.step leaves it.
    lines.append(entry + "finally:")
    lines.append(loop + "soc.cycle = cycle")
    for n in range(num_cores):
        lines.append(loop + "fbox_%d[0] = fcur_%d" % (n, n))
        lines.append(loop + "flush_%d(c_cycles_%d, c_hold_%d,"
                     " c_dmem_%d, c_ifwait_%d, c_issued_%d, c_dual_%d,"
                     " c_chain_%d, c_ev_%d)" % ((n,) * 9))
    for p, (a, b, kind, _) in enumerate(pairs):
        if kind == "poll":
            emit(loop, _poll_flush_lines(), p, a, b)
    lines.append(entry + "return %s" % all_finished)
    lines.append("    return run_span")
    return "\n".join(lines)


#: (num_cores, watched, pairs, num_taps, recorded) -> compiled
#: _make_span.
_SPAN_CACHE = {}


def _span_maker(num_cores, watched, pairs, num_taps, recorded):
    key = (num_cores, tuple(watched), tuple(pairs), num_taps,
           tuple(recorded))
    make = _SPAN_CACHE.get(key)
    if make is None:
        namespace = {}
        exec(compile(_build_span_source(*key), "<repro.engine span>",
                     "exec"), namespace)
        make = _SPAN_CACHE[key] = namespace["_make_span"]
    return make


def _pair_binding(monitor, a, b, p):
    """Pair ``p``'s span shape ``(a, b, kind, has_record)`` and the
    live objects behind its bindings.

    The monitor's own state picks the kind.  Capture attachment is
    pre-run (or via a checkpoint callback, after which
    ``FastRunner._rebuild`` re-specializes), so its presence is baked
    into the generated source.  An attached recorder hands the bound
    appends of its trace's columns
    (:meth:`~repro.trace.stream_trace.StreamRecorder.appends`); a
    rebuild binds the same columns again, so a capture runs on across
    checkpoints.  The ``poll`` kind binds the history
    module's four run trackers (:class:`~repro.soc.mpsoc.MPSoC` builds
    one for every monitor); the ``irq`` kind leaves history to the
    monitor's ``_tick``.
    """
    has_record = monitor._capture is not None
    if not monitor.enabled:
        kind, has_record = "off", False
    elif monitor.mode is ReportingMode.POLLING:
        kind = "poll"
    else:
        kind = "irq"
    env = {"tick": monitor._tick,
           "diff_unit": monitor.instruction_diff,
           "diff_stats": monitor.instruction_diff.stats,
           "mstats": monitor.stats, "monitor": monitor}
    if has_record:
        env["rec_cycle"], cores = monitor._capture.appends()
        for side, appends in zip("ab", cores):
            env.update(("%s_%s" % (column, side), append)
                       for column, append in zip(_CAPTURE_COLUMNS,
                                                 appends))
    for side, ds, is_ in zip("ab", monitor.ds_units, monitor.is_units):
        env.update({"rows_" + side: ds._rows, "is_" + side: is_})
    if kind == "poll":
        history = monitor.history
        env.update(hist_data=history._no_data,
                   hist_instr=history._no_instr,
                   hist_div=history._no_div,
                   hist_stag=history._zero_stag)
    return (a, b, kind, has_record), {
        "%s_%d" % (name, p): env[name]
        for name in _pair_params(kind, has_record)}


class FastRunner:
    """Drives one :class:`~repro.soc.mpsoc.MPSoC` through the fast tier.

    Only valid for SoCs accepted by ``repro.engine._fast_supported``.
    One generated span serves every topology: N cores, every monitored
    pair (accounted according to its monitor's state), and the scheme
    taps.  The runner is rebuilt after any state restore — captured
    locals point into pre-restore lists.
    """

    def __init__(self, soc, plan, estats):
        self.soc = soc
        self.plan = plan
        self.estats = estats
        self._build()

    def _build(self):
        soc = self.soc
        env = {"soc": soc, "bus": soc.bus, "bus_step": soc.bus.step}
        recorded = []
        for n, core in enumerate(soc.cores):
            engine = _make_core_engine(core, self.plan, self.estats)
            env.update(("%s_%d" % (name, n), value)
                       for name, value in zip(_CORE_ARGS, engine))
            regfile = core.regfile
            if type(regfile) is RecordingRegisterFile:
                recorded.append(n)
                env["log_%d" % n] = regfile.log
                env["front_%d" % n] = regfile.frontier
        pairs = []
        for p, (monitor, (a, b)) in enumerate(zip(soc.monitors,
                                                  soc.monitor_pairs)):
            shape, bindings = _pair_binding(monitor, a, b, p)
            pairs.append(shape)
            env.update(bindings)
        taps = soc._scheme_taps
        env.update(("tap_%d" % i, tap) for i, tap in enumerate(taps))
        make = _span_maker(len(soc.cores), soc._watched_indices(),
                           pairs, len(taps), recorded)
        self._span = make(**env)

    def _rebuild(self):
        """Recreate closures after external state mutation (restores).

        Live groups may carry handlers bound to the previous engine's
        deferred-counter and write-port lists; drop them so they
        re-dispatch through the new engine's shape maps.
        """
        for core in self.soc.cores:
            for group in core.stages:
                if group is not None:
                    group.issue_fn = None
                    group.me_fn = None
                    group.retire_fn = None
        self._build()

    def run_span(self, stop: int) -> bool:
        """Step the platform until ``soc.cycle == stop`` or every
        watched core finishes.  Returns True when they all have,
        whichever ended the span (they may finish on ``stop`` itself).
        A trap propagates with the SoC at the trapping cycle, as the
        reference interpreter leaves it.
        """
        soc, estats = self.soc, self.estats
        start = soc.cycle
        try:
            return self._span(start, stop)
        finally:
            estats.fast_cycles += soc.cycle - start
            estats.blocks_compiled = self.plan.blocks_compiled
