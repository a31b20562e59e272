"""The built-in lint rules (codes L001-L013).

Each check receives the :class:`~repro.lint.engine.LintContext` (CFG,
solved abstract domains, debug info) plus its own :class:`Rule` and
yields diagnostics.  Codes are stable: tools and
``# lint: disable=`` comments key off them, so a rule may be retired
but its code never reused.

L001 and L002 consume the set domains (:mod:`repro.lint.dataflow`:
reaching definitions, liveness), L003-L009 the CFG and debug info,
L010-L012 the strided-interval domain (:mod:`repro.lint.absint`) and
L013 the fault-masking prover (:mod:`repro.lint.masking`, opt-in via
``prove_masking``).  L002, L004, L009 and L012 stay silent where a
statically-unknown indirect jump could reach what they would flag.
"""

from __future__ import annotations

from ..isa.registers import register_name
from .cfg import EXIT
from .dataflow import UNINIT
from .diagnostics import ERROR, INFO, WARNING, rule

#: Bases whose runtime value is known aligned (x0 = 0, gp = the
#: 4 KiB-aligned data base, sp = the 16-byte-aligned stack top; kernels
#: move sp only in multiples of 16 per the dsl convention).
_ALIGNED_BASES = frozenset((0, 2, 3))

#: gp (x3): the core-private data base register kernels must preserve.
_GP = 3


def _branch_target(pc, instr):
    if instr.iclass == "branch" or instr.mnemonic == "jal":
        return pc + instr.imm
    return None


@rule("L001", "uninit-read", ERROR,
      "register read with no prior write on some path from _start "
      "(only x0/sp/gp/tp are runtime-initialized)")
def check_uninit_read(ctx, rule):
    for block in ctx.reachable_blocks():
        for pc, instr, reaching in ctx.reaching.states(block):
            if reaching is None:
                continue  # never: the set domains reach every block
            for reg in instr.sources():
                if reg != 0 and (UNINIT, reg) in reaching:
                    yield rule.diagnostic(
                        "'%s' reads %s before any write reaches it"
                        % (instr.text(), register_name(reg)), pc=pc)


@rule("L002", "dead-store", WARNING,
      "register write never read on any path before being overwritten "
      "or the program halting")
def check_dead_store(ctx, rule):
    for block in ctx.reachable_blocks():
        for pc, instr, live_after in ctx.liveness.states(block):
            if live_after is None:
                continue  # never: the set domains reach every block
            rd = instr.destination()
            if rd is not None and rd not in live_after:
                yield rule.diagnostic(
                    "'%s' writes %s but the value is never read"
                    % (instr.text(), register_name(rd)), pc=pc)


@rule("L003", "x0-write", WARNING,
      "computation discarded into x0 (writes to x0 are architectural "
      "no-ops; only the canonical nop and plain jumps are idiomatic)")
def check_x0_write(ctx, rule):
    for pc, instr in sorted(ctx.cfg.instrs.items()):
        if (instr.rd == 0 and instr.iclass != "jump"
                and not instr.is_nop):
            yield rule.diagnostic(
                "'%s' discards its result into x0" % instr.text(),
                pc=pc)


@rule("L004", "unreachable", WARNING,
      "basic block unreachable from the program entry point")
def check_unreachable(ctx, rule):
    reachable = ctx.reachable
    if any(ctx.cfg.block(s).has_unknown_target for s in reachable):
        return  # indirect target unknown: any block may be its target
    for block in ctx.cfg.blocks():
        if block.start not in reachable:
            yield rule.diagnostic(
                "block of %d instruction(s) at %#x is unreachable "
                "from _start" % (len(block), block.start),
                pc=block.start)


@rule("L005", "bad-branch-target", ERROR,
      "branch/jump target outside the image, misaligned, or landing "
      "on data")
def check_bad_branch_target(ctx, rule):
    for pc, target in sorted(ctx.cfg.invalid_targets):
        instr = ctx.cfg.instrs[pc]
        yield rule.diagnostic(
            "'%s' targets %#x, which is not an instruction in the "
            "image" % (instr.text(), target), pc=pc)


@rule("L006", "pseudo-interior-target", ERROR,
      "branch/jump into the middle of an expanded li/la sequence "
      "(executes a half-built constant)")
def check_pseudo_interior_target(ctx, rule):
    if ctx.debug is None:
        return
    interiors = ctx.debug.pseudo_interiors
    for pc, instr in sorted(ctx.cfg.instrs.items()):
        target = _branch_target(pc, instr)
        if target is not None and target in interiors:
            yield rule.diagnostic(
                "'%s' jumps into the middle of a pseudo-instruction "
                "expansion at %#x" % (instr.text(), target), pc=pc)


@rule("L007", "misaligned-access", ERROR,
      "load/store offset statically misaligned for its access size "
      "relative to an aligned base (x0/sp/gp)")
def check_misaligned_access(ctx, rule):
    for pc, instr in sorted(ctx.cfg.instrs.items()):
        spec = instr.spec
        if (spec.is_memory and spec.size > 1
                and instr.rs1 in _ALIGNED_BASES
                and instr.imm % spec.size != 0):
            yield rule.diagnostic(
                "'%s' accesses %d bytes at offset %d from %s, which "
                "is not %d-byte aligned"
                % (instr.text(), spec.size, instr.imm,
                   register_name(instr.rs1), spec.size), pc=pc)


@rule("L008", "gp-clobber", ERROR,
      "write to gp, the core-private data base register the kernel "
      "convention requires to stay fixed")
def check_gp_clobber(ctx, rule):
    for pc, instr in sorted(ctx.cfg.instrs.items()):
        if instr.destination() == _GP:
            yield rule.diagnostic(
                "'%s' clobbers gp (the data base register)"
                % instr.text(), pc=pc)


@rule("L009", "no-exit-path", ERROR,
      "reachable code with no path to the halt (ebreak/ecall): the "
      "kernel can never publish its store_result checksum")
def check_no_exit_path(ctx, rule):
    cfg = ctx.cfg
    if cfg.entry_block is None or EXIT not in [
            s for b in cfg.all_blocks() for s in b.succs]:
        # No halt anywhere: the whole program is the finding.
        if cfg.entry_block is not None:
            yield rule.diagnostic(
                "program has no ebreak/ecall halt at all",
                pc=cfg.entry)
        return
    if any(cfg.block(s).has_unknown_target for s in ctx.reachable):
        return  # indirect target unknown: cannot prove non-termination
    reaches_exit = cfg.reaches_exit()
    trapped = sorted(s for s in ctx.reachable if s not in reaches_exit)
    if trapped:
        yield rule.diagnostic(
            "%d reachable block(s) starting at %#x can never reach "
            "the halt" % (len(trapped), trapped[0]), pc=trapped[0])


@rule("L010", "constant-branch", WARNING,
      "conditional branch whose direction the interval analysis "
      "proves constant on every execution")
def check_constant_branch(ctx, rule):
    for pc, taken in sorted(ctx.branch_decisions().items()):
        instr = ctx.cfg.instrs[pc]
        yield rule.diagnostic(
            "'%s' is always %s" % (instr.text(),
                                   "taken" if taken else "not taken"),
            pc=pc)


@rule("L011", "proven-misaligned-access", ERROR,
      "load/store through a computed base whose interval proves the "
      "effective address misaligned for the access size")
def check_proven_misaligned_access(ctx, rule):
    for block in ctx.reachable_blocks():
        for pc, instr in block.instrs:
            spec = instr.spec
            if not (spec.is_memory and spec.size > 1):
                continue
            if instr.rs1 in _ALIGNED_BASES:
                continue  # statically-aligned bases are L007's job
            state = ctx.interval_before(pc)
            if state is None:
                continue
            interval = state.get(instr.rs1)
            if interval is None:
                continue
            residue = interval.residue(spec.size)
            if residue is None:
                continue
            misalign = (residue + instr.imm) % spec.size
            if misalign != 0:
                yield rule.diagnostic(
                    "'%s' accesses %d bytes at an address provably "
                    "== %d (mod %d) on every execution"
                    % (instr.text(), spec.size, misalign, spec.size),
                    pc=pc)


@rule("L012", "proven-unreachable-exit", ERROR,
      "reachable code whose every path to the halt runs through a "
      "branch edge the interval analysis proves never taken")
def check_proven_unreachable_exit(ctx, rule):
    cfg = ctx.cfg
    if cfg.entry_block is None:
        return
    if any(cfg.block(s).has_unknown_target for s in ctx.reachable):
        return  # indirect target unknown: cannot prove anything
    dead = ctx.dead_edges()
    if not dead:
        return
    # Reachability and reaches-exit over the CFG minus proven-dead
    # edges.  Only blocks that pass the plain L009 check are reported
    # here, so the two rules never double-fire on the same block.
    live_succs = {
        b.start: [s for s in b.succs if (b.start, s) not in dead]
        for b in cfg.all_blocks()}
    live_reach = set()
    stack = [cfg.entry]
    while stack:
        start = stack.pop()
        if start in live_reach or start == EXIT:
            continue
        live_reach.add(start)
        stack.extend(live_succs.get(start, ()))
    reaches = {EXIT}
    changed = True
    while changed:
        changed = False
        for b in cfg.all_blocks():
            if b.start in reaches:
                continue
            if any(s in reaches for s in live_succs[b.start]):
                reaches.add(b.start)
                changed = True
    plain_reaches_exit = cfg.reaches_exit()
    trapped = sorted(s for s in live_reach
                     if s not in reaches and s in plain_reaches_exit)
    if trapped:
        yield rule.diagnostic(
            "%d block(s) starting at %#x only reach the halt through "
            "a branch edge that is provably never taken"
            % (len(trapped), trapped[0]), pc=trapped[0])


@rule("L013", "dead-window-report", INFO,
      "register with proven fault-masking windows: program points "
      "where any bit-flip in it is architecturally dead")
def check_dead_window_report(ctx, rule):
    if not ctx.prove_masking:
        return
    proofs = ctx.masking
    first_write = {}
    for pc, instr in sorted(ctx.cfg.instrs.items()):
        rd = instr.destination()
        if rd is not None and rd not in first_write:
            first_write[rd] = pc
    for reg in sorted(proofs.written_registers):
        count = proofs.dead_point_count(reg)
        if count == 0:
            continue
        windows = proofs.windows(reg)
        yield rule.diagnostic(
            "%s is provably fault-dead at %d of %d program points "
            "(%d window(s))"
            % (register_name(reg), count, proofs.point_count,
               len(windows)),
            pc=first_write.get(reg, ctx.cfg.entry))
