"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run <kernel> [--stagger N] [--late-core {0,1}] [--mode M]
  [--threshold N] [--capture FILE | --replay FILE]
  [--checkpoint-every N [--resume]]`` — one redundant run with SafeDM
  counters; ``--capture`` records the raw signature streams to FILE,
  ``--replay`` recomputes the counters from such a file without
  simulating.  ``--checkpoint-every`` snapshots the full machine state
  into the run cache every N cycles; ``--resume`` restores the latest
  such checkpoint and finishes the run from there.
* ``row <kernel>`` — one full Table I row (all staggering setups).
* ``table1 [kernels...] [--jobs N] [--no-cache] [--capture]
  [--replay]`` — the Table I sweep (all 29 by default), parallel
  across cores and run-cached; ``--capture``/``--replay`` wire the
  sweep into the stream-trace cache.
* ``sweep-monitor <kernel> [--thresholds ...] [--modes ...]
  [--is-variants ...] [--ds-depths ...]`` — evaluate many monitor
  configurations over ONE simulation via capture-once/replay-many.
* ``campaign <kernel> [--injections N] [--shared] [--jobs N]
  [--checkpoint-every N]`` — CCF fault-injection campaign with SafeDM
  cross-referencing; ``--checkpoint-every`` forks each injection from
  a golden-run checkpoint instead of re-simulating from cycle 0, and
  ``--jobs`` spreads the injections across worker processes.
* ``montecarlo <kernel> [--trials N] [--kind ccf|transient]
  [--seed N] [--jobs N] [--bins N] [--format text|json]`` — batched
  Monte-Carlo fault campaign: one instrumented golden run classifies
  provably-masked trials without simulation; only live trials fork
  from checkpoints.  Same seed gives a bit-identical campaign for any
  jobs count.
* ``lint [kernels...|--all] [--prove-masking] [--format text|json]``
  — static analysis (CFG + dataflow + abstract-interpretation
  diagnostics) over kernel images; ``--prove-masking`` adds the L013
  fault-masking dead-window report; non-zero exit on error-severity
  findings.
* ``diversity-static <kernel_a> <kernel_b> [--stagger N]
  [--validate] [--format text|json]`` — static lower bound on SafeDM
  instruction-signature diversity for a staggered image pair, with
  optional validation against the simulated monitor.
* ``metrics <snapshot.json>`` — pretty-print a telemetry snapshot.
* ``list`` — available kernels with category and description.
* ``figures`` — regenerate Figs. 1-4 as structural descriptions.
* ``overheads`` — the Section V-D area/power numbers.
* ``vcd <kernel> <out.vcd>`` — dump the monitor waveforms of a run
  captured on the reference tier, up to the last observed cycle.
* ``disasm <kernel>`` — disassemble a kernel image.

``run``, ``table1``, and ``campaign`` accept ``--metrics FILE`` (JSON
telemetry snapshot, see ``repro metrics``) and ``--trace FILE``
(Chrome ``about://tracing`` / Perfetto span timeline).

``run``, ``table1``, ``sweep-monitor``, and ``campaign`` accept
``--engine {reference,fast}`` to select the execution tier
(:mod:`repro.engine`); results are bit-identical, the fast tier is
just faster.
"""

from __future__ import annotations

import argparse
import os
import sys


def format_columns(rows, headers=None, min_width=16) -> str:
    """Left-aligned column layout shared by ``list`` and ``metrics``.

    Every column but the last is padded to the longest cell (at least
    ``min_width``); the last column runs free.  With ``headers`` a
    title row plus dashed rule is prepended.
    """
    rows = [tuple(str(cell) for cell in row) for row in rows]
    sized = ([tuple(headers)] if headers else []) + rows
    if not sized:
        return ""
    columns = max(len(row) for row in sized)
    widths = [
        max([min_width] + [len(row[i]) for row in sized if i < len(row)])
        for i in range(columns - 1)
    ]

    def fmt(row):
        cells = [cell.ljust(widths[i]) if i < len(widths) else cell
                 for i, cell in enumerate(row)]
        return " ".join(cells).rstrip()

    lines = []
    if headers:
        lines.append(fmt(headers))
        lines.append("-" * max(len(fmt(row)) for row in sized))
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


#: Redundancy schemes (mirrors ``repro.schemes.SCHEME_KINDS``; spelled
#: out so building the parser does not import the scheme framework).
_SCHEME_CHOICES = ("safedm", "lockstep", "tmr", "multipair", "dme")

#: Kernel subset ``compare-schemes --all`` sweeps: short kernels from
#: three different control-flow families, keeping the full 5-scheme
#: matrix tractable on one machine.
_COMPARE_KERNELS = ("binarysearch", "bitonic", "cosf")


def _add_engine_flag(parser):
    parser.add_argument("--engine", default="reference",
                        choices=("reference", "fast"),
                        help="execution tier: the reference interpreter "
                             "or the block-compiled fast tier "
                             "(bit-identical results)")


def _add_telemetry_flags(parser):
    parser.add_argument("--metrics", default=None, metavar="FILE",
                        help="write a telemetry JSON snapshot to FILE")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome about://tracing JSON "
                             "trace to FILE")


def _jobs_or_all_cores(text: str):
    """``--jobs`` value where 0 asks for one worker per core."""
    jobs = int(text)
    return None if jobs == 0 else jobs


#: The arguments that name a file the command writes (``table1
#: --capture`` is a switch, not a path).
_OUTPUT_ARGS = ("metrics", "trace", "capture", "csv", "output")


def _check_writable(path: str):
    """Raise ``ValueError`` unless ``path`` opens for writing; a file
    the probe creates is removed again."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (
            path, exc.strerror or exc)) from None
    if not existed:
        os.remove(path)


def _check_args(args):
    """Reject unknown kernel names, job, trial, bin, injection and
    fault counts below 1, a negative checkpoint cadence or stagger,
    and then an output file that cannot be written, before any work
    starts (raises ``ValueError`` with a one-line reason)."""
    from .workloads import workload
    for attr in ("kernel", "kernel_a", "kernel_b", "kernels"):
        value = getattr(args, attr, None) or ()
        for name in [value] if isinstance(value, str) else value:
            try:
                workload(name)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None
    if getattr(args, "jobs", None) is not None:
        from .runner.executor import resolve_jobs
        resolve_jobs(args.jobs)
    for attr in ("trials", "bins", "injections", "faults"):
        value = getattr(args, attr, None)
        if value is not None and value < 1:
            raise ValueError("%s must be at least 1, got %d"
                             % (attr, value))
    for attr, flag in (("checkpoint_every", "checkpoint-every"),
                       ("stagger", "stagger")):
        value = getattr(args, attr, None)
        if value is not None and value < 0:
            raise ValueError("%s must be at least 0, got %d"
                             % (flag, value))
    for attr in _OUTPUT_ARGS:
        path = getattr(args, attr, None)
        if isinstance(path, str) and path:
            _check_writable(path)


def _file_error(action: str, path: str, exc: Exception) -> int:
    """One ``error:`` line for a file a command cannot use; exit 2."""
    print("error: cannot %s %s: %s" % (
        action, path, getattr(exc, "strerror", None) or exc),
        file=sys.stderr)
    return 2


def _make_telemetry(args):
    """(metrics, tracer) per the ``--metrics``/``--trace`` flags."""
    metrics = tracer = None
    if args.metrics:
        from .telemetry import MetricsRegistry
        metrics = MetricsRegistry()
    if args.trace:
        from .telemetry import Tracer
        tracer = Tracer()
    return metrics, tracer


def _save_telemetry(args, metrics, tracer, **meta):
    if metrics is not None:
        from .telemetry import write_snapshot
        write_snapshot(metrics, args.metrics, meta=meta)
        print("metrics snapshot written to %s (%d series)"
              % (args.metrics, len(metrics)), file=sys.stderr)
    if tracer is not None:
        tracer.save(args.trace)
        print("trace written to %s (%d spans)"
              % (args.trace, len(tracer)), file=sys.stderr)


def _cmd_list(args) -> int:
    from .workloads import all_names, workload
    rows = [(spec.name, spec.category, spec.description)
            for spec in (workload(name) for name in all_names())]
    print(format_columns(rows,
                         headers=("kernel", "category", "description")))
    return 0


class _RunCheckpointer:
    """Persists ``repro run`` snapshots into the run cache.

    Checkpoints are keyed by the *monitor* key (simulation key plus
    signature geometry, mode, and threshold): a snapshot holds the full
    SoC state including the monitor, so two runs differing only in the
    reporting mode must not share checkpoints.  A small index entry
    (same cadence-qualified key space) records which cycles have
    snapshots so ``--resume`` can find the latest one.
    """

    def __init__(self, args, mode):
        from .runner.cache import (
            CheckpointIndexStore,
            CheckpointStore,
            checkpoint_index_key,
            checkpoint_key,
            monitor_key,
            program_digest,
            signature_digest,
            sim_config_digest,
            simulation_key,
        )
        from .workloads import program
        self._checkpoint_key = checkpoint_key
        self.kernel = args.kernel
        self.every = args.checkpoint_every
        sim = simulation_key(program_digest(program(args.kernel)),
                             sim_config_digest(None),
                             benchmark=args.kernel,
                             stagger_nops=args.stagger,
                             late_core=args.late_core,
                             rr_start=0, max_cycles=2_000_000)
        self.key = monitor_key(sim, signature_dig=signature_digest(None),
                               mode_value=mode.value,
                               threshold=args.threshold)
        self.index_key = checkpoint_index_key(self.key, every=self.every)
        self.store = CheckpointStore()
        self.index_store = CheckpointIndexStore()
        self.cycles = []

    def save(self, soc):
        snap = soc.snapshot(benchmark=self.kernel,
                            checkpoint_every=self.every,
                            sim_key=self.key)
        self.store.put_blob(
            self._checkpoint_key(self.key, cycle=soc.cycle,
                                 every=self.every),
            snap.encode())
        self.cycles.append(soc.cycle)

    def latest(self):
        """Latest decodable cached snapshot, or None."""
        index = self.index_store.get(self.index_key)
        if not index:
            return None
        cycles = sorted(int(c) for c in index.get("cycles", ()))
        for cycle in reversed(cycles):
            snap = self.store.get(self._checkpoint_key(
                self.key, cycle=cycle, every=self.every))
            if snap is not None:
                # Seed the index with what is still on disk so finish()
                # rewrites a truthful cycle list.
                self.cycles = [c for c in cycles if c <= cycle]
                return snap
        return None

    def finish(self):
        if self.cycles:
            self.index_store.put(self.index_key,
                                 {"every": self.every,
                                  "cycles": sorted(set(self.cycles))})


def _cmd_run(args) -> int:
    from .core.monitor import ReportingMode
    from .workloads import program
    metrics, tracer = _make_telemetry(args)
    mode = ReportingMode(args.mode)
    if (args.resume or args.checkpoint_every) \
            and (args.capture or args.replay):
        print("error: --checkpoint-every/--resume cannot be combined "
              "with --capture/--replay", file=sys.stderr)
        return 2
    if args.scheme and (args.capture or args.replay
                        or args.checkpoint_every or args.resume):
        print("error: --scheme runs do not support --capture/--replay/"
              "--checkpoint-every/--resume", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_every:
        print("error: --resume needs --checkpoint-every N (the cadence "
              "identifies the checkpoint set)", file=sys.stderr)
        return 2
    if args.replay:
        from .replay import replay_run
        from .trace import StreamTrace
        try:
            trace = StreamTrace.load(args.replay)
        except (OSError, ValueError) as exc:
            return _file_error("read trace", args.replay, exc)
        meta = trace.meta
        if (meta.benchmark != args.kernel
                or meta.stagger_nops != args.stagger
                or meta.late_core != args.late_core):
            print("error: trace %s was captured for %s nops=%d late=%d;"
                  " a different simulation cannot be replayed —"
                  " re-simulate (repro run %s --capture ...)"
                  % (args.replay, meta.benchmark, meta.stagger_nops,
                     meta.late_core, args.kernel), file=sys.stderr)
            return 2
        result = replay_run(trace, mode=mode,
                            threshold=args.threshold)
        print("replayed from %s (%d cycles captured)"
              % (args.replay, meta.cycles), file=sys.stderr)
    elif args.capture:
        from .soc.experiment import run_redundant_captured
        result, trace = run_redundant_captured(
            program(args.kernel), benchmark=args.kernel,
            stagger_nops=args.stagger, late_core=args.late_core,
            mode=mode, threshold=args.threshold, metrics=metrics,
            tracer=tracer, engine=args.engine)
        size = trace.save(args.capture)
        print("stream trace written to %s (%d samples, %d bytes)"
              % (args.capture, len(trace), size), file=sys.stderr)
    else:
        from .soc.experiment import run_redundant

        class _Grab:
            soc = None

            def __call__(self, soc):
                self.soc = soc

        grab = _Grab()
        checkpointer = None
        resume_from = None
        if args.checkpoint_every:
            checkpointer = _RunCheckpointer(args, mode)
            if args.resume:
                resume_from = checkpointer.latest()
                if resume_from is None:
                    print("error: no cached checkpoint for this run; "
                          "run once with --checkpoint-every %d first"
                          % args.checkpoint_every, file=sys.stderr)
                    return 2
                print("resuming from cycle %d" % resume_from.meta.cycle,
                      file=sys.stderr)
        result = run_redundant(program(args.kernel),
                               benchmark=args.kernel,
                               stagger_nops=args.stagger,
                               late_core=args.late_core,
                               mode=mode, threshold=args.threshold,
                               metrics=metrics, tracer=tracer,
                               checkpoint_every=args.checkpoint_every,
                               on_checkpoint=(checkpointer.save
                                              if checkpointer else None),
                               resume_from=resume_from,
                               engine=args.engine,
                               scheme=args.scheme,
                               soc_hook=grab)
        if grab.soc is not None and grab.soc.engine_stats is not None:
            stats = grab.soc.engine_stats
            if stats.fallback_reason is not None:
                print("engine: fell back to reference (%s)"
                      % stats.fallback_reason, file=sys.stderr)
            elif stats.engine == "fast":
                print("engine: fast tier, %d block(s) compiled, "
                      "%d superblock link(s), tier hit rate %.1f%%"
                      % (stats.blocks_compiled, stats.superblock_links,
                         100.0 * stats.tier_hit_rate),
                      file=sys.stderr)
                print("engine: %d deopt cycle(s), %d reference "
                      "delegation(s), %d recompilation(s)"
                      % (stats.deopts, stats.delegations,
                         stats.recompilations), file=sys.stderr)
                if stats.deopt_reasons:
                    print("engine: deopt reasons: %s"
                          % " ".join("%s=%d" % item for item in
                                     sorted(stats.deopt_reasons.items())),
                          file=sys.stderr)
        if checkpointer is not None:
            checkpointer.finish()
            print("%d checkpoint(s) in the run cache; continue an "
                  "interrupted run with --resume"
                  % len(checkpointer.cycles), file=sys.stderr)
    print(result.summary())
    print("finished=%s committed=%d ipc=%.2f interrupts=%d"
          % (result.finished, result.committed, result.ipc,
             result.interrupts))
    print("no-data-div=%d no-instr-div=%d"
          % (result.no_data_diversity_cycles,
             result.no_instruction_diversity_cycles))
    if result.scheme_stats is not None:
        stats = result.scheme_stats
        extras = " ".join("%s=%s" % (k, stats[k]) for k in stats
                          if k not in ("kind", "replicas", "outputs",
                                       "detected"))
        print("scheme=%s replicas=%d outputs=%s detected=%s%s"
              % (result.scheme, stats.get("replicas", 0),
                 ",".join("%#x" % out for out in stats["outputs"]),
                 stats["detected"], " " + extras if extras else ""))
    _save_telemetry(args, metrics, tracer, command="run",
                    kernel=args.kernel, stagger_nops=args.stagger)
    return 0 if result.finished else 1


def _cmd_row(args) -> int:
    from .analysis.tables import format_table1
    from .soc.experiment import PAPER_STAGGER_VALUES, run_row
    from .workloads import program
    cells = run_row(program(args.kernel), args.kernel,
                    stagger_values=PAPER_STAGGER_VALUES)
    print(format_table1({args.kernel: cells}, PAPER_STAGGER_VALUES))
    return 0


def _cmd_table1(args) -> int:
    from .analysis.tables import format_table1, format_table1_csv
    from .runner import ParallelSweep
    from .soc.experiment import PAPER_STAGGER_VALUES
    from .workloads import all_names
    names = args.kernels or all_names()
    metrics, tracer = _make_telemetry(args)
    sweep = ParallelSweep(jobs=args.jobs, use_cache=not args.no_cache,
                          progress=True, metrics=metrics, tracer=tracer,
                          capture=args.capture, replay=args.replay,
                          engine=args.engine)
    rows = sweep.run_table(names, stagger_values=PAPER_STAGGER_VALUES)
    print(format_table1(rows, PAPER_STAGGER_VALUES))
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(format_table1_csv(rows, PAPER_STAGGER_VALUES))
        print("CSV written to %s" % args.csv, file=sys.stderr)
    _save_telemetry(args, metrics, tracer, command="table1",
                    kernels=len(names), jobs=sweep.jobs)
    return 0


def _cmd_sweep_monitor(args) -> int:
    from .core.monitor import ReportingMode
    from .core.signatures import IsVariant, SignatureConfig
    from .replay.monitor_sweep import MonitorPoint, MonitorSweep, check_points
    from .soc.config import SocConfig
    metrics, tracer = _make_telemetry(args)

    signatures = [SignatureConfig(is_variant=IsVariant(variant),
                                  num_ports=ports, ds_depth=depth)
                  for variant in args.is_variants
                  for ports in args.num_ports
                  for depth in args.ds_depths]
    points = [MonitorPoint(mode=ReportingMode(mode), threshold=thr,
                           signature=sig)
              for sig in signatures
              for mode in args.modes
              for thr in args.thresholds]
    try:
        check_points(points, SocConfig())
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    sweep = MonitorSweep(use_cache=not args.no_cache,
                         metrics=metrics, tracer=tracer,
                         engine=args.engine)
    outcome = sweep.sweep(args.kernel, points,
                          stagger_nops=args.stagger,
                          late_core=args.late_core,
                          max_cycles=args.max_cycles)

    rows = [(p.mode.value, p.threshold, p.signature.is_variant.value,
             p.signature.num_ports, p.signature.ds_depth,
             r.no_diversity_cycles, r.no_data_diversity_cycles,
             r.no_instruction_diversity_cycles,
             r.zero_staggering_cycles, r.interrupts)
            for p, r in zip(outcome.points, outcome.results)]
    print(format_columns(rows, headers=(
        "mode", "thr", "is", "ports", "depth", "no_div", "no_data",
        "no_instr", "zero_stag", "irq"), min_width=8))

    parts = ["%d point(s) over %d simulated cycles"
             % (len(points), outcome.cycles)]
    if outcome.cache_hits:
        parts.append("%d from run cache" % outcome.cache_hits)
    if outcome.captured:
        parts.append("captured once in %.2fs (%d KiB trace)"
                     % (outcome.capture_seconds,
                        outcome.trace_bytes // 1024))
    elif len(points) > outcome.cache_hits:
        parts.append("trace reused from cache")
    if outcome.replay_seconds:
        parts.append("replayed in %.2fs" % outcome.replay_seconds)
    speedup = outcome.speedup_estimate()
    if speedup is not None:
        parts.append("~%.1fx vs per-point simulation" % speedup)
    print("; ".join(parts), file=sys.stderr)

    _save_telemetry(args, metrics, tracer, command="sweep-monitor",
                    kernel=args.kernel, points=len(points))
    return 0


def _cmd_campaign(args) -> int:
    from .fault import (
        run_ccf_campaign,
        shared_address_config,
        spread_cycles,
    )
    from .soc.experiment import run_redundant
    from .workloads import program
    prog = program(args.kernel)
    if args.scheme:
        if args.shared or args.checkpoint_every or args.no_cache:
            print("error: --scheme trials use per-scheme topologies; "
                  "--shared/--checkpoint-every/--no-cache apply only to "
                  "the SafeDM pair campaign", file=sys.stderr)
            return 2
        from .schemes.matrix import DEFAULT_STIMULI, matrix_table
        metrics, tracer = _make_telemetry(args)
        rows = _scheme_matrix(prog, benchmark=args.kernel,
                              schemes=[args.scheme],
                              num_faults=args.injections,
                              stimuli=args.stimuli or DEFAULT_STIMULI,
                              max_cycles=args.max_cycles,
                              engine=args.engine, jobs=args.jobs,
                              metrics=metrics, tracer=tracer)
        if rows is None:
            return 2
        print(matrix_table(rows))
        _save_telemetry(args, metrics, tracer, command="campaign",
                        kernel=args.kernel, scheme=args.scheme)
        return 0 if rows[0].silent == 0 else 1
    config = shared_address_config() if args.shared else None
    metrics, tracer = _make_telemetry(args)
    # A fault-free probe run fixes the timeline length the injection
    # instants are spread across.
    probe = run_redundant(prog, benchmark=args.kernel, config=config,
                          max_cycles=args.max_cycles, tracer=tracer,
                          engine=args.engine)
    if not probe.finished:
        # Every injection would be judged against a truncated run's
        # checksum.
        print("error: the golden run of %s did not finish within %d "
              "cycles" % (args.kernel, args.max_cycles), file=sys.stderr)
        return 2
    cycles = spread_cycles(probe.cycles, args.injections)
    result = run_ccf_campaign(prog, cycles, stimuli=args.stimuli,
                              config=config, max_cycles=args.max_cycles,
                              metrics=metrics, tracer=tracer,
                              checkpoint_every=args.checkpoint_every,
                              jobs=args.jobs,
                              cache_dir=(True if args.checkpoint_every
                                         and not args.no_cache
                                         else None),
                              benchmark=args.kernel,
                              engine=args.engine)
    print("%s over %d cycles:" % (args.kernel, probe.cycles))
    print(result.summary())
    _save_telemetry(args, metrics, tracer, command="campaign",
                    kernel=args.kernel, injections=len(result.injections),
                    shared=bool(args.shared))
    # The paper's no-false-negative property: a silent escape in a
    # cycle SafeDM called diverse would falsify the reproduction.
    return 0 if result.silent_despite_diversity == 0 else 1


def _scheme_matrix(prog, **kwargs):
    """:func:`repro.schemes.matrix.scheme_matrix` rows, or ``None``
    after a one-line error when a golden run cannot finish within
    ``--max-cycles``."""
    from .schemes.matrix import scheme_matrix
    try:
        return scheme_matrix(prog, **kwargs)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return None


def _cmd_compare_schemes(args) -> int:
    from .schemes.matrix import matrix_table
    from .workloads import program
    kernels = args.kernels or (list(_COMPARE_KERNELS) if args.all
                               else ["binarysearch"])
    schemes = args.schemes or list(_SCHEME_CHOICES)
    metrics, tracer = _make_telemetry(args)
    failures = 0
    for kernel in kernels:
        rows = _scheme_matrix(program(kernel), benchmark=kernel,
                              schemes=schemes, num_faults=args.faults,
                              stimuli=args.stimuli,
                              max_cycles=args.max_cycles,
                              engine=args.engine,
                              metrics=metrics, tracer=tracer)
        if rows is None:
            return 2
        print("%s (golden runs: %s cycles):"
              % (kernel, "/".join(str(r.golden_cycles) for r in rows)))
        print(matrix_table(rows))
        print()
        # The diversity ≡ 0 control: lockstep must catch every
        # unmasked CCF; a silent escape there is a framework bug.
        failures += sum(r.silent for r in rows
                        if r.scheme == "lockstep")
    _save_telemetry(args, metrics, tracer, command="compare-schemes",
                    kernels=len(kernels), schemes=len(schemes))
    return 0 if failures == 0 else 1


def _cmd_montecarlo(args) -> int:
    import json
    import time

    from .fault import shared_address_config
    from .montecarlo import BatchedCampaign, batch_statistics
    from .workloads import program
    prog = program(args.kernel)
    config = shared_address_config() if args.shared else None
    metrics, tracer = _make_telemetry(args)

    start = time.perf_counter()
    campaign = BatchedCampaign(prog, benchmark=args.kernel,
                               config=config,
                               max_cycles=args.max_cycles,
                               checkpoint_every=args.checkpoint_every,
                               engine=args.engine)
    sample = (campaign.sample_ccf if args.kind == "ccf"
              else campaign.sample_transient)
    try:
        batch = sample(args.trials, seed=args.seed)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    result = campaign.run(batch, jobs=args.jobs, seed=args.seed,
                          metrics=metrics)
    wall = time.perf_counter() - start
    stats = batch_statistics(batch, bins=args.bins,
                             end_cycle=result.golden_cycles,
                             seed=args.seed)

    if args.format == "json":
        print(json.dumps({"summary": result.summary_dict(),
                          "statistics": stats,
                          "wall_s": round(wall, 3),
                          "trials_per_s": round(batch.n / wall, 1)},
                         indent=2))
    else:
        print("%s: %d %s trials over %d cycles (seed %d)"
              % (args.kernel, batch.n, batch.kind,
                 result.golden_cycles, args.seed))
        print(batch.summary())
        print("analytic=%d simulated=%d forks=%d converged=%d"
              % (result.analytic, result.simulated, result.forks,
                 result.converged))
        rows = [(row["cycle_lo"], row["cycle_hi"], row["trials"],
                 row["covered"], "%.3f" % row["coverage"])
                for row in stats["coverage_by_cycle"]]
        print(format_columns(rows, headers=("cycle_lo", "cycle_hi",
                                            "trials", "covered",
                                            "coverage")))
        latency = stats["divergence_latency"]
        if latency:
            print("divergence latency cycles: p50=%d p90=%d p99=%d "
                  "(n=%d)" % (latency["p50"], latency["p90"],
                              latency["p99"], latency["n"]))
        lifetime = stats["masked_lifetime"]
        if lifetime:
            print("masked corruption lifetime: p50=%d p90=%d p99=%d "
                  "(n=%d)" % (lifetime["p50"], lifetime["p90"],
                              lifetime["p99"], lifetime["n"]))
        print("%.1f trials/s (golden %.2fs, classify %.3fs, "
              "simulate %.2fs)" % (batch.n / wall,
                                   result.golden_wall_s,
                                   result.classify_wall_s,
                                   result.simulate_wall_s),
              file=sys.stderr)

    _save_telemetry(args, metrics, tracer, command="montecarlo",
                    kernel=args.kernel, trials=batch.n,
                    kind=batch.kind, seed=args.seed)
    # The paper's no-false-negative property, now at Monte-Carlo
    # scale: a silent escape in a diverse cycle falsifies the repro.
    return 0 if batch.silent_despite_diversity == 0 else 1


def _cmd_lint(args) -> int:
    import json

    from .lint import lint_workload
    from .workloads import all_names
    names = (all_names() if args.all or not args.kernels
             else list(args.kernels))
    metrics, tracer = _make_telemetry(args)

    prove = getattr(args, "prove_masking", False)
    reports = []
    for name in names:
        if tracer is not None:
            with tracer.span("lint", category="lint", kernel=name):
                report = lint_workload(name, prove_masking=prove)
        else:
            report = lint_workload(name, prove_masking=prove)
        if metrics is not None:
            from .telemetry import collect_lint
            collect_lint(report, metrics)
        reports.append(report)

    ok = all(report.ok for report in reports)
    if args.format == "json":
        print(json.dumps({"schema": 2,
                          "ok": ok,
                          "suppressed": sum(len(r.suppressed)
                                            for r in reports),
                          "reports": [r.to_dict() for r in reports]},
                         indent=2))
    else:
        for report in reports:
            for diag in report.diagnostics:
                print("%s:%s: %s %s: %s"
                      % (report.name, diag.lineno or "?", diag.code,
                         diag.severity, diag.message))
        rows = [(r.name, r.block_count, r.instr_count, len(r.errors),
                 len(r.warnings), len(r.suppressed)) for r in reports]
        print(format_columns(rows, headers=("kernel", "blocks",
                                            "instructions", "errors",
                                            "warnings", "suppressed")))
        print("%d kernel(s) linted, %d finding(s), %d error(s)"
              % (len(reports),
                 sum(len(r.diagnostics) for r in reports),
                 sum(len(r.errors) for r in reports)))
    _save_telemetry(args, metrics, tracer, command="lint",
                    kernels=len(names))
    return 0 if ok else 1


def _cmd_diversity_static(args) -> int:
    import json

    from .lint.diversity import (
        measure_instruction_diversity,
        predict_instruction_diversity,
        validate_bound,
    )
    from .workloads import program
    prog_a = program(args.kernel_a)
    prog_b = program(args.kernel_b)
    bound = predict_instruction_diversity(prog_a, prog_b,
                                          stagger=args.stagger)
    doc = bound.to_dict()
    if args.validate:
        if args.kernel_a != args.kernel_b:
            print("error: --validate simulates the redundant "
                  "configuration, which replicates one kernel "
                  "(kernel_a must equal kernel_b)", file=sys.stderr)
            return 2
        verdicts = measure_instruction_diversity(prog_a, args.stagger)
        checked = predict_instruction_diversity(
            prog_a, prog_b, stagger=args.stagger,
            horizon=len(verdicts))
        ok, detail = validate_bound(checked, verdicts)
        doc = checked.to_dict()
        doc["validated"] = ok
        doc["validation_detail"] = detail
        doc["measured_cycles"] = len(verdicts)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print("static IS-diversity bound: %s + %s, stagger %d"
              % (args.kernel_a, args.kernel_b, args.stagger))
        if not bound.holds:
            print("  no claim: %s" % bound.reason)
        elif not bound.windows:
            print("  empty bound (%s)" % (bound.reason or
                                          "window too small"))
        else:
            print("  head text: %d words over %d L1I line(s), "
                  "refill budget %d cycles"
                  % (bound.text_words, bound.text_lines,
                     bound.refill_budget))
            print("  proven window: cycles [%d, %d)"
                  % (bound.window_start, bound.window_end))
            for w in doc["windows"]:
                print("    [%6d, %6d)  >= %d diverse cycles"
                      % (w["start"], w["end"], w["lower_bound"]))
            print("  total lower bound: %d instruction-diverse "
                  "cycle(s)" % doc["total_lower_bound"])
        if "validated" in doc:
            print("  validated against simulation: %s (%s)"
                  % ("OK" if doc["validated"] else "VIOLATED",
                     doc["validation_detail"]))
    if "validated" in doc and not doc["validated"]:
        return 1
    return 0


def _cmd_metrics(args) -> int:
    from .telemetry import load_snapshot, snapshot_rows
    try:
        doc = load_snapshot(args.snapshot)
    except (OSError, ValueError) as exc:
        return _file_error("read snapshot", args.snapshot, exc)
    meta = doc.get("meta") or {}
    if meta:
        print("# " + " ".join("%s=%s" % (k, meta[k])
                              for k in sorted(meta)))
    print(format_columns(snapshot_rows(doc),
                         headers=("metric", "kind", "value")))
    return 0


def _cmd_figures(args) -> int:
    from .baselines.lockstep import LockstepComparator
    from .core.history import HistoryModule
    from .core.monitor import DiversityMonitor
    from .core.signatures import (
        DataSignatureUnit,
        InstructionSignatureUnit,
        SignatureConfig,
    )
    from .soc.mpsoc import MPSoC
    config = SignatureConfig()
    print("Fig. 1:\n%s\n" % LockstepComparator().describe())
    print("Fig. 2a: %s" % DataSignatureUnit(config).layout())
    print("Fig. 2b: %s\n" % InstructionSignatureUnit(config).layout())
    print("Fig. 3:\n%s\n" % MPSoC().describe())
    print("Fig. 4:\n%s" % DiversityMonitor(
        history=HistoryModule()).block_diagram())
    return 0


def _cmd_overheads(args) -> int:
    from .core.overheads import (
        BASELINE_MPSOC_LUTS,
        BASELINE_MPSOC_WATTS,
        estimate,
    )
    report = estimate()
    print("SafeDM: %d LUTs (%.1f%% of the %d-LUT MPSoC), %.3f W "
          "(%.2f%% of %.1f W)"
          % (report.luts, report.area_percent, BASELINE_MPSOC_LUTS,
             report.watts, report.power_percent, BASELINE_MPSOC_WATTS))
    return 0


def _cmd_vcd(args) -> int:
    from .soc.experiment import run_redundant_captured
    from .trace.vcd import monitor_vcd
    from .workloads import program
    result, trace = run_redundant_captured(
        program(args.kernel), benchmark=args.kernel,
        stagger_nops=args.stagger, max_cycles=args.max_cycles)
    monitor_vcd(trace).save(args.output)
    print("wrote %s (%d cycles simulated)" % (args.output, result.cycles))
    return 0


def _cmd_disasm(args) -> int:
    from .isa.disassembler import disassemble_program, format_listing
    from .workloads import program
    prog = program(args.kernel)
    print(format_listing(disassemble_program(prog),
                         symbols=prog.symbols))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .core.signatures import SignatureConfig
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SafeDM reproduction (DATE 2022) command line")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available kernels") \
        .set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="one redundant run")
    p_run.add_argument("kernel")
    p_run.add_argument("--stagger", type=int, default=0)
    p_run.add_argument("--late-core", type=int, choices=(0, 1),
                       default=1)
    p_run.add_argument("--mode", default="polling",
                       choices=("polling", "interrupt_first",
                                "interrupt_threshold"),
                       help="SafeDM reporting mode")
    p_run.add_argument("--threshold", type=int, default=1,
                       help="episode threshold for interrupt_threshold")
    group = p_run.add_mutually_exclusive_group()
    group.add_argument("--capture", default=None, metavar="FILE",
                       help="record the raw signature streams to FILE "
                            "for later replay")
    group.add_argument("--replay", default=None, metavar="FILE",
                       help="recompute counters from a captured stream "
                            "trace instead of simulating")
    p_run.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="N",
                       help="snapshot the full machine state into the "
                            "run cache every N cycles")
    p_run.add_argument("--resume", action="store_true",
                       help="restore the latest cached checkpoint "
                            "(same kernel/flags/cadence) and finish "
                            "the run from there")
    p_run.add_argument("--scheme", default=None,
                       choices=_SCHEME_CHOICES,
                       help="redundancy scheme to run under (default: "
                            "the legacy SafeDM-pair path)")
    _add_engine_flag(p_run)
    _add_telemetry_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_row = sub.add_parser("row", help="one Table I row")
    p_row.add_argument("kernel")
    p_row.set_defaults(func=_cmd_row)

    p_t1 = sub.add_parser("table1", help="Table I sweep")
    p_t1.add_argument("kernels", nargs="*")
    p_t1.add_argument("--csv", default=None)
    p_t1.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="worker processes (default: all cores; "
                           "1 = serial in-process)")
    p_t1.add_argument("--no-cache", action="store_true",
                      help="ignore and do not populate the run cache")
    p_t1.add_argument("--capture", action="store_true",
                      help="record executed runs' signature streams "
                           "into the trace cache")
    p_t1.add_argument("--replay", action="store_true",
                      help="answer cache misses from cached stream "
                           "traces instead of re-simulating")
    _add_engine_flag(p_t1)
    _add_telemetry_flags(p_t1)
    p_t1.set_defaults(func=_cmd_table1)

    # The geometry axes default to the one every other command runs.
    signature = SignatureConfig()
    p_sm = sub.add_parser(
        "sweep-monitor",
        help="many monitor configurations over one simulation "
             "(capture-once / replay-many)")
    p_sm.add_argument("kernel")
    p_sm.add_argument("--thresholds", type=int, nargs="+",
                      default=list(range(1, 17)), metavar="N",
                      help="episode thresholds to sweep "
                           "(default: 1..16)")
    p_sm.add_argument("--modes", nargs="+",
                      default=["interrupt_threshold"],
                      choices=("polling", "interrupt_first",
                               "interrupt_threshold"),
                      help="reporting modes to sweep")
    p_sm.add_argument("--is-variants", nargs="+",
                      default=[signature.is_variant.value],
                      choices=("per_stage", "inflight"),
                      help="instruction-signature variants to sweep")
    p_sm.add_argument("--num-ports", type=int, nargs="+",
                      default=[signature.num_ports], metavar="N",
                      help="monitored register-port counts to sweep")
    p_sm.add_argument("--ds-depths", type=int, nargs="+",
                      default=[signature.ds_depth], metavar="N",
                      help="data-signature FIFO depths to sweep")
    p_sm.add_argument("--stagger", type=int, default=0)
    p_sm.add_argument("--late-core", type=int, choices=(0, 1),
                      default=1)
    p_sm.add_argument("--max-cycles", type=int, default=2_000_000)
    p_sm.add_argument("--no-cache", action="store_true",
                      help="do not consult or populate the run/trace "
                           "caches")
    _add_engine_flag(p_sm)
    _add_telemetry_flags(p_sm)
    p_sm.set_defaults(func=_cmd_sweep_monitor)

    p_camp = sub.add_parser("campaign",
                            help="CCF fault-injection campaign")
    p_camp.add_argument("kernel")
    p_camp.add_argument("--injections", type=int, default=8,
                        metavar="N",
                        help="injection instants spread across the run")
    p_camp.add_argument("--stimuli", nargs="+", default=None,
                        metavar="X", type=lambda s: int(s, 0),
                        help="fault stimulus values (default: 0x5eed)")
    p_camp.add_argument("--shared", action="store_true",
                        help="use the CCF-vulnerable shared-data-region "
                             "configuration")
    p_camp.add_argument("--max-cycles", type=int, default=200_000)
    p_camp.add_argument("--jobs", type=_jobs_or_all_cores, default=1,
                        metavar="N",
                        help="worker processes for the injection loop "
                             "(0 = all cores; default: serial; results "
                             "are bit-identical either way)")
    p_camp.add_argument("--checkpoint-every", type=int, default=0,
                        metavar="N",
                        help="fork each injection from a golden-run "
                             "checkpoint every N cycles instead of "
                             "re-simulating from cycle 0")
    p_camp.add_argument("--no-cache", action="store_true",
                        help="do not persist or reuse golden "
                             "checkpoints in the run cache")
    p_camp.add_argument("--scheme", default=None,
                        choices=_SCHEME_CHOICES,
                        help="run the scheme-matrix trials for one "
                             "scheme instead of the SafeDM pair "
                             "campaign")
    _add_engine_flag(p_camp)
    _add_telemetry_flags(p_camp)
    p_camp.set_defaults(func=_cmd_campaign)

    p_cs = sub.add_parser(
        "compare-schemes",
        help="fault-detection coverage × latency × hardware cost "
             "across redundancy schemes (one shared CCF grid)")
    p_cs.add_argument("kernels", nargs="*",
                      help="kernels to compare on (default: "
                           "binarysearch)")
    p_cs.add_argument("--all", action="store_true",
                      help="compare on the standard kernel subset: "
                           + ", ".join(_COMPARE_KERNELS))
    p_cs.add_argument("--schemes", nargs="+", default=None,
                      choices=_SCHEME_CHOICES,
                      help="schemes to include (default: all five)")
    p_cs.add_argument("--faults", type=int, default=4, metavar="N",
                      help="injection instants spread across each "
                           "scheme's golden run (default: 4)")
    p_cs.add_argument("--stimuli", nargs="+", default=[0x5EED],
                      metavar="X", type=lambda s: int(s, 0),
                      help="fault stimulus values per instant "
                           "(default: 0x5eed)")
    p_cs.add_argument("--max-cycles", type=int, default=2_000_000)
    _add_engine_flag(p_cs)
    _add_telemetry_flags(p_cs)
    p_cs.set_defaults(func=_cmd_compare_schemes)

    p_mc = sub.add_parser(
        "montecarlo",
        help="batched Monte-Carlo fault campaign (structure-of-arrays "
             "trials, analytic masked-fault classification)")
    p_mc.add_argument("kernel")
    p_mc.add_argument("--trials", type=int, default=10_000, metavar="N",
                      help="number of sampled fault trials "
                           "(default: 10000)")
    p_mc.add_argument("--kind", choices=("ccf", "transient"),
                      default="ccf",
                      help="fault model: common-cause (both cores) or "
                           "single-core transient")
    p_mc.add_argument("--seed", type=int, default=0,
                      help="sampler seed; same seed => bit-identical "
                           "campaign regardless of --jobs")
    p_mc.add_argument("--jobs", type=_jobs_or_all_cores, default=1,
                      metavar="N",
                      help="worker processes for the simulated "
                           "minority (0 = all cores; results are "
                           "bit-identical either way)")
    p_mc.add_argument("--shared", action="store_true",
                      help="use the CCF-vulnerable shared-data-region "
                           "configuration")
    p_mc.add_argument("--max-cycles", type=int, default=200_000)
    p_mc.add_argument("--checkpoint-every", type=int, default=0,
                      metavar="N",
                      help="golden checkpoint cadence (default 0 = "
                           "auto: start at 200 cycles and, whenever 50 "
                           "snapshots exist, drop every other one and "
                           "double the cadence)")
    p_mc.add_argument("--bins", type=int, default=10,
                      help="fault-cycle bins for the coverage table")
    p_mc.add_argument("--format", choices=("text", "json"),
                      default="text")
    _add_engine_flag(p_mc)
    _add_telemetry_flags(p_mc)
    p_mc.set_defaults(func=_cmd_montecarlo)

    p_lint = sub.add_parser(
        "lint", help="static analysis (CFG + dataflow) over kernels")
    p_lint.add_argument("kernels", nargs="*",
                        help="kernels to lint (default: all 29)")
    p_lint.add_argument("--all", action="store_true",
                        help="lint every registered kernel (explicit "
                             "form of the no-argument default)")
    p_lint.add_argument("--prove-masking", action="store_true",
                        dest="prove_masking",
                        help="also run the static fault-masking "
                             "prover (adds the L013 dead-window "
                             "report)")
    p_lint.add_argument("--format", choices=("text", "json"),
                        default="text")
    _add_telemetry_flags(p_lint)
    p_lint.set_defaults(func=_cmd_lint)

    p_div = sub.add_parser(
        "diversity-static",
        help="static lower bound on SafeDM instruction diversity "
             "for a staggered image pair")
    p_div.add_argument("kernel_a", help="head-core kernel")
    p_div.add_argument("kernel_b", help="late-core kernel")
    p_div.add_argument("--stagger", type=int, default=2000,
                       help="nop-sled length of the late core "
                            "(default 2000)")
    p_div.add_argument("--validate", action="store_true",
                       help="also simulate and check the bound "
                            "against the measured monitor output "
                            "(kernel_a must equal kernel_b)")
    p_div.add_argument("--format", choices=("text", "json"),
                       default="text")
    p_div.set_defaults(func=_cmd_diversity_static)

    p_met = sub.add_parser("metrics",
                           help="pretty-print a telemetry snapshot")
    p_met.add_argument("snapshot")
    p_met.set_defaults(func=_cmd_metrics)

    sub.add_parser("figures", help="regenerate Figs. 1-4") \
        .set_defaults(func=_cmd_figures)
    sub.add_parser("overheads", help="Section V-D numbers") \
        .set_defaults(func=_cmd_overheads)

    p_vcd = sub.add_parser("vcd", help="dump monitor waveforms")
    p_vcd.add_argument("kernel")
    p_vcd.add_argument("output")
    p_vcd.add_argument("--stagger", type=int, default=0)
    p_vcd.add_argument("--max-cycles", type=int, default=200_000)
    p_vcd.set_defaults(func=_cmd_vcd)

    p_dis = sub.add_parser("disasm", help="disassemble a kernel")
    p_dis.add_argument("kernel")
    p_dis.set_defaults(func=_cmd_disasm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
