#!/usr/bin/env python3
"""Monte-Carlo campaign benchmark: batched SoA vs per-trial campaigns.

Times an N-trial common-cause Monte-Carlo campaign three ways:

* ``scratch``  — the per-trial baseline: each trial is its own
  :func:`repro.fault.run_ccf_campaign` call with no checkpoints at
  the API's default (reference) tier — what a naive Monte-Carlo
  harness over the pre-existing interface costs — so every trial
  pays a fresh golden run plus a full corrupted run (measured on a
  small subset and reported per-trial; ``--baseline-engine`` changes
  the tier),
* ``fork``     — one golden run with checkpoints, then per-trial
  scalar :func:`inject_common_cause` through a shared
  :class:`ForkEngine` (the pre-batching fast path),
* ``batched``  — :class:`repro.montecarlo.BatchedCampaign`: one
  instrumented golden run, analytic classification of provably-masked
  trials, forked simulation only for the live rest.

Before any timing is reported, a stride-sampled subset of the batched
trials is reconstituted as scalar :class:`InjectionResult` objects and
asserted field-for-field identical (``dataclasses.asdict``) to the
per-trial fork path on the same faults — the fork loop doubles as the
``fork`` baseline timing.  The scratch subset is asserted the same
way, which doubles as a cross-tier equivalence check when the two
sides run different engine tiers.  The batched figure includes the
golden-run cost, so the reported speedup is end-to-end, not marginal.

Per kernel it also reports the golden-recording layer's cost,
``golden_overhead_x``: :func:`repro.montecarlo.mc_golden_run` at the
campaign's checkpoint cadence over a plain
:func:`repro.soc.experiment.run_redundant` of the same kernel, config
and cycle cap, both on the campaign's tier (``--engine``), as the
median ratio of :data:`GOLDEN_PAIRS` back-to-back (recording, plain
run) pairs (``golden_overhead_pairs`` lists them all).  The
repository benchmark's ``montecarlo.golden_overhead_x`` times the
reference tier for both.  ``golden_seconds`` and
``classify_seconds`` split the batched campaign's own time between
the recording and the classifier, which observes the sampled golden
cycles on demand.

The report goes to ``BENCH_montecarlo.json`` at the repo root;
``--min-speedup X`` turns the bench into a CI gate that exits
non-zero when the aggregate batched-vs-scratch speedup falls below
``X``, and ``--max-golden-overhead X`` one that fails when any
kernel's ``golden_overhead_x`` exceeds ``X``.  The scratch baseline
is the honest comparison for "what a naive Monte-Carlo harness would
cost"; the fork baseline is reported alongside so the win over the
previous best path is visible too.

Usage:
    PYTHONPATH=src python benchmarks/bench_montecarlo.py
        [--kernels K ...] [--trials N] [--baseline-trials N]
        [--checkpoint-every N] [--engine TIER] [--baseline-engine
        TIER] [--jobs N] [--quick] [--min-speedup X]
        [--max-golden-overhead X] [--seed N] [--out FILE]

``--quick`` restricts the run to the countnegative kernel with fewer
trials, for CI.  ``--baseline-trials 0`` skips the expensive scratch
baseline; the report then carries the shared skip-field shape
(``"speedup_vs_scratch": null`` plus
``"speedup_vs_scratch_skipped": "no-baseline-trials"`` — see
:mod:`bench_common`) instead of a fabricated rate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import statistics
import sys
import time

from bench_common import metric_fields
from repro.fault import (
    ForkEngine,
    inject_common_cause,
    run_ccf_campaign,
    shared_address_config,
)
from repro.montecarlo import BatchedCampaign, mc_golden_run
from repro.soc.experiment import run_redundant
from repro.workloads import program as build_program

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_PATH = REPO_ROOT / "BENCH_montecarlo.json"

DEFAULT_KERNELS = ("countnegative", "matrix1")
QUICK_KERNELS = ("countnegative",)
MAX_CYCLES = 200_000
#: How many batched trials the scalar-equivalence check replays
#: (stride-sampled across the batch, so it sees analytic and
#: simulated rows, masked and live alike).
CHECK_TRIALS = 24
#: Back-to-back (recording, plain run) pairs behind
#: ``golden_overhead_x``: both runs of a pair see the same host load,
#: and the median pair ratio shrugs off a pair that did not.
GOLDEN_PAIRS = 7


def bench_kernel(name, trials, baseline_trials, cadence_override,
                 engine, baseline_engine, jobs, seed):
    prog = build_program(name)
    config = shared_address_config()

    # -- batched: golden + classify + simulate, end to end ------------
    campaign = BatchedCampaign(prog, benchmark=name, config=config,
                               max_cycles=MAX_CYCLES,
                               checkpoint_every=cadence_override or 0,
                               engine=engine)
    batched_start = time.perf_counter()
    batch = campaign.sample_ccf(trials, seed=seed)
    result = campaign.run(batch, jobs=jobs, seed=seed)
    batched_s = time.perf_counter() - batched_start
    base = campaign.artifact.base

    # -- correctness first: batched rows == scalar fork path ----------
    # The same loop is the fork-baseline timing: one shared golden
    # artifact, per-trial scalar injection through a ForkEngine.
    stride = max(1, trials // CHECK_TRIALS)
    sampled = list(range(0, trials, stride))
    fork = ForkEngine(prog, base, config=config)
    fork_start = time.perf_counter()
    for i in sampled:
        scalar = inject_common_cause(
            prog, int(batch.columns["cycle"][i]),
            int(batch.columns["stimulus"][i]), base.checksum,
            config=config, max_cycles=MAX_CYCLES, fork=fork,
            engine=engine)
        got = dataclasses.asdict(batch.result(i))
        want = dataclasses.asdict(scalar)
        assert got == want, \
            "batched diverged from scalar at trial %d:\n batched: %r" \
            "\n scalar:  %r" % (i, got, want)
    fork_s = time.perf_counter() - fork_start

    # -- scratch baseline: per-trial run_ccf_campaign, no forking,
    # at the pre-existing API's tier (results are bit-identical
    # across tiers, so the assert below still must hold).
    # ``--baseline-trials 0`` skips the baseline entirely — each
    # scratch trial costs two full simulations — and the report
    # marks the scratch metrics as skipped instead of inventing a
    # rate from zero samples. ----------------------------------------
    scratch_start = time.perf_counter()
    for i in range(baseline_trials):
        scratch = run_ccf_campaign(
            prog, [int(batch.columns["cycle"][i])],
            stimuli=[int(batch.columns["stimulus"][i])],
            config=config, max_cycles=MAX_CYCLES,
            engine=baseline_engine)
        got = dataclasses.asdict(batch.result(i))
        want = dataclasses.asdict(scratch.injections[0])
        assert got == want, \
            "batched diverged from scratch at trial %d:\n batched: " \
            "%r\n scratch: %r" % (i, got, want)
    scratch_s = time.perf_counter() - scratch_start

    # -- layer cost: the recording golden run against a plain run of
    # the same kernel, config and cycle cap on the same tier, at the
    # cadence the campaign chose. ------------------------------------
    golden_ratios = []
    for _ in range(GOLDEN_PAIRS):
        golden_start = time.perf_counter()
        mc_golden_run(prog, config=config, max_cycles=MAX_CYCLES,
                      checkpoint_every=campaign.checkpoint_every,
                      benchmark=name, engine=engine)
        golden_s = time.perf_counter() - golden_start
        plain_start = time.perf_counter()
        run_redundant(prog, benchmark=name, config=config,
                      max_cycles=MAX_CYCLES, engine=engine)
        golden_ratios.append(golden_s
                             / (time.perf_counter() - plain_start))
    golden_overhead = statistics.median(golden_ratios)

    batched_rate = trials / batched_s
    fork_rate = len(sampled) / fork_s
    scratch_rate = (baseline_trials / scratch_s if baseline_trials
                    else None)
    speedup = batched_rate / scratch_rate if scratch_rate else None
    speedup_fork = batched_rate / fork_rate
    counts = batch.counts()
    scratch_note = ("scratch %.3fs/trial" % (1.0 / scratch_rate)
                    if scratch_rate else "scratch skipped")
    scratch_x = "%.1fx scratch" % speedup if speedup else "n/a scratch"
    print("%-14s trials=%-6d every=%-5d batched %6.2fs (%.1f/s)  "
          "fork %.3fs/trial  %s  (%s, %.1fx fork)  golden %.2fx"
          % (name, trials, campaign.checkpoint_every, batched_s,
             batched_rate, 1.0 / fork_rate, scratch_note,
             scratch_x, speedup_fork, golden_overhead))
    assert counts["silent_despite_diversity"] == 0
    return {
        "kernel": name,
        "run_cycles": base.end_cycle,
        "trials": trials,
        "checkpoint_every": campaign.checkpoint_every,
        "analytic": result.analytic,
        "simulated": result.simulated,
        "counts": counts,
        "golden_seconds": round(result.golden_wall_s, 3),
        "golden_overhead_x": round(golden_overhead, 2),
        "golden_overhead_pairs": sorted(round(ratio, 2)
                                        for ratio in golden_ratios),
        "classify_seconds": round(result.classify_wall_s, 3),
        "simulate_seconds": round(result.simulate_wall_s, 3),
        "batched_seconds": round(batched_s, 3),
        "batched_trials_per_s": round(batched_rate, 2),
        "checked_trials": len(sampled),
        "fork_seconds_per_trial": round(1.0 / fork_rate, 4),
        "fork_trials_per_s": round(fork_rate, 2),
        "baseline_trials": baseline_trials,
        **metric_fields("scratch_seconds_per_trial",
                        round(1.0 / scratch_rate, 4) if scratch_rate
                        else None,
                        None if baseline_trials
                        else "no-baseline-trials"),
        **metric_fields("scratch_trials_per_s",
                        round(scratch_rate, 2) if scratch_rate
                        else None,
                        None if baseline_trials
                        else "no-baseline-trials"),
        **metric_fields("speedup_vs_scratch",
                        round(speedup, 2) if speedup else None,
                        None if baseline_trials
                        else "no-baseline-trials"),
        "speedup_vs_fork": round(speedup_fork, 2),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", nargs="+",
                        default=list(DEFAULT_KERNELS),
                        help="kernels to campaign over (default: %s)"
                        % " ".join(DEFAULT_KERNELS))
    parser.add_argument("--trials", type=int, default=None, metavar="N",
                        help="Monte-Carlo trials per kernel "
                             "(default: 2000; 1000 under --quick)")
    parser.add_argument("--baseline-trials", type=int, default=5,
                        metavar="N",
                        help="trials timed through the per-trial "
                             "scratch path (default: 5 — each costs a "
                             "full golden run plus a corrupted run)")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N",
                        help="checkpoint cadence (default: automatic; "
                             "the recording starts at 200 cycles and "
                             "doubles the cadence whenever 50 "
                             "snapshots exist)")
    parser.add_argument("--engine", default="fast",
                        choices=("reference", "fast"),
                        help="execution tier for the batched campaign "
                             "and the fork baseline (default: fast)")
    parser.add_argument("--baseline-engine", default="reference",
                        choices=("reference", "fast"),
                        help="execution tier for the scratch "
                             "baseline (default: reference — "
                             "run_ccf_campaign's own default, i.e. "
                             "the pre-existing per-trial path as "
                             "users invoke it)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for live trials "
                             "(default: 1; results are identical "
                             "regardless)")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="campaign RNG seed (default: 0)")
    parser.add_argument("--quick", action="store_true",
                        help="CI subset: %s only, fewer trials"
                        % " ".join(QUICK_KERNELS))
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero if aggregate batched-vs-"
                             "scratch speedup < X")
    parser.add_argument("--max-golden-overhead", type=float,
                        default=None, metavar="X",
                        help="exit non-zero if any kernel's recording "
                             "golden run costs more than X plain runs "
                             "on the campaign's tier (median of %d "
                             "pairs)" % GOLDEN_PAIRS)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="report path (default: "
                             "BENCH_montecarlo.json at the repo root)")
    args = parser.parse_args()
    out_path = pathlib.Path(args.out) if args.out else OUT_PATH
    kernels = list(QUICK_KERNELS) if args.quick else args.kernels
    trials = args.trials if args.trials is not None \
        else (1000 if args.quick else 2000)

    print("monte-carlo ccf campaign, %d trial(s)/kernel, engine=%s "
          "(scratch baseline: %s), jobs=%d, max_cycles=%d%s"
          % (trials, args.engine, args.baseline_engine, args.jobs,
             MAX_CYCLES, " (quick)" if args.quick else ""))
    rows = [bench_kernel(name, trials, args.baseline_trials,
                         args.checkpoint_every, args.engine,
                         args.baseline_engine, args.jobs, args.seed)
            for name in kernels]

    batched_rate = (sum(row["trials"] for row in rows)
                    / sum(row["batched_seconds"] for row in rows))
    baseline_total = sum(row["baseline_trials"] for row in rows)
    scratch_rate = (baseline_total
                    / sum(row["baseline_trials"]
                          * row["scratch_seconds_per_trial"]
                          for row in rows
                          if row["baseline_trials"])
                    if baseline_total else None)
    fork_rate = (sum(row["checked_trials"] for row in rows)
                 / sum(row["checked_trials"]
                       * row["fork_seconds_per_trial"]
                       for row in rows))
    speedup = batched_rate / scratch_rate if scratch_rate else None
    speedup_fork = batched_rate / fork_rate
    golden_overhead = max(row["golden_overhead_x"] for row in rows)
    checked = sum(row["checked_trials"] + row["baseline_trials"]
                  for row in rows)
    print("exactness: batched == scalar field-for-field on %d sampled "
          "trial(s)" % checked)
    scratch_part = ("%.2f scratch (%.1fx)" % (scratch_rate, speedup)
                    if scratch_rate else "scratch skipped")
    print("aggregate %.1f trials/s batched vs %s and %.1f fork (%.1fx)"
          % (batched_rate, scratch_part, fork_rate, speedup_fork))
    print("golden recording: at most %.2fx a plain %s-tier run"
          % (golden_overhead, args.engine))

    report = {
        "kernels": rows,
        "trials_per_kernel": trials,
        "max_cycles": MAX_CYCLES,
        "engine": args.engine,
        "baseline_engine": args.baseline_engine,
        "jobs": args.jobs,
        "seed": args.seed,
        "quick": bool(args.quick),
        "batched_trials_per_s": round(batched_rate, 2),
        **metric_fields("scratch_trials_per_s",
                        round(scratch_rate, 2) if scratch_rate
                        else None,
                        None if baseline_total
                        else "no-baseline-trials"),
        "fork_trials_per_s": round(fork_rate, 2),
        **metric_fields("speedup_vs_scratch",
                        round(speedup, 2) if speedup else None,
                        None if baseline_total
                        else "no-baseline-trials"),
        "speedup_vs_fork": round(speedup_fork, 2),
        "golden_overhead_x": golden_overhead,
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print("wrote %s" % out_path)

    if args.min_speedup is not None:
        if speedup is None:
            print("FAIL: cannot gate on --min-speedup with the "
                  "scratch baseline skipped (--baseline-trials 0)",
                  file=sys.stderr)
            return 1
        if speedup < args.min_speedup:
            print("FAIL: speedup %.1fx below required %.1fx"
                  % (speedup, args.min_speedup), file=sys.stderr)
            return 1
    if (args.max_golden_overhead is not None
            and golden_overhead > args.max_golden_overhead):
        print("FAIL: golden recording overhead %.2fx above allowed "
              "%.2fx" % (golden_overhead, args.max_golden_overhead),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
