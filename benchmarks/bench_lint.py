#!/usr/bin/env python3
"""Static-analysis benchmark: absint throughput + static-proof yield.

Two figures, both CI-gated:

* ``absint``    — wall time for a full lint of every kernel with
  masking proofs on (``lint_workload(name, prove_masking=True)``:
  strided-interval solve, masking-liveness solve, proof annotation,
  all L001-L013 rules).  The gate ``--max-seconds X`` fails the run
  when the *total* across all kernels exceeds ``X`` — the lint CI job
  runs this on every push, so it has to stay cheap.
* ``prefilter`` — the fraction of Monte-Carlo trials the static
  masking proofs cover (``status == STATUS_STATIC``).  The proofs
  only pay their way if they cover a real share of the campaign, so
  ``--min-static-frac F`` fails the run when the aggregate fraction
  over the sampled campaigns falls below ``F``.

Before the fractions are reported, each gated campaign's trials are
classified again with no static filter, and the live list plus every
resolved row's classification and death cycle are asserted identical
— the static proofs may only relabel a trial's status, never change a
verdict.

The report goes to ``BENCH_lint.json`` at the repo root.

Usage:
    PYTHONPATH=src python benchmarks/bench_lint.py
        [--kernels K ...] [--trials N] [--max-seconds X]
        [--min-static-frac F] [--seed N] [--quick] [--out FILE]

``--quick`` restricts the campaign phase to countnegative with fewer
trials, for CI; the absint phase always covers every kernel (that is
the thing being gated).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from bench_common import metric_fields
from repro.lint import lint_workload
from repro.montecarlo import BatchedCampaign, classify_batch
from repro.montecarlo.batch import STATUS_SIMULATED, STATUS_STATIC
from repro.workloads import all_names, program as build_program

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_PATH = REPO_ROOT / "BENCH_lint.json"

DEFAULT_KERNELS = ("countnegative", "fac")
QUICK_KERNELS = ("countnegative",)
MAX_CYCLES = 200_000


def bench_absint():
    """Full lint with proofs over every kernel, timed per kernel."""
    rows = []
    total_start = time.perf_counter()
    for name in sorted(all_names()):
        start = time.perf_counter()
        report = lint_workload(name, prove_masking=True)
        seconds = time.perf_counter() - start
        rows.append({
            "kernel": name,
            "seconds": round(seconds, 4),
            "findings": len(report.diagnostics),
            "suppressed": len(report.suppressed),
        })
    total_s = time.perf_counter() - total_start
    print("absint: %d kernels linted with proofs in %.2fs "
          "(slowest: %s %.3fs)"
          % (len(rows), total_s,
             *max(((r["kernel"], r["seconds"]) for r in rows),
                  key=lambda kv: kv[1])))
    return rows, total_s


def bench_prefilter(name, kind, trials, seed):
    """One campaign, its static labels checked against a
    classification without the static filter."""
    prog = build_program(name)
    campaign = BatchedCampaign(prog, benchmark=name,
                               max_cycles=MAX_CYCLES)
    sample = (campaign.sample_transient if kind == "transient"
              else campaign.sample_ccf)
    batch = sample(trials, seed=seed)
    start = time.perf_counter()
    result = campaign.run(batch, jobs=1, seed=seed)
    seconds = time.perf_counter() - start

    # Correctness: the static proofs must not change a single verdict.
    control = sample(trials, seed=seed)
    live = classify_batch(campaign.artifact, control)
    status = batch.column("status")
    assert STATUS_STATIC not in control.column("status")
    assert live == [i for i in range(trials)
                    if status[i] == STATUS_SIMULATED], \
        "%s/%s: static proofs changed the live trials" % (name, kind)
    resolved = [i for i in range(trials) if status[i] != STATUS_SIMULATED]
    for column in ("classification", "death_cycle"):
        got, want = control.column(column), batch.column(column)
        assert [got[i] for i in resolved] == [want[i] for i in resolved], \
            "%s/%s: static proofs changed a per-trial %s" % (
                name, kind, column)

    frac = result.static / trials
    print("prefilter: %-14s kind=%-9s trials=%-5d static=%d (%.0f%%) "
          "analytic=%d simulated=%d  %.2fs"
          % (name, kind, trials, result.static, 100.0 * frac,
             result.analytic, result.simulated, seconds))
    return {
        "kernel": name,
        "kind": kind,
        "trials": trials,
        "static": result.static,
        "analytic": result.analytic,
        "simulated": result.simulated,
        "static_fraction": round(frac, 4),
        "seconds": round(seconds, 3),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", nargs="+",
                        default=list(DEFAULT_KERNELS),
                        help="kernels for the pre-filter campaigns "
                             "(default: %s)" % " ".join(DEFAULT_KERNELS))
    parser.add_argument("--trials", type=int, default=None, metavar="N",
                        help="Monte-Carlo trials per (kernel, kind) "
                             "(default: 256; 96 under --quick)")
    parser.add_argument("--max-seconds", type=float, default=None,
                        metavar="X",
                        help="exit non-zero if the full-kernel absint "
                             "pass takes longer than X seconds")
    parser.add_argument("--min-static-frac", type=float, default=None,
                        metavar="F",
                        help="exit non-zero if the static proofs "
                             "cover less than fraction F of the "
                             "sampled trials")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="campaign RNG seed (default: 0)")
    parser.add_argument("--quick", action="store_true",
                        help="CI subset: %s only, fewer trials"
                        % " ".join(QUICK_KERNELS))
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="report path (default: BENCH_lint.json "
                             "at the repo root)")
    args = parser.parse_args()
    out_path = pathlib.Path(args.out) if args.out else OUT_PATH
    kernels = list(QUICK_KERNELS) if args.quick else args.kernels
    trials = args.trials if args.trials is not None \
        else (96 if args.quick else 256)

    absint_rows, absint_s = bench_absint()

    campaigns = [bench_prefilter(name, kind, trials, args.seed)
                 for name in kernels
                 for kind in ("transient", "ccf")]
    static = sum(row["static"] for row in campaigns)
    sampled = sum(row["trials"] for row in campaigns)
    # None (not 0.0) with zero sampled trials: "resolved 0% statically"
    # and "nothing was sampled" must stay distinguishable downstream —
    # the report uses the shared skip shape from bench_common.
    static_frac = static / sampled if sampled else None
    print("aggregate: absint %.2fs over %d kernels; static proofs "
          "covered %d/%d trials (%s)"
          % (absint_s, len(absint_rows), static, sampled,
             "%.0f%%" % (100.0 * static_frac)
             if static_frac is not None else "n/a"))

    report = {
        "absint": {
            "kernels": absint_rows,
            "total_seconds": round(absint_s, 3),
        },
        "prefilter": {
            "campaigns": campaigns,
            "trials_per_campaign": trials,
            "static_trials": static,
            "sampled_trials": sampled,
            **metric_fields("static_fraction",
                            round(static_frac, 4)
                            if static_frac is not None else None,
                            None if sampled else "no-trials"),
        },
        "max_cycles": MAX_CYCLES,
        "seed": args.seed,
        "quick": bool(args.quick),
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print("wrote %s" % out_path)

    failed = False
    if args.max_seconds is not None and absint_s > args.max_seconds:
        print("FAIL: absint pass %.2fs exceeds the %.2fs budget"
              % (absint_s, args.max_seconds), file=sys.stderr)
        failed = True
    if args.min_static_frac is not None:
        if static_frac is None:
            print("FAIL: cannot gate on --min-static-frac with no "
                  "sampled trials", file=sys.stderr)
            failed = True
        elif static_frac < args.min_static_frac:
            print("FAIL: static-proof fraction %.2f below "
                  "required %.2f" % (static_frac, args.min_static_frac),
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
