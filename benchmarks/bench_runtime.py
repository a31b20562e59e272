#!/usr/bin/env python3
"""Runtime benchmark: sweep configurations and execution tiers.

Part 1 — sweep engine.  Times a fixed 6-kernel mini Table I sweep
(12 cells, 24 runs) through three configurations:

* ``serial``   — ``jobs=1``, cache disabled (the reference path),
* ``parallel`` — ``--jobs`` workers (default: let the engine decide,
  which clamps to serial on hosts without real parallelism), cold
  cache,
* ``warm``     — same cache directory again, so every run is a hit.

Part 2 — execution tiers (:mod:`repro.engine`).  Times the same
kernels serially under the ``reference`` interpreter and the ``fast``
block-compiled tier, asserts the two produce field-for-field identical
results, and records per-kernel and aggregate speedups plus the fast
tier's hit rate and deopt rate.  Each (kernel, stagger) point runs N
back-to-back (reference, fast) pairs, so both runs of a pair see the
same host load: the report keeps each tier's best-of-N seconds, and
every ``speedup`` is the median of the per-pair ratios it covers
(``pair_speedups`` lists them all).  The same points then run under
the lockstep, TMR and multi-pair schemes: ``engine.schemes`` holds one
row per scheme (and per kernel) with both tiers' seconds, the speedup,
and the fast tier's ``fallback_reason``.

Results are written to ``BENCH_runtime.json`` at the repo root,
including the machine's honest ``cpu_count``, the ``effective_jobs``
the engine actually used, and a ``serial_fallback`` flag.  When the
"parallel" pass fell back to the serial code path (1 effective
worker), ``parallel_speedup`` is reported as ``null`` rather than a
meaningless ~1.0x comparison of the same code path against itself,
and a ``parallel_speedup_skipped: "single-cpu"`` field names the
reason explicitly so downstream tooling can distinguish "not
measured" from "missing"; the field is absent when a real speedup
was measured (the shared skip-field convention — see
:mod:`bench_common`).  All passes must agree cell-for-cell; the bench fails
otherwise.

Usage:
    PYTHONPATH=src python benchmarks/bench_runtime.py [--jobs N]
        [--kernels cosf countnegative] [--out FILE] [--quick]
        [--min-speedup X] [--max-deopt-rate X] [--profile FILE]

``--kernels`` swaps the fixed 6-kernel set for a subset; the report
records which set ran.  ``--quick`` is the CI shape: engine-tier
comparison only, over a 2-kernel subset.  ``--min-speedup`` (on the
aggregate median pair ratio) / ``--max-deopt-rate`` turn the report
into a gate (non-zero exit when the fast tier regresses).
``--profile`` additionally records one profiled fast-tier pass per
kernel as a Chrome ``about://tracing`` trace
(``repro.telemetry.Tracer`` spans: platform build, program load,
cycle loop, metrics collection — each tagged with the engine).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import statistics
import tempfile
import time

from bench_common import metric_fields
from repro.runner import ParallelSweep
from repro.runner.executor import SERIAL_FALLBACK_CPUS
from repro.workloads import all_names

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_PATH = REPO_ROOT / "BENCH_runtime.json"

#: The six fastest kernels (so the bench stays under a minute) across
#: distinct categories; fixed so timings are comparable over time.
MINI_SWEEP_KERNELS = ("cosf", "ludcmp", "fft", "countnegative",
                      "recursion", "sha")
MINI_SWEEP_STAGGERS = (0, 100)
#: The ``--quick`` (CI) subset: one arithmetic and one control-heavy
#: kernel keep the signal while staying under a minute on one CPU.
QUICK_KERNELS = ("cosf", "countnegative")
#: Scheme-shaped SoCs timed per scheme in the engine section.  The
#: ``--min-speedup`` gate stays on the monitored-pair aggregate.
ENGINE_SCHEMES = ("lockstep", "tmr", "multipair")


def _rows_as_dicts(rows):
    return {name: [dataclasses.asdict(cell) for cell in cells]
            for name, cells in rows.items()}


def _timed_sweep(kernels, jobs, cache_dir, use_cache=True):
    sweep = ParallelSweep(jobs=jobs, use_cache=use_cache,
                          cache_dir=cache_dir)
    start = time.perf_counter()
    rows = sweep.run_table(kernels,
                           stagger_values=MINI_SWEEP_STAGGERS)
    return time.perf_counter() - start, _rows_as_dicts(rows), sweep


# -- execution-tier comparison ------------------------------------------------

class _SocGrab:
    """``soc_hook`` that keeps the SoC so engine stats survive the run."""

    soc = None

    def __call__(self, soc):
        self.soc = soc


def _timed_run(program, kernel, stagger, engine, tracer=None,
               scheme=None):
    """Wall time of one redundant run.

    Returns ``(seconds, result_dict, cycles, engine_stats)``.
    """
    from repro.soc.experiment import run_redundant
    grab = _SocGrab()
    start = time.perf_counter()
    result = run_redundant(program, benchmark=kernel,
                           stagger_nops=stagger, engine=engine,
                           soc_hook=grab, tracer=tracer, scheme=scheme)
    elapsed = time.perf_counter() - start
    stats = grab.soc.engine_stats
    return (elapsed, dataclasses.asdict(result), result.cycles,
            stats.as_dict() if stats is not None else None)


def _timed_pairs(program, kernel, stagger, repeats, scheme=None):
    """``repeats`` back-to-back (reference, fast) runs of one point.

    Returns ``(reference_best_s, fast_best_s, pair_ratios, cycles,
    fast_stats)``; results and stats are deterministic, so the last
    pair's stand for all, and they must agree field for field.
    """
    ref_times, fast_times = [], []
    for _ in range(repeats):
        rs, ref_result, cycles, _ = _timed_run(
            program, kernel, stagger, "reference", scheme=scheme)
        fs, fast_result, _, stats = _timed_run(
            program, kernel, stagger, "fast", scheme=scheme)
        ref_times.append(rs)
        fast_times.append(fs)
    assert fast_result == ref_result, \
        "fast tier diverged from reference on %s%s stagger=%d" \
        % (scheme + " " if scheme else "", kernel, stagger)
    ratios = [rs / fs for rs, fs in zip(ref_times, fast_times)]
    return min(ref_times), min(fast_times), ratios, cycles, stats


def _median_speedup(ratios):
    return round(statistics.median(ratios), 3)


def _bench_engines(kernels, staggers, repeats):
    """Reference vs fast tier, serially, per (kernel, stagger) point."""
    from repro.workloads import program as build_program
    per_kernel = {}
    ref_total = fast_total = 0.0
    all_ratios = []
    cycles_total = 0
    deopts = fast_issues = ref_issues = fast_cycles = 0
    delegations = recompilations = superblock_links = 0
    deopt_reasons = {}
    for kernel in kernels:
        prog = build_program(kernel)
        ref_s = fast_s = 0.0
        ratios = []
        kernel_cycles = 0
        hit_num = hit_den = kernel_deopts = 0
        kernel_reasons = {}
        for stagger in staggers:
            rs, fs, pair_ratios, cycles, stats = _timed_pairs(
                prog, kernel, stagger, repeats)
            assert stats is not None \
                and stats["fallback_reason"] is None, \
                "fast tier fell back on %s: %s" % (kernel, stats)
            ref_s += rs
            fast_s += fs
            ratios += pair_ratios
            kernel_cycles += cycles
            kernel_deopts += stats["deopts"]
            hit_num += stats["issue_fast"]
            hit_den += stats["issue_fast"] + stats["issue_ref"]
            deopts += stats["deopts"]
            fast_issues += stats["issue_fast"]
            ref_issues += stats["issue_ref"]
            fast_cycles += stats["fast_cycles"]
            delegations += stats["delegations"]
            recompilations += stats["recompilations"]
            superblock_links += stats["superblock_links"]
            for reason, count in stats["deopt_reasons"].items():
                kernel_reasons[reason] = \
                    kernel_reasons.get(reason, 0) + count
        ref_total += ref_s
        fast_total += fast_s
        all_ratios += ratios
        cycles_total += kernel_cycles
        per_kernel[kernel] = {
            "reference_seconds": round(ref_s, 3),
            "fast_seconds": round(fast_s, 3),
            "speedup": _median_speedup(ratios),
            "cycles": kernel_cycles,
            "tier_hit_rate": round(hit_num / hit_den, 6) if hit_den
            else 0.0,
            "deopts": kernel_deopts,
            "deopt_rate": round(kernel_deopts / kernel_cycles, 6)
            if kernel_cycles else 0.0,
            "deopt_reasons": dict(sorted(kernel_reasons.items())),
        }
        for reason, count in kernel_reasons.items():
            deopt_reasons[reason] = \
                deopt_reasons.get(reason, 0) + count
        print("engine %-14s ref %6.2fs  fast %6.2fs  %5.2fx  "
              "hit %6.2f%%  deopts %d"
              % (kernel, ref_s, fast_s, per_kernel[kernel]["speedup"],
                 100.0 * per_kernel[kernel]["tier_hit_rate"],
                 kernel_deopts))
    issued = fast_issues + ref_issues
    return {
        "engine": "fast",
        "staggers": list(staggers),
        "repeats": repeats,
        "per_kernel": per_kernel,
        "reference_seconds": round(ref_total, 3),
        "fast_seconds": round(fast_total, 3),
        "speedup": _median_speedup(all_ratios),
        "pair_speedups": sorted(round(r, 3) for r in all_ratios),
        "cycles": cycles_total,
        "reference_cycles_per_second": round(
            cycles_total / ref_total) if ref_total else None,
        "fast_cycles_per_second": round(
            cycles_total / fast_total) if fast_total else None,
        "tier_hit_rate": round(fast_issues / issued, 6) if issued
        else 0.0,
        "deopts": deopts,
        "deopt_rate": round(deopts / fast_cycles, 6) if fast_cycles
        else 0.0,
        "delegations": delegations,
        "recompilations": recompilations,
        "superblock_links": superblock_links,
        "deopt_reasons": dict(sorted(deopt_reasons.items())),
        "bit_identical": True,
    }


def _bench_schemes(kernels, staggers, repeats):
    """Reference vs fast tier per redundancy scheme, same points.

    One row per scheme in :data:`ENGINE_SCHEMES` (plus per-kernel
    rows): best-of-``repeats`` seconds on each tier, the median pair
    speedup, and the fast tier's ``fallback_reason`` (None when every
    run stayed on the fast tier).  Results must agree field for field.
    """
    from repro.workloads import program as build_program
    report = {}
    for scheme in ENGINE_SCHEMES:
        per_kernel = {}
        ref_total = fast_total = 0.0
        scheme_ratios = []
        scheme_reason = None
        for kernel in kernels:
            prog = build_program(kernel)
            ref_s = fast_s = 0.0
            ratios = []
            reason = None
            for stagger in staggers:
                rs, fs, pair_ratios, _, stats = _timed_pairs(
                    prog, kernel, stagger, repeats, scheme=scheme)
                ref_s += rs
                fast_s += fs
                ratios += pair_ratios
                reason = reason or stats["fallback_reason"]
            per_kernel[kernel] = _scheme_row(ref_s, fast_s, ratios,
                                             reason)
            ref_total += ref_s
            fast_total += fast_s
            scheme_ratios += ratios
            scheme_reason = scheme_reason or reason
        row = report[scheme] = _scheme_row(ref_total, fast_total,
                                           scheme_ratios, scheme_reason)
        row["per_kernel"] = per_kernel
        print("engine scheme %-9s ref %6.2fs  fast %6.2fs  %5.2fx%s"
              % (scheme, ref_total, fast_total, row["speedup"],
                 "  fell back: %s" % scheme_reason
                 if scheme_reason else ""))
    return report


def _scheme_row(ref_s, fast_s, ratios, fallback_reason):
    return {"reference_seconds": round(ref_s, 3),
            "fast_seconds": round(fast_s, 3),
            "speedup": _median_speedup(ratios),
            "fallback_reason": fallback_reason}


def _profile_engines(kernels, staggers, path):
    """One profiled fast-tier pass per point, saved as a Chrome trace."""
    from repro.telemetry import Tracer
    from repro.workloads import program as build_program
    tracer = Tracer()
    for kernel in kernels:
        prog = build_program(kernel)
        for stagger in staggers:
            for engine in ("reference", "fast"):
                _timed_run(prog, kernel, stagger, engine, tracer=tracer)
    tracer.save(path)
    print("profile trace written to %s (%d spans)"
          % (path, len(tracer)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="workers for the parallel pass (default: "
                             "let the engine decide; it clamps to "
                             "serial when cpu_count <= %d)"
                        % SERIAL_FALLBACK_CPUS)
    parser.add_argument("--kernels", nargs="+", default=None,
                        metavar="K",
                        help="kernel subset to sweep (default: the "
                             "fixed 6-kernel mini set)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="report path (default: BENCH_runtime.json "
                             "at the repo root)")
    parser.add_argument("--quick", action="store_true",
                        help="CI shape: engine-tier comparison only, "
                             "over a 2-kernel subset")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="(reference, fast) pairs per point in the "
                             "engine comparison (default: 3; 2 under "
                             "--quick)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless the median of the fast "
                             "tier's per-pair speedups over reference "
                             "is at least X")
    parser.add_argument("--max-deopt-rate", type=float, default=None,
                        metavar="X",
                        help="fail if the fast tier's deopts-per-cycle "
                             "rate exceeds X")
    parser.add_argument("--profile", default=None, metavar="FILE",
                        help="record one profiled pass per point as a "
                             "Chrome about://tracing trace")
    args = parser.parse_args()
    kernels = tuple(args.kernels
                    or (QUICK_KERNELS if args.quick
                        else MINI_SWEEP_KERNELS))
    out_path = pathlib.Path(args.out) if args.out else OUT_PATH

    missing = set(kernels) - set(all_names())
    assert not missing, "unknown bench kernels: %s" % sorted(missing)
    runs = len(kernels) * len(MINI_SWEEP_STAGGERS) * 2

    repeats = max(1, 2 if args.quick and args.repeats == 3
                  else args.repeats)
    engine_report = _bench_engines(kernels, MINI_SWEEP_STAGGERS,
                                   repeats)
    engine_report["schemes"] = _bench_schemes(kernels,
                                              MINI_SWEEP_STAGGERS,
                                              repeats)
    print("engine aggregate: %.2fx speedup, tier hit rate %.2f%%, "
          "deopt rate %.4f%%"
          % (engine_report["speedup"],
             100.0 * engine_report["tier_hit_rate"],
             100.0 * engine_report["deopt_rate"]))
    print("engine deopt reasons: %s"
          % (" ".join("%s=%d" % item for item in
                      engine_report["deopt_reasons"].items())
             or "(none)"))
    if args.profile:
        _profile_engines(kernels, MINI_SWEEP_STAGGERS, args.profile)

    if args.quick:
        report = {
            "quick": True,
            "kernels": list(kernels),
            "stagger_values": list(MINI_SWEEP_STAGGERS),
            "cpu_count": os.cpu_count(),
            "engine": engine_report,
        }
        out_path.write_text(json.dumps(report, indent=2) + "\n")
        print("wrote %s" % out_path)
        return _gate(args, engine_report)

    print("mini sweep: %d kernels x %d staggers = %d runs"
          % (len(kernels), len(MINI_SWEEP_STAGGERS), runs))

    serial_s, serial_rows, _ = _timed_sweep(kernels, jobs=1,
                                            cache_dir=None,
                                            use_cache=False)
    print("serial (jobs=1, no cache):    %6.2fs" % serial_s)

    with tempfile.TemporaryDirectory() as tmp:
        parallel_s, parallel_rows, par_sweep = _timed_sweep(
            kernels, jobs=args.jobs, cache_dir=tmp)
        effective_jobs = par_sweep.jobs
        serial_fallback = par_sweep.serial_fallback \
            or effective_jobs == 1
        print("parallel (jobs=%d, cold):      %6.2fs%s"
              % (effective_jobs, parallel_s,
                 " [serial fallback]" if serial_fallback else ""))
        warm_s, warm_rows, warm_sweep = _timed_sweep(kernels,
                                                     jobs=args.jobs,
                                                     cache_dir=tmp)
        print("warm cache (jobs=%d):          %6.2fs"
              % (effective_jobs, warm_s))
        assert warm_sweep.cache.hits == runs, \
            "warm pass expected %d hits, got %d" \
            % (runs, warm_sweep.cache.hits)

    assert parallel_rows == serial_rows, \
        "parallel sweep diverged from serial"
    assert warm_rows == serial_rows, "cached sweep diverged from serial"
    print("determinism: serial == parallel == warm, cell-for-cell")

    # With one effective worker, "parallel" ran the exact same serial
    # in-process loop as the reference pass: a speedup number would
    # compare the code path against itself and land arbitrarily close
    # to 1.0x either side (BENCH_runtime.json once claimed 0.973 with
    # "jobs: 4" on a 1-CPU host).  Report null instead.
    parallel_speedup = (None if serial_fallback
                        else round(serial_s / parallel_s, 3))
    report = {
        "kernels": list(kernels),
        "stagger_values": list(MINI_SWEEP_STAGGERS),
        "runs": runs,
        "cpu_count": os.cpu_count(),
        "jobs_requested": args.jobs,
        "effective_jobs": effective_jobs,
        "serial_fallback": serial_fallback,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "warm_cache_seconds": round(warm_s, 3),
        # Why parallel_speedup is null, when it is (see module
        # docstring); the _skipped field is absent on hosts with real
        # parallelism.
        **metric_fields("parallel_speedup", parallel_speedup,
                        "single-cpu" if serial_fallback else None),
        "warm_cache_speedup": round(serial_s / warm_s, 3),
        "seconds_per_run_serial": round(serial_s / runs, 4),
        "engine": engine_report,
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    if parallel_speedup is None:
        print("parallel speedup n/a (serial fallback: 1 effective "
              "worker is the same code path), warm-cache speedup "
              "%.2fx (cpu_count=%s)"
              % (report["warm_cache_speedup"], report["cpu_count"]))
    else:
        print("parallel speedup %.2fx, warm-cache speedup %.2fx "
              "(cpu_count=%s)"
              % (parallel_speedup, report["warm_cache_speedup"],
                 report["cpu_count"]))
    print("wrote %s" % out_path)
    return _gate(args, engine_report)


def _gate(args, engine_report) -> int:
    """Turn the engine report into an exit code per the gate flags."""
    status = 0
    if args.min_speedup is not None \
            and engine_report["speedup"] < args.min_speedup:
        print("FAIL: fast-tier median pair speedup %.2fx below the "
              "%.2fx floor"
              % (engine_report["speedup"], args.min_speedup))
        status = 1
    if args.max_deopt_rate is not None \
            and engine_report["deopt_rate"] > args.max_deopt_rate:
        print("FAIL: fast-tier deopt rate %.4f%% above the %.4f%% "
              "ceiling" % (100.0 * engine_report["deopt_rate"],
                           100.0 * args.max_deopt_rate))
        status = 1
    return status


if __name__ == "__main__":
    import sys
    sys.exit(main())
