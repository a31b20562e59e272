#!/usr/bin/env python3
"""Capture/replay benchmark: N-point monitor sweep, 1 simulation.

Times a 16-point episode-threshold sweep (``interrupt_threshold``,
thresholds 1..16) over one kernel two ways:

* ``live``   — one full simulation per point (the pre-replay cost),
* ``replay`` — one captured simulation plus a
  :class:`repro.replay.ReplayEngine` replay per point.

Then it replays the repository benchmark's six signature geometries
(the default, DS depth 4 and 10, 2 ports, INFLIGHT at depths 14 and 8)
from the same capture and times the two layers a monitor sweep pays
for after its simulation:

* ``accounting_seconds`` — a fresh :class:`ReplayEngine` accounting
  all six geometries (median of 5);
* ``encode_seconds`` — one ``StreamTrace.encode()`` of the capture
  (median of 5).

Every replayed result — each threshold point and each geometry — is
asserted field-for-field identical to its live counterpart before any
timing is reported — a fast wrong answer would be worthless.  The
report goes to ``BENCH_replay.json`` at the repo root;
``--min-speedup X`` turns the bench into a CI gate that exits non-zero
below ``X``.

Usage:
    PYTHONPATH=src python benchmarks/bench_replay.py [--kernel K]
        [--points N] [--max-cycles N] [--quick] [--min-speedup X]
        [--out FILE]

``--quick`` truncates the simulation (max_cycles=6000) while keeping
all 16 points and six geometries, for CI.
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
from repro.core.monitor import ReportingMode
from repro.core.signatures import IsVariant, SignatureConfig
from repro.replay import ReplayEngine
from repro.soc.config import SocConfig
from repro.soc.experiment import run_redundant, run_redundant_captured
from repro.workloads import program as build_program

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_PATH = REPO_ROOT / "BENCH_replay.json"

QUICK_MAX_CYCLES = 6000

#: The repository benchmark's monitor-sweep geometries.
GEOMETRIES = (SignatureConfig(),
              SignatureConfig(ds_depth=4),
              SignatureConfig(ds_depth=10),
              SignatureConfig(num_ports=2),
              SignatureConfig(is_variant=IsVariant.INFLIGHT),
              SignatureConfig(is_variant=IsVariant.INFLIGHT,
                              inflight_depth=8))

#: Timed repeats of each layer; the report gives their median.
REPEATS = 5


def _describe(signature):
    return "%s ports=%d depth=%d inflight=%d" % (
        signature.is_variant.value, signature.num_ports,
        signature.ds_depth, signature.inflight_depth)


def _median_seconds(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernel", default="cosf",
                        help="kernel to sweep (default: cosf)")
    parser.add_argument("--points", type=int, default=16, metavar="N",
                        help="threshold points to sweep (default: 16)")
    parser.add_argument("--max-cycles", type=int, default=2_000_000)
    parser.add_argument("--quick", action="store_true",
                        help="CI subset: truncate the simulation to "
                             "%d cycles (all points kept)"
                        % QUICK_MAX_CYCLES)
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero if replay speedup < X")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="report path (default: BENCH_replay.json "
                             "at the repo root)")
    args = parser.parse_args()
    out_path = pathlib.Path(args.out) if args.out else OUT_PATH
    max_cycles = QUICK_MAX_CYCLES if args.quick else args.max_cycles
    thresholds = list(range(1, args.points + 1))
    mode = ReportingMode.INTERRUPT_THRESHOLD
    prog = build_program(args.kernel)

    print("%s: %d-point threshold sweep, max_cycles=%d%s"
          % (args.kernel, len(thresholds), max_cycles,
             " (quick)" if args.quick else ""))

    # Live pass: one full simulation per point.
    live_results = []
    live_start = time.perf_counter()
    for threshold in thresholds:
        live_results.append(run_redundant(
            prog, benchmark=args.kernel, mode=mode,
            threshold=threshold, max_cycles=max_cycles))
    live_s = time.perf_counter() - live_start
    print("live   (%d simulations):     %6.2fs"
          % (len(thresholds), live_s))

    # Replay pass: capture once, replay every point.
    capture_start = time.perf_counter()
    _, trace = run_redundant_captured(
        prog, benchmark=args.kernel, mode=mode,
        threshold=thresholds[0], max_cycles=max_cycles)
    capture_s = time.perf_counter() - capture_start
    engine = ReplayEngine(trace)
    replay_start = time.perf_counter()
    replay_results = [engine.run_result(mode=mode, threshold=threshold)
                      for threshold in thresholds]
    replay_s = time.perf_counter() - replay_start
    print("replay (1 capture + %d pts): %6.2fs  (capture %.2fs, "
          "replays %.3fs)" % (len(thresholds),
                              capture_s + replay_s, capture_s,
                              replay_s))

    # Correctness first: bit-identical per point, or no timing claims.
    for threshold, live, replayed in zip(thresholds, live_results,
                                         replay_results):
        assert dataclasses.asdict(live) == dataclasses.asdict(replayed), \
            "replay diverged at threshold=%d:\n live:   %r\n replay: %r" \
            % (threshold, live, replayed)
    print("exactness: replayed == live for all %d points"
          % len(thresholds))

    # The six geometries: live once each, then replayed from the trace
    # by one engine, so the geometries share its verdict streams.
    geometry_engine = ReplayEngine(trace)
    for signature in GEOMETRIES:
        live = run_redundant(prog, benchmark=args.kernel,
                             config=SocConfig(signature=signature),
                             mode=mode, threshold=thresholds[0],
                             max_cycles=max_cycles)
        replayed = geometry_engine.run_result(
            signature=signature, mode=mode, threshold=thresholds[0])
        assert dataclasses.asdict(live) == dataclasses.asdict(replayed), \
            "replay diverged at %s:\n live:   %r\n replay: %r" \
            % (_describe(signature), live, replayed)
    print("exactness: replayed == live for all %d geometries"
          % len(GEOMETRIES))

    def account():
        geometry_engine = ReplayEngine(trace)
        for signature in GEOMETRIES:
            geometry_engine.run_result(signature=signature, mode=mode,
                                       threshold=thresholds[0])
    accounting_s = _median_seconds(account)
    encode_s = _median_seconds(trace.encode)
    print("accounting (%d geometries): %.4fs, encode: %.4fs"
          % (len(GEOMETRIES), accounting_s, encode_s))

    speedup = live_s / (capture_s + replay_s)
    trace_bytes = trace.byte_size()
    report = {
        "kernel": args.kernel,
        "points": len(thresholds),
        "thresholds": thresholds,
        "mode": mode.value,
        "max_cycles": max_cycles,
        "cycles": trace.meta.cycles,
        "quick": bool(args.quick),
        "live_seconds": round(live_s, 3),
        "capture_seconds": round(capture_s, 3),
        "replay_seconds": round(replay_s, 4),
        "speedup": round(speedup, 2),
        "trace_bytes": trace_bytes,
        # A zero-cycle capture has no meaningful per-cycle density;
        # report the shared skip shape (see bench_common) rather than
        # clamping the divisor.
        **metric_fields("trace_bytes_per_cycle",
                        round(trace_bytes / trace.meta.cycles, 2)
                        if trace.meta.cycles else None,
                        None if trace.meta.cycles else "empty-trace"),
        "accounting_passes": engine.accounting_passes,
        "geometries": [_describe(signature) for signature in GEOMETRIES],
        "accounting_seconds": round(accounting_s, 4),
        "encode_seconds": round(encode_s, 4),
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print("speedup %.1fx (%d-cycle trace, %d KiB)"
          % (speedup, trace.meta.cycles, trace_bytes // 1024))
    print("wrote %s" % out_path)

    if args.min_speedup is not None and speedup < args.min_speedup:
        print("FAIL: speedup %.1fx below required %.1fx"
              % (speedup, args.min_speedup), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
