"""The repository benchmark: four workloads, measured end to end.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py --workload pair-run --seed 0 \\
        --seconds 16 --trace 0
    python3 benchmarks/suite/run.py --all --seed 1

Each workload runs in its own fresh interpreter (``worker.py``), one
after another, single-process and single-threaded.  Set-up is sampled
in ``SETUP_SAMPLES`` fresh interpreters and reported as the median.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).  Every run's full record — generated
inputs, outputs digests, failures and metrics — is also written to
``--out`` (default ``benchmarks/suite/out``).  A run with a failed op
exits 1 and names the first one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE))

from layers import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metric name -> unit (``end_to_end`` in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "norm_ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
#: Fresh interpreters set up per run; the measured run is one of them.
SETUP_SAMPLES = 5
#: Wall limits for one worker process.
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def _worker(args, workload: str, setup_only: bool) -> dict:
    """Run ``worker.py`` in a fresh interpreter; its last stdout line."""
    command = [sys.executable, str(SUITE / "worker.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(args.out)]
    if setup_only:
        command.append("--setup-only")
    if args.smoke:
        command.append("--smoke")
    command += ["--spawn-ns", str(time.monotonic_ns())]
    # numpy (the Monte-Carlo trial columns) would otherwise start a
    # BLAS thread per CPU; the workload is single-threaded.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env=env, timeout=SETUP_TIMEOUT_S if setup_only
                          else RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("%s worker exited with %d"
                           % (workload, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(args, workload: str) -> dict:
    """One measured run of ``workload``; returns the full record."""
    setups = []
    if not args.trace:
        setups = [_worker(args, workload, True)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    report = _worker(args, workload, False)
    metrics = report["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        report["setup_samples_s"] = setups
        units = END_TO_END
    else:
        units = PER_LAYER_UNITS
    report["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}
    report["correct"] = report["failed"] == 0
    return report


def _print(report: dict):
    print("== %s seed=%d trace=%d: %d repeat(s), %d/%d ops failed"
          % (report["workload"], report["seed"], report["trace"],
             report["repeats"], report["failed"], report["attempted"]))
    print("   inputs: %s" % json.dumps(report["inputs"], sort_keys=True))
    for name, metric in report["metrics"].items():
        print("   %-40s %14.6g %s" % (name, metric["value"],
                                      metric["unit"]))
    if report["failures"]:
        label, ops, reason = report["failures"][0]
        print("FAIL: first failing op %r (%d ops): %s"
              % (label, ops, reason))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=list(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="every workload, one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="repeat the seeded round as often as it "
                             "fits in this many seconds (at least once)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--out", type=Path, default=SUITE / "out",
                        help="directory for run records and span files")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny rounds, for the suite's self-test")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    names = list(WORKLOADS) if args.all else [args.workload]

    ok = True
    for name in names:
        try:
            report = run_workload(args, name)
        except (RuntimeError, subprocess.TimeoutExpired,
                ValueError, KeyError) as exc:
            print("error: %s: %s" % (name, exc), file=sys.stderr)
            return 2
        args.out.mkdir(parents=True, exist_ok=True)
        record = args.out / ("%s-seed%d-trace%d.json"
                             % (name, args.seed, args.trace))
        record.write_text(json.dumps(report, indent=1) + "\n")
        _print(report)
        ok = ok and report["correct"]
        print(json.dumps({key: report[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
