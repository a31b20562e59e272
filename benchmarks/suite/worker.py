"""Run one benchmark workload in this process.

Started by ``run.py`` in a fresh interpreter, once per set-up sample
and once for the measured run.  Set-up (imports, assembly, warm-up) is
timed from the moment the parent spawned this process.  The measured
run then draws the workload's round from ``--seed`` and repeats it,
each repeat in the same op order, as often as it fits in
``--seconds`` (at least once).  Every repeat must reproduce the first
one's outputs digest, and the first one's results are checked against
the workload's oracles.  The last line of standard output is one JSON
object.

Shared hosts change speed by tens of percent over seconds to minutes
(other tenants), which swamps any change worth measuring.  So every
timed section — set-up and each op — samples the host's speed with a
fixed pure-Python calibration loop every ``SAMPLE_INTERVAL_S`` (see
:class:`HostClock`), and its time is reported on a *nominal host* on
which that loop takes ``NOMINAL_SAMPLE_S``.  An op's time is the
median of its normalized repeats.  Raw wall times stay in the record.

With ``--trace 1`` the repeats are: untraced, traced (per-layer
wrappers installed, see ``layers.py``), with the program's own
telemetry attached, then untraced again while time is left.  The
traced repeat gives the per-layer metrics; its ratio to the untraced
repeats gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path.insert(0, str(SUITE))

import layers  # noqa: E402
from workloads import WORKLOADS, Failure, digest  # noqa: E402

EXPECTED = SUITE / "expected_seed0.json"
#: The nominal host: normalized seconds are wall seconds on a host that
#: runs one ``calibration_loop`` in exactly this long.
NOMINAL_SAMPLE_S = 0.0005
#: How often a timed section is interrupted to sample the host's speed.
SAMPLE_INTERVAL_S = 0.05


def import_program():
    """Put this checkout's ``src`` first on the path and import it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError("repro imported from %s, not from %s"
                          % (repro.__file__, src))
    # Everything a workload reaches, so import cost is set-up cost.
    import repro.fault  # noqa: F401
    import repro.montecarlo  # noqa: F401
    import repro.replay  # noqa: F401
    import repro.runner  # noqa: F401
    import repro.schemes  # noqa: F401
    import repro.telemetry  # noqa: F401


def calibration_loop(n: int = 5000) -> int:
    """Interpreter-bound work the program never touches: dict lookups,
    stores and integer arithmetic, like the simulator's inner loops."""
    table = {}
    total = 0
    for i in range(n):
        key = i & 255
        total += table.get(key, 0) ^ i
        table[key] = total & 0xFFFF
    return total


def calibration_sample() -> float:
    start = time.monotonic()
    calibration_loop()
    return time.monotonic() - start


class HostClock:
    """Wall time of a section, and the same time on the nominal host.

    While running, a SIGALRM timer interrupts the section every
    ``SAMPLE_INTERVAL_S`` to time one calibration loop.  The loops' own
    time is taken out of the wall time.  The samples are equally spaced
    in time, so the mean of ``NOMINAL_SAMPLE_S / sample`` is the host's
    speed relative to the nominal host over the section.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0
        self.wall = 0.0
        self._start = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        took = calibration_sample()
        self.samples.append(took)
        self.spent += took

    @staticmethod
    def _bracket() -> float:
        return min(calibration_sample() for _ in range(3))

    def start(self, since: Optional[float] = None):
        """Start timing now, or from ``since`` (a ``time.monotonic``
        reading taken earlier, e.g. by the parent at spawn)."""
        self.samples = [] if since is not None else [self._bracket()]
        self.spent = 0.0
        self._start = time.monotonic() if since is None else since
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = time.monotonic() - self._start
        self.samples.append(self._bracket())

    @property
    def speed(self) -> float:
        """Nominal seconds per host second over the section."""
        return statistics.mean(NOMINAL_SAMPLE_S / c for c in self.samples)

    @property
    def normalized(self) -> float:
        return (self.wall - self.spent) * self.speed


@dataclass
class Pass:
    """One execution of a round: per-op results, wall seconds, seconds
    normalized to the nominal host, and failures."""

    results: List[Any] = field(default_factory=list)
    seconds: List[float] = field(default_factory=list)
    normalized: List[float] = field(default_factory=list)
    failures: List[Failure] = field(default_factory=list)


def run_pass(rnd, guard, telemetry=False, recorder=None) -> Pass:
    """Run every op of ``rnd`` once, in order; results and seconds come
    back aligned with ``rnd.ops``."""
    from repro.telemetry import MetricsRegistry, Tracer
    out = Pass()
    seen = len(guard.fallbacks)
    for op in rnd.ops:
        guard.op = op.label
        if recorder is not None:
            recorder.op = op.label
        sinks = (MetricsRegistry(), Tracer()) if telemetry else None
        clock = HostClock()
        clock.start()
        try:
            result = op.call(sinks)
        except Exception as exc:  # one failed op must not stop the run
            traceback.print_exc()
            result = None
            out.failures.append(Failure(op.label, op.ops, "raised %s: %s"
                                        % (type(exc).__name__, exc)))
        finally:
            clock.stop()
        out.seconds.append(clock.wall)
        out.normalized.append(clock.normalized)
        guard.end_op()
        if recorder is not None:
            recorder.end_op()
        out.results.append(result)
    ops = {op.label: op.ops for op in rnd.ops}
    for label in dict.fromkeys(label for label, _
                               in guard.fallbacks[seen:]):
        reasons = [reason for lab, reason in guard.fallbacks[seen:]
                   if lab == label]
        out.failures.append(Failure(label, ops.get(label, 1),
                                    "fell back from the fast tier: %s"
                                    % reasons[0]))
    return out


def set_up(workload, spawn_ns: int) -> Dict[str, float]:
    clock = HostClock()
    clock.start(since=spawn_ns / 1e9)
    try:
        import_program()
        from repro.workloads import program
        start = time.perf_counter()
        for name in workload.kernels():
            program(name)
        assemble = time.perf_counter() - start
        start = time.perf_counter()
        workload.warm_up()
        warmup = time.perf_counter() - start
    finally:
        clock.stop()
    return {"setup_s": clock.normalized,
            "setup_wall_s": clock.wall,
            "isa.assemble_ms": assemble * 1e3 * clock.speed,
            "engine.warmup_s": warmup * clock.speed}


def _rate(pairs) -> float:
    cycles = sum(c for c, _ in pairs)
    seconds = sum(s for _, s in pairs)
    return cycles / seconds if seconds > 0 else 0.0


def measure(args) -> dict:
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    setup = set_up(workload, args.spawn_ns)
    if args.setup_only:
        return {"setup_s": setup["setup_s"]}

    guard = layers.Guard()
    guard.install()
    recorder = layers.Recorder() if args.trace else None
    rnd = workload.make_round(random.Random(args.seed))
    plan = ["main", "traced", "telemetry"] if args.trace else ["main"]
    passes: Dict[str, List[Pass]] = {"main": [], "traced": [],
                                     "telemetry": []}
    failures: List[Failure] = []
    round_ops = sum(op.ops for op in rnd.ops)
    attempted = 0
    first = None
    phase_start = time.perf_counter()
    repeat = 0
    while True:
        kind = plan[repeat] if repeat < len(plan) else "main"
        if kind == "traced":
            recorder.install()
        try:
            done = run_pass(rnd, guard, telemetry=kind == "telemetry",
                            recorder=recorder if kind == "traced" else None)
        finally:
            if kind == "traced":
                recorder.uninstall()
        passes[kind].append(done)
        attempted += round_ops
        failures += done.failures
        wall = sum(done.normalized)
        print("%s repeat %d (%s): %d ops in %.2f s (%.2f s normalized)"
              % (workload.name, repeat, kind, round_ops, sum(done.seconds),
                 wall), file=sys.stderr)
        if not done.failures:
            outputs = digest(workload.outputs(rnd, done.results))
            if first is None:
                first = outputs
            elif outputs != first:
                failures.append(Failure(
                    "repeat %d" % repeat, round_ops,
                    "outputs digest differs from the first repeat's"
                    " (%s pass)" % kind))
        if repeat:
            # Only the first repeat's results are checked and kept, so
            # peak memory does not grow with the number of repeats.
            done.results = []
        if kind == "main" and not args.smoke \
                and wall > 2 * workload.budget_s:
            failures.append(Failure(
                "repeat %d" % repeat, round_ops,
                "round took %.1f normalized s, over twice its %.0f s"
                " budget"
                % (wall, workload.budget_s)))
            break
        repeat += 1
        # Stop before a repeat that would not end within --seconds.
        elapsed = time.perf_counter() - phase_start
        if repeat >= len(plan) and elapsed * (repeat + 1) / repeat \
                > args.seconds:
            break

    results = passes["main"][0].results
    guard.op = "oracle"
    failures += workload.check(rnd, results)
    guard.end_op()
    failures += [Failure("oracle", 1, "fell back from the fast tier: %s"
                         % reason)
                 for label, reason in guard.fallbacks if label == "oracle"]
    guard.uninstall()
    if args.seed == 0 and not args.smoke and first is not None:
        expected = json.loads(EXPECTED.read_text()).get(workload.name)
        if first != expected:
            failures.append(Failure(
                "repeat 0", round_ops,
                "outputs digest %s != expected_seed0.json %s"
                % (first, expected)))

    typical = [statistics.median(done.normalized[i]
                                 for done in passes["main"])
               for i in range(len(rnd.ops))]
    metrics: Dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"] = setup["setup_s"]
        metrics["norm_ops_per_s"] = round_ops / sum(typical)
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        traced = passes["traced"][0]
        metrics.update(recorder.metrics(
            int(sum(traced.seconds) * 1e9),
            speed=sum(traced.normalized) / sum(traced.seconds)))
        metrics["isa.assemble_ms"] = setup["isa.assemble_ms"]
        metrics["engine.warmup_s"] = setup["engine.warmup_s"]
        metrics["engine.fallbacks"] = len(guard.fallbacks)
        metrics["telemetry.trace_overhead_x"] = \
            sum(traced.normalized) / sum(typical)
        metrics["telemetry.on_overhead_x"] = \
            sum(passes["telemetry"][0].normalized) / sum(typical)
        tiers: Dict[str, list] = {}
        for op, result, seconds in zip(rnd.ops, results, typical):
            if result is None:
                continue
            for key, cycles in workload.tier_cycles(op, result).items():
                tiers.setdefault(key, []).append((cycles, seconds))
        metrics["engine.fast_cycles_per_s"] = _rate(tiers.get("fast", ()))
        metrics["engine.ref_cycles_per_s"] = _rate(tiers.get("reference",
                                                             ()))
        for scheme in ("lockstep", "tmr", "multipair"):
            metrics["schemes.%s_fast_cycles_per_s" % scheme] = _rate(
                tiers.get("%s fast" % scheme, ()))
        metrics.update(workload.layer_extras(rnd, results))
        args.out.mkdir(parents=True, exist_ok=True)
        spans = args.out / ("%s-seed%d-spans.json" % (workload.name,
                                                      args.seed))
        spans.write_text(json.dumps(recorder.dump()))
        metrics = {name: metrics.get(name, 0.0)
                   for name in layers.PER_LAYER_UNITS}

    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": int(args.trace),
        "repeats": sum(len(done) for done in passes.values()),
        "attempted": attempted,
        "failed": min(attempted, sum(f.ops for f in failures)),
        "failures": [[f.label, f.ops, f.reason] for f in failures],
        "digest": first,
        "setup_wall_s": setup["setup_wall_s"],
        "inputs": rnd.inputs,
        "op_seconds": {op.label: [done.seconds[i] for done in passes["main"]]
                       for i, op in enumerate(rnd.ops)},
        "op_normalized_seconds": {
            op.label: [done.normalized[i] for done in passes["main"]]
            for i, op in enumerate(rnd.ops)},
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        report = measure(args)
    except ImportError as exc:
        print("cannot import the program: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
