"""Per-layer cost attribution, measured from outside the program.

The benchmark wraps calls into each layer of :mod:`repro` — class
methods and module functions — for one traced pass and removes the
wrappers afterwards; nothing under ``src/`` knows it is being traced.

* :class:`Guard` is installed for the whole run, traced or not.  It
  costs one extra Python call per *run* (not per cycle) and flags every
  request for the fast tier that the engine refused.
* :class:`Recorder` is installed only for the traced pass.  Per-cycle
  calls (core step, bus step, monitor observe, scheme taps, capture
  taps, convergence checks) get aggregate-only wrappers; coarser calls
  also keep a span record (name, layer, start/end ns, parent span, op)
  that is written out when the benchmark ends.

A layer's self time is the time inside its wrappers minus the time
inside wrappers nested in them.  Code between wrappers — the benchmark's
own glue — is the unattributed remainder.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

_now = time.perf_counter_ns


class Patches:
    """Wrappers installed on the program, undone in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def method(self, cls, attr: str, wrap: Callable):
        """Replace ``cls.attr`` by ``wrap(function)`` (class- and static
        methods keep their kind)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(wrap(raw.__func__))
        else:
            new = wrap(raw)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def function(self, module, attr: str, wrap: Callable):
        """Replace function ``module.attr`` in every loaded module that
        bound it under that name (``from x import f`` copies)."""
        current = getattr(module, attr)
        new = wrap(current)
        for mod in list(sys.modules.values()):
            if getattr(mod, attr, None) is current:
                setattr(mod, attr, new)
                self._undo.append((mod, attr, current))

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Guard:
    """Flags fast-tier requests that fell back to the reference tier.

    The checkpointed golden run of a CCF campaign is excluded: its
    recording register files are not modelled by the fast tier, so the
    fault layer runs it on the reference tier by design.
    """

    def __init__(self):
        self.op = ""
        #: (op label, fallback reason), in the order seen.
        self.fallbacks: List[Tuple[str, str]] = []
        self._golden = 0
        self._last_fork = None
        self._patches = Patches()

    def _note(self, stats):
        if (stats is not None and stats.engine == "fast"
                and stats.fallback_reason is not None and not self._golden):
            self.fallbacks.append((self.op, stats.fallback_reason))

    def end_op(self):
        """Check the last forked SoC of the op that just ended."""
        if self._last_fork is not None:
            self._note(getattr(self._last_fork, "engine_stats", None))
            self._last_fork = None

    def install(self):
        import repro.engine
        import repro.fault.campaign
        from repro.fault import ForkEngine
        guard = self

        def run_soc(fn):
            def wrapper(*args, **kwargs):
                cycles, stats = fn(*args, **kwargs)
                guard._note(stats)
                return cycles, stats
            return wrapper

        def golden(fn):
            def wrapper(*args, **kwargs):
                guard._golden += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    guard._golden -= 1
            return wrapper

        def fork(fn):
            # The injector picks the tier right after forking, so the
            # previous fork's verdict is final when the next one starts.
            def wrapper(*args, **kwargs):
                guard.end_op()
                soc = guard._last_fork = fn(*args, **kwargs)
                return soc
            return wrapper

        self._patches.function(repro.engine, "run_soc", run_soc)
        self._patches.function(repro.fault.campaign,
                               "golden_run_with_checkpoints", golden)
        self._patches.method(ForkEngine, "fork", fork)

    def uninstall(self):
        self._patches.undo()


# -- the traced pass ----------------------------------------------------------

#: (module, owner, attribute, layer, name, kind).  ``owner`` is a class
#: name inside ``module`` or ``None`` for a module function.  ``kind`` is
#: "hot" (aggregate only; per-cycle calls) or "span".
TARGETS = (
    ("repro.cpu.core", "Core", "step", "cpu", "step", "hot"),
    ("repro.mem.store_buffer", "StoreBuffer", "step", "mem", "store_buffer",
     "hot"),
    ("repro.mem.bus", "AhbBus", "step", "mem", "bus_step", "hot"),
    ("repro.core.monitor", "DiversityMonitor", "observe", "core", "observe",
     "hot"),
    ("repro.soc.mpsoc", "MPSoC", "step", "soc", "loop", "hot"),
    ("repro.trace.stream_trace", "StreamRecorder", "record", "trace",
     "record", "hot"),
    ("repro.soc.mpsoc", "MPSoC", "__init__", "soc", "build", "span"),
    ("repro.soc.mpsoc", "MPSoC", "start_redundant", "soc", "load", "span"),
    ("repro.soc.experiment", None, "run_redundant", "soc", "run_redundant",
     "span"),
    ("repro.checkpoint.codec", "Snapshot", "encode", "checkpoint", "encode",
     "span"),
    ("repro.checkpoint.codec", "Snapshot", "decode", "checkpoint", "decode",
     "span"),
    ("repro.soc.mpsoc", "MPSoC", "load_state_dict", "checkpoint", "restore",
     "span"),
    ("repro.soc.mpsoc", "MPSoC", "state_dict", "checkpoint", "state_dict",
     "span"),
    ("repro.engine", None, "run_soc", "engine", "run_soc", "span"),
    ("repro.engine.fast", "FastRunner", "__init__", "engine", "runner_build",
     "span"),
    ("repro.engine.fast", "FastRunner", "run_span", "engine", "span", "span"),
    ("repro.engine.plan", "ProgramPlan", "for_soc", "engine", "plan_cache",
     "span"),
    ("repro.engine.plan", "ProgramPlan", "__init__", "engine", "plan",
     "span"),
    ("repro.engine.plan", "ProgramPlan", "compile_program", "engine",
     "compile", "span"),
    ("repro.fault.campaign", None, "run_ccf_campaign", "fault", "campaign",
     "span"),
    ("repro.fault.campaign", None, "golden_run_with_checkpoints", "fault",
     "golden", "span"),
    ("repro.fault.injector", None, "inject_common_cause", "fault", "trial",
     "span"),
    ("repro.fault.injector", "ForkEngine", "fork", "fault", "fork", "span"),
    ("repro.montecarlo.campaign", "BatchedCampaign", "prepare", "montecarlo",
     "prepare", "span"),
    ("repro.montecarlo.campaign", "BatchedCampaign", "run", "montecarlo",
     "run", "span"),
    ("repro.montecarlo.golden", None, "mc_golden_run", "montecarlo",
     "golden", "span"),
    ("repro.montecarlo.golden", None, "classify_batch", "montecarlo",
     "classify", "span"),
    ("repro.lint.masking", "StaticMaskFilter", "from_program", "lint",
     "masking_proofs", "span"),
    ("repro.soc.experiment", None, "run_redundant_captured", "trace",
     "capture", "span"),
    ("repro.trace.stream_trace", "StreamRecorder", "to_trace", "trace",
     "to_trace", "span"),
    ("repro.trace.stream_trace", "StreamTrace", "encode", "trace", "encode",
     "span"),
    ("repro.replay.monitor_sweep", "MonitorSweep", "sweep", "replay",
     "sweep", "span"),
    ("repro.replay.engine", "ReplayMonitor", "replay", "replay",
     "accounting", "span"),
    ("repro.replay.engine", "ReplayEngine", "run_result", "replay", "point",
     "span"),
    ("repro.runner.sweep", "ParallelSweep", "run_cells", "runner",
     "run_cells", "span"),
    ("repro.runner.sweep", None, "execute_spec", "runner", "execute_spec",
     "span"),
    ("repro.runner.cache", None, "simulation_key", "runner", "key", "span"),
    ("repro.runner.cache", None, "monitor_key", "runner", "key", "span"),
    ("repro.runner.cache", None, "program_digest", "runner", "key", "span"),
)

#: Wrapped calls installed by hand in :meth:`Recorder.install`.
EXTRA_TARGETS = (("schemes", "tap"), ("fault", "probe"))

LAYERS = ("cpu", "mem", "core", "schemes", "soc", "engine", "fault",
          "montecarlo", "lint", "checkpoint", "trace", "replay", "runner")

#: Per-cycle calls whose cost is also reported inside fast-tier spans.
FAST_SPLIT = (("cpu", "step"), ("core", "observe"), ("mem", "bus_step"),
              ("schemes", "tap"), ("trace", "record"))

#: Named per-layer metrics beyond the generic shares -> unit.
NAMED = {
    "unattributed_share": "share",
    # engine
    "engine.blocks_compiled": "count",
    "engine.deopts": "count",
    "engine.delegations": "count",
    "engine.guard_fails": "count",
    "engine.recompilations": "count",
    "engine.tier_hit_rate": "share",
    "engine.fallbacks": "count",
    "engine.blocks_per_trial": "count",
    "engine.warmup_s": "s",
    "engine.fast_cycles_per_s": "1/s",
    "engine.ref_cycles_per_s": "1/s",
    # reference tier
    "cpu.step_us": "us",
    "cpu.step_calls": "count",
    "core.observe_us": "us",
    "core.observe_calls": "count",
    "soc.build_ms": "ms",
    # fast multi span
    "core.observe_calls_fast": "count",
    "schemes.tap_us": "us",
    "schemes.lockstep_fast_cycles_per_s": "1/s",
    "schemes.tmr_fast_cycles_per_s": "1/s",
    "schemes.multipair_fast_cycles_per_s": "1/s",
    # montecarlo / lint
    "montecarlo.cadence_probe_s": "s",
    "montecarlo.golden_s": "s",
    "montecarlo.golden_overhead_x": "x",
    "montecarlo.classify_ms": "ms",
    "montecarlo.static_frac": "share",
    "montecarlo.analytic_frac": "share",
    "montecarlo.live_frac": "share",
    "lint.masking_proofs_s": "s",
    # fault / checkpoint
    "fault.trial_ms_p50": "ms",
    "fault.trial_ms_p90": "ms",
    "fault.trial_samples": "count",
    "fault.fork_ms_p50": "ms",
    "fault.probe_us_p50": "us",
    "fault.probes_per_trial": "count",
    "fault.converged_frac": "share",
    "fault.trap_retries": "count",
    "fault.golden_s": "s",
    "checkpoint.encode_ms": "ms",
    "checkpoint.decode_ms": "ms",
    "checkpoint.restore_ms": "ms",
    "checkpoint.snapshot_kb": "KiB",
    # trace / replay / runner
    "trace.capture_overhead_x": "x",
    "trace.bytes_per_cycle": "B/cycle",
    "trace.encode_ms": "ms",
    "replay.ms_per_point": "ms",
    "replay.accounting_passes": "count",
    "replay.ns_per_cycle_pass": "ns/cycle",
    "runner.key_ms": "ms",
    "runner.overhead_ms_per_run": "ms",
    # isa / telemetry
    "isa.assemble_ms": "ms",
    "telemetry.traced_wall_s": "s",
    "telemetry.trace_overhead_x": "x",
    "telemetry.on_overhead_x": "x",
}

#: Units of host time.  Every host time the benchmark reports is on the
#: nominal host (see ``worker.HostClock``).
TIME_UNITS = ("s", "ms", "us", "ns/cycle")


def _catalog() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {"%s.self_share" % layer: "share" for layer in LAYERS}
    for target in TARGETS:
        units["%s.%s_share" % target[3:5]] = "share"
    for layer, name in EXTRA_TARGETS:
        units["%s.%s_share" % (layer, name)] = "share"
    for layer, name in FAST_SPLIT:
        units["%s.%s_share_fast" % (layer, name)] = "share"
    units.update(NAMED)
    return units


#: Per-layer metric name -> unit (the ``per_layer`` list of
#: BENCHMARK.json, in the same order).
PER_LAYER_UNITS = _catalog()


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Recorder:
    """Span and self-time accounting for one traced pass."""

    def __init__(self):
        self.op = ""
        #: Open calls, innermost last: [child ns, kept-span index or -1].
        self.stack: List[list] = []
        #: (layer, name) -> [calls, total ns, self ns].
        self.totals: Dict[Tuple[str, str], list] = {}
        #: Kept spans: [name, layer, start ns, end ns, parent index, op].
        self.spans: List[list] = []
        #: Open fast-tier spans and fault trials.
        self.depth = {"fast": 0, "trial": 0}
        self.engine: Dict[str, int] = {}
        self.trial_entries: List[int] = []
        self.snapshot_bytes: List[int] = []
        #: Durations of convergence checks made at golden checkpoints.
        self.probe_ns: List[int] = []
        self.converged = 0
        #: Cycles fed through replay accounting passes.
        self.replayed_cycles = 0
        self._runners: List[tuple] = []
        self._forks_by_trial: Dict[int, int] = {}
        self._patches = Patches()

    # -- wrappers -----------------------------------------------------------

    def _entry(self, key):
        entry = self.totals.get(key)
        if entry is None:
            entry = self.totals[key] = [0, 0, 0]
        return entry

    def hot(self, fn, layer: str, name: str):
        """Aggregate-only wrapper for calls made every cycle."""
        stack = self.stack
        depth = self.depth
        ref = self._entry((layer, name))
        fast = self._entry((layer, name + "@fast"))
        now = _now

        def wrapper(*args):
            frame = [0, -1]
            stack.append(frame)
            start = now()
            try:
                return fn(*args)
            finally:
                spent = now() - start
                stack.pop()
                if stack:
                    stack[-1][0] += spent
                entry = fast if depth["fast"] else ref
                entry[0] += 1
                entry[1] += spent
                entry[2] += spent - frame[0]
        return wrapper

    def span(self, fn, layer: str, name: str, depth: str = ""):
        """Wrapper that also keeps a span record (and, with ``depth``,
        counts itself as open while it runs)."""
        recorder = self
        stack = self.stack
        spans = self.spans
        entry = self._entry((layer, name))
        counters = self.depth

        def wrapper(*args, **kwargs):
            parent = -1
            for frame in reversed(stack):
                if frame[1] >= 0:
                    parent = frame[1]
                    break
            record = [name, layer, 0, 0, parent, recorder.op]
            frame = [0, len(spans)]
            spans.append(record)
            stack.append(frame)
            if depth:
                counters[depth] += 1
            start = record[2] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = record[3] = _now()
                if depth:
                    counters[depth] -= 1
                stack.pop()
                spent = end - start
                if stack:
                    stack[-1][0] += spent
                entry[0] += 1
                entry[1] += spent
                entry[2] += spent - frame[0]
        return wrapper

    def _open_trial(self) -> int:
        """Kept-span index of the innermost open fault trial, or -1."""
        for frame in reversed(self.stack):
            index = frame[1]
            if index >= 0 and self.spans[index][0] == "trial":
                return index
        return -1

    # -- install ------------------------------------------------------------

    def install(self):
        import importlib
        from repro.checkpoint import Snapshot
        from repro.engine.fast import FastRunner
        from repro.fault import ForkEngine
        from repro.replay.engine import ReplayMonitor
        from repro.soc.mpsoc import MPSoC
        recorder = self

        for module_name, owner, attr, layer, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            depth = {("engine", "span"): "fast",
                     ("fault", "trial"): "trial"}.get((layer, name), "")

            def wrap(fn, layer=layer, name=name, kind=kind, depth=depth):
                if kind == "hot":
                    return recorder.hot(fn, layer, name)
                return recorder.span(fn, layer, name, depth)
            if owner is None:
                self._patches.function(module, attr, wrap)
            else:
                self._patches.method(getattr(module, owner), attr, wrap)

        def add_scheme_tap(fn):
            def wrapper(soc, tap):
                return fn(soc, recorder.hot(tap, "schemes", "tap"))
            return wrapper

        def convergence(fn):
            # The injector consults the check at every cycle on the
            # reference tier, but it only compares state at the golden
            # checkpoint cycles: those calls are the probes.
            def wrapper(engine):
                check = fn(engine)
                if check is None:
                    return None
                timed = recorder.hot(check, "fault", "probe")
                grid = set(engine.artifact.checkpoint_cycles)

                def counted(soc):
                    if soc.cycle not in grid:
                        return timed(soc)
                    start = _now()
                    tail = timed(soc)
                    recorder.probe_ns.append(_now() - start)
                    if tail is not None:
                        recorder.converged += 1
                    return tail
                return counted
            return wrapper

        def encode(fn):
            def wrapper(snapshot):
                blob = fn(snapshot)
                recorder.snapshot_bytes.append(len(blob))
                return blob
            return wrapper

        def fork(fn):
            def wrapper(engine, cycle):
                trial = recorder._open_trial()
                recorder._forks_by_trial[trial] = \
                    recorder._forks_by_trial.get(trial, 0) + 1
                return fn(engine, cycle)
            return wrapper

        def runner(fn):
            def wrapper(self, soc, plan, estats):
                recorder._runners.append(
                    (estats, plan, recorder.depth["trial"] > 0))
                return fn(self, soc, plan, estats)
            return wrapper

        def accounting(fn):
            def wrapper(monitor):
                recorder.replayed_cycles += len(monitor.trace.samples)
                return fn(monitor)
            return wrapper

        self._patches.method(MPSoC, "add_scheme_tap", add_scheme_tap)
        self._patches.method(ForkEngine, "convergence", convergence)
        self._patches.method(ForkEngine, "fork", fork)
        self._patches.method(Snapshot, "encode", encode)
        self._patches.method(FastRunner, "__init__", runner)
        self._patches.method(ReplayMonitor, "replay", accounting)

    def uninstall(self):
        self._patches.undo()

    # -- folding ------------------------------------------------------------

    def end_op(self):
        """Fold the engine statistics of the runners the op built."""
        seen = set()
        totals = self.engine
        for estats, plan, in_trial in self._runners:
            totals["blocks_compiled"] = (totals.get("blocks_compiled", 0)
                                         + plan.blocks_compiled)
            if in_trial:
                self.trial_entries.append(len(plan.entries))
            if id(estats) in seen:
                continue
            seen.add(id(estats))
            for key in ("deopts", "delegations", "recompilations",
                        "issue_fast", "issue_ref"):
                totals[key] = totals.get(key, 0) + getattr(estats, key)
            totals["guard_fails"] = (totals.get("guard_fails", 0)
                                     + estats.deopt_reasons.get("guard_fail",
                                                                0))
        self._runners = []

    def _durations(self, layer: str, name: str) -> List[int]:
        return [end - start for span_name, span_layer, start, end, _, _
                in self.spans if span_name == name and span_layer == layer]

    def _total_ns(self, layer: str, name: str) -> int:
        return self.totals.get((layer, name), [0, 0, 0])[1]

    def _mean_ns(self, layer: str, name: str, index: int = 1) -> float:
        """Mean total (``index`` 1) or self (2) ns per call."""
        entry = self.totals.get((layer, name), [0, 0, 0])
        return entry[index] / entry[0] if entry[0] else 0.0

    def _ancestor(self, span: list, name: str) -> bool:
        parent = span[4]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][4]
        return False

    def metrics(self, wall_ns: int, speed: float) -> Dict[str, float]:
        """Per-layer metrics of the traced pass (``wall_ns`` long, on a
        host ``speed`` times as fast as the nominal one)."""
        wall = float(max(wall_ns, 1))
        out: Dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0)
        for (layer, name), (calls, _, self_ns) in self.totals.items():
            layer_self[layer] = layer_self.get(layer, 0) + self_ns
            fast = name.endswith("@fast")
            base = name[:-5] if fast else name
            key = "%s.%s_share%s" % (layer, base, "_fast" if fast else "")
            out[key] = out.get(key, 0.0) + self_ns / wall
        for layer in LAYERS:
            out["%s.self_share" % layer] = layer_self[layer] / wall
        out["unattributed_share"] = \
            max(0.0, wall - sum(layer_self.values())) / wall
        calls = {key: entry[0] for key, entry in self.totals.items()}

        engine = self.engine
        issued = engine.get("issue_fast", 0) + engine.get("issue_ref", 0)
        for key in ("blocks_compiled", "deopts", "delegations",
                    "guard_fails", "recompilations"):
            out["engine.%s" % key] = engine.get(key, 0)
        out["engine.tier_hit_rate"] = (engine.get("issue_fast", 0) / issued
                                       if issued else 0.0)
        out["engine.blocks_per_trial"] = (
            statistics.mean(self.trial_entries) if self.trial_entries
            else 0.0)

        # Hot calls cost their self time; spans their whole duration.
        out["cpu.step_us"] = self._mean_ns("cpu", "step", 2) / 1e3
        out["cpu.step_calls"] = calls.get(("cpu", "step"), 0)
        out["core.observe_us"] = self._mean_ns("core", "observe", 2) / 1e3
        out["core.observe_calls"] = calls.get(("core", "observe"), 0)
        out["core.observe_calls_fast"] = calls.get(("core", "observe@fast"),
                                                   0)
        taps = [self.totals.get(("schemes", name), [0, 0, 0])
                for name in ("tap", "tap@fast")]
        tap_calls = sum(entry[0] for entry in taps)
        out["schemes.tap_us"] = (sum(entry[2] for entry in taps) / tap_calls
                                 / 1e3 if tap_calls else 0.0)
        out["soc.build_ms"] = self._mean_ns("soc", "build") / 1e6

        out["montecarlo.cadence_probe_s"] = sum(
            span[3] - span[2] for span in self.spans
            if span[0] == "run_redundant" and span[4] >= 0
            and self.spans[span[4]][0] == "prepare") / 1e9
        out["montecarlo.golden_s"] = \
            self._total_ns("montecarlo", "golden") / 1e9
        out["montecarlo.classify_ms"] = \
            self._mean_ns("montecarlo", "classify") / 1e6
        out["lint.masking_proofs_s"] = \
            self._total_ns("lint", "masking_proofs") / 1e9

        trials = [ns / 1e6 for ns in self._durations("fault", "trial")]
        out["fault.trial_ms_p50"] = _percentile(trials, 0.5)
        out["fault.trial_ms_p90"] = _percentile(trials, 0.9)
        out["fault.trial_samples"] = len(trials)
        out["fault.fork_ms_p50"] = _percentile(
            [ns / 1e6 for ns in self._durations("fault", "fork")], 0.5)
        out["fault.probe_us_p50"] = _percentile(
            [ns / 1e3 for ns in self.probe_ns], 0.5)
        out["fault.probes_per_trial"] = (len(self.probe_ns) / len(trials)
                                         if trials else 0.0)
        forks = sum(count for trial, count
                    in self._forks_by_trial.items() if trial >= 0)
        out["fault.converged_frac"] = self.converged / forks if forks else 0.0
        out["fault.trap_retries"] = sum(
            count - 1 for trial, count in self._forks_by_trial.items()
            if trial >= 0 and count > 1)
        out["fault.golden_s"] = self._total_ns("fault", "golden") / 1e9

        for name in ("encode", "decode", "restore"):
            out["checkpoint.%s_ms" % name] = \
                self._mean_ns("checkpoint", name) / 1e6
        out["checkpoint.snapshot_kb"] = (
            statistics.mean(self.snapshot_bytes) / 1024
            if self.snapshot_bytes else 0.0)

        out["trace.encode_ms"] = self._mean_ns("trace", "encode") / 1e6
        out["replay.ms_per_point"] = self._mean_ns("replay", "point") / 1e6
        out["replay.accounting_passes"] = calls.get(("replay", "accounting"),
                                                    0)
        accounting = self.totals.get(("replay", "accounting"), [0, 0, 0])
        out["replay.ns_per_cycle_pass"] = (
            accounting[1] / self.replayed_cycles
            if self.replayed_cycles else 0.0)
        out["runner.key_ms"] = self._mean_ns("runner", "key") / 1e6
        # A Table I run's cost outside the simulation it asks for.
        runs = [span for span in self.spans if span[0] == "run_redundant"
                and self._ancestor(span, "run_cells")]
        cells = self._total_ns("runner", "run_cells")
        out["runner.overhead_ms_per_run"] = (
            (cells - sum(span[3] - span[2] for span in runs))
            / len(runs) / 1e6 if runs else 0.0)
        out["telemetry.traced_wall_s"] = wall / 1e9

        for name, value in out.items():
            if PER_LAYER_UNITS.get(name) in TIME_UNITS:
                out[name] = value * speed
        return out

    def dump(self) -> dict:
        """Spans and totals as written to the spans file."""
        return {
            "spans": [{"name": name, "layer": layer, "start_ns": start,
                       "end_ns": end, "parent": parent, "op": op}
                      for name, layer, start, end, parent, op in self.spans],
            "totals": [{"layer": layer, "name": name, "calls": calls,
                        "total_ns": total, "self_ns": self_ns}
                       for (layer, name), (calls, total, self_ns)
                       in sorted(self.totals.items())],
        }
