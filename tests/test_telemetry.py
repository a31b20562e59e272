"""Telemetry subsystem tests: registry semantics, exports, and the
observational-purity guarantee (instrumentation never changes what the
simulator computes)."""

import dataclasses
import json

import pytest

from repro.cli import format_columns, main
from repro.runner import ParallelSweep
from repro.soc.experiment import run_redundant
from repro.telemetry import (
    DEFAULT_TIME_BUCKETS,
    NULL_METRIC,
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    Tracer,
    load_snapshot,
    parse_prometheus,
    registry_from_snapshot,
    snapshot,
    snapshot_rows,
    to_prometheus,
    write_snapshot,
)
from repro.workloads import program

KERNEL = "cosf"


# --- registry primitives -----------------------------------------------------

class TestRegistry:
    def test_counter_accumulates_and_is_shared(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_hits_total")
        c.inc()
        c.inc(4)
        assert reg.counter("repro_test_hits_total") is c
        assert reg.value("repro_test_hits_total") == 5

    def test_labels_canonicalize(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_test_hits_total",
                        (("core", "0"), ("cache", "l1d")))
        b = reg.counter("repro_test_hits_total",
                        {"cache": "l1d", "core": 0})
        assert a is b
        assert a.labels == (("cache", "l1d"), ("core", "0"))

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_test_depth")
        g.set(3)
        g.set(7)
        g.inc()
        assert reg.value("repro_test_depth") == 8

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.1, 0.5, 2.0):
            h.observe(v)
        # bisect_left: an observation equal to a bound lands in that
        # bound's bucket (le="0.1" includes 0.1).
        assert h.counts == [2, 1, 1]
        assert h.cumulative_counts() == [2, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(2.65)

    def test_histogram_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("repro_test_seconds", buckets=(1.0, 0.1))

    def test_name_scheme_enforced(self):
        reg = MetricsRegistry()
        for bad in ("hits_total", "repro_", "repro_Test_hits",
                    "other_cpu_cycles_total"):
            with pytest.raises(ValueError):
                reg.counter(bad)

    def test_kind_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_hits_total")
        with pytest.raises(ValueError):
            reg.gauge("repro_test_hits_total")

    def test_counter_values_only_counters(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_hits_total").inc(2)
        reg.gauge("repro_test_depth").set(9)
        reg.histogram("repro_test_seconds").observe(0.1)
        assert reg.counter_values() == {
            ("repro_test_hits_total", ()): 2}

    def test_len_and_iter(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_b_total")
        reg.counter("repro_test_a_total")
        assert len(reg) == 2
        assert [m.name for m in reg] == ["repro_test_a_total",
                                         "repro_test_b_total"]


class TestNullObjects:
    def test_null_registry_records_nothing(self):
        assert NULL_REGISTRY.counter("repro_test_hits_total") is NULL_METRIC
        NULL_REGISTRY.counter("repro_test_hits_total").inc(5)
        NULL_REGISTRY.gauge("repro_test_depth").set(1)
        NULL_REGISTRY.histogram("repro_test_seconds").observe(0.1)
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.counter_values() == {}
        assert NULL_REGISTRY.value("repro_test_hits_total", default=7) == 7
        assert not NullRegistry.enabled

    def test_null_registry_skips_name_validation(self):
        # The disabled path must cost nothing — not even a regex match.
        NULL_REGISTRY.counter("not even a metric name").inc()

    def test_null_tracer(self):
        with NULL_TRACER.span("anything", detail=1):
            pass
        NULL_TRACER.add_event("x", 0.0, 1.0)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.now() == 0.0
        assert NULL_TRACER.total_seconds() == 0.0
        assert isinstance(NULL_TRACER, NullTracer)


# --- tracer ------------------------------------------------------------------

class TestTracer:
    def test_spans_and_chrome_export(self):
        clock = iter([0.0, 1.0, 1.5, 2.0, 4.5]).__next__
        tracer = Tracer(clock=clock)  # origin consumes 0.0
        with tracer.span("outer", category="test", kernel=KERNEL):
            with tracer.span("inner"):
                pass
        assert len(tracer) == 2
        inner, outer = tracer.events
        assert (inner.name, outer.name) == ("inner", "outer")
        assert outer.start == pytest.approx(1.0)
        assert outer.duration == pytest.approx(3.5)
        assert tracer.total_seconds("inner") == pytest.approx(0.5)
        doc = tracer.to_chrome_trace()
        assert {e["ph"] for e in doc["traceEvents"]} == {"X"}
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["outer"]["ts"] == pytest.approx(1.0e6)
        assert by_name["outer"]["dur"] == pytest.approx(3.5e6)
        assert by_name["outer"]["args"] == {"kernel": KERNEL}

    def test_save_is_loadable_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("phase"):
            pass
        path = tmp_path / "t.json"
        tracer.save(str(path))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 1


# --- exports -----------------------------------------------------------------

def _populated_registry():
    reg = MetricsRegistry()
    reg.counter("repro_test_hits_total", (("core", "0"),)).inc(3)
    reg.counter("repro_test_hits_total", (("core", "1"),)).inc(5)
    reg.gauge("repro_test_depth").set(2.5)
    h = reg.histogram("repro_test_seconds", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.7)
    h.observe(9.0)
    return reg


class TestExports:
    def test_prometheus_rendering(self):
        text = to_prometheus(_populated_registry())
        assert "# TYPE repro_test_hits_total counter" in text
        assert 'repro_test_hits_total{core="0"} 3' in text
        assert "# TYPE repro_test_seconds histogram" in text
        assert 'repro_test_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_test_seconds_count 3" in text
        samples = parse_prometheus(text)
        assert samples['repro_test_hits_total{core="1"}'] == 5
        assert samples['repro_test_seconds_bucket{le="1.0"}'] == 2

    def test_snapshot_round_trip(self, tmp_path):
        reg = _populated_registry()
        path = tmp_path / "snap.json"
        write_snapshot(reg, str(path), meta={"command": "test"})
        doc = load_snapshot(str(path))
        assert doc["meta"] == {"command": "test"}
        rebuilt = registry_from_snapshot(doc)
        assert snapshot(rebuilt) == snapshot(reg)
        assert to_prometheus(rebuilt) == to_prometheus(reg)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 999, "metrics": []}')
        with pytest.raises(ValueError):
            load_snapshot(str(path))

    def test_snapshot_rows(self):
        rows = snapshot_rows(snapshot(_populated_registry()))
        names = [name for name, _, _ in rows]
        assert 'repro_test_hits_total{core="0"}' in names
        hist = next(r for r in rows if r[1] == "histogram")
        assert "count=3" in hist[2]


# --- observational purity: runs are bit-identical with telemetry on ----------

@pytest.mark.slow
class TestRunInstrumentation:
    def test_run_identical_with_and_without_telemetry(self):
        prog = program(KERNEL)
        bare = run_redundant(prog, benchmark=KERNEL)
        reg = MetricsRegistry()
        tracer = Tracer()
        observed = run_redundant(prog, benchmark=KERNEL, metrics=reg,
                                 tracer=tracer)
        assert dataclasses.asdict(observed) == dataclasses.asdict(bare)
        # The acceptance-criteria metric families are all non-zero.
        assert reg.value("repro_soc_cycles_total") == bare.cycles
        assert reg.value("repro_monitor_sampled_cycles_total",
                         (("pair", "0"),)) > 0
        assert reg.value("repro_monitor_no_diversity_cycles_total",
                         (("pair", "0"),)) == bare.no_diversity_cycles
        assert reg.value("repro_cache_hits_total",
                         (("cache", "l1i"), ("core", "0"))) > 0
        assert reg.value("repro_bus_grant_wait_cycles_total") > 0
        assert reg.value("repro_cpu_decode_cache_hits_total",
                         (("core", "0"),)) > 0
        span_names = {e.name for e in tracer.events}
        assert {"soc_build", "load_program",
                "cycle_loop"} <= span_names


# --- sweep metrics: schedule-independent counters ----------------------------

@pytest.mark.slow
class TestSweepMetrics:
    WORK = [(KERNEL, 0), (KERNEL, 100)]

    def _sweep_counters(self, jobs):
        reg = MetricsRegistry()
        sweep = ParallelSweep(jobs=jobs, use_cache=False, metrics=reg)
        sweep.run_cells(self.WORK, max_cycles=200_000)
        return reg

    def test_counters_identical_across_job_counts(self):
        serial = self._sweep_counters(jobs=1)
        pooled = self._sweep_counters(jobs=4)
        assert serial.counter_values() == pooled.counter_values()
        assert serial.value("repro_runner_runs_total") == 4
        assert serial.value("repro_runner_executed_total") == 4
        assert serial.value("repro_runner_simulated_cycles_total") > 0
        # Schedule-dependent telemetry lives in gauges, not counters.
        assert serial.value("repro_runner_jobs") == 1
        assert pooled.value("repro_runner_jobs") == 4
        assert 0 < serial.value("repro_runner_worker_utilization") <= 1.0
        hist = serial.get("repro_runner_run_seconds")
        assert hist.count == 4

    def test_cache_hits_counted(self, tmp_path):
        for expect_hits in (0, 4):
            reg = MetricsRegistry()
            sweep = ParallelSweep(jobs=1, cache_dir=tmp_path,
                                  metrics=reg)
            sweep.run_cells(self.WORK, max_cycles=200_000)
            assert reg.value("repro_runner_cache_hits_total") == \
                expect_hits
            assert reg.value("repro_runner_executed_total") == \
                4 - expect_hits
            assert reg.value("repro_runner_runs_total") == 4


class TestSerialFallback:
    def test_single_cpu_host_clamps_to_serial(self, monkeypatch):
        import repro.runner.executor as executor_mod
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 1)
        sweep = ParallelSweep()
        assert sweep.jobs == 1
        assert sweep.serial_fallback

    def test_multi_cpu_host_uses_all_cores(self, monkeypatch):
        import repro.runner.executor as executor_mod
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 8)
        sweep = ParallelSweep()
        assert sweep.jobs == 8
        assert not sweep.serial_fallback

    def test_explicit_jobs_never_clamped(self, monkeypatch):
        import repro.runner.executor as executor_mod
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 1)
        sweep = ParallelSweep(jobs=4)
        assert sweep.jobs == 4
        assert not sweep.serial_fallback

    def test_fallback_recorded_as_gauge(self, monkeypatch):
        import repro.runner.executor as executor_mod
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 2)
        reg = MetricsRegistry()
        sweep = ParallelSweep(use_cache=False, metrics=reg)
        sweep.run_cells([(KERNEL, 0)], max_cycles=200_000)
        assert reg.value("repro_runner_serial_fallback") == 1


# --- fault campaign metrics --------------------------------------------------

@pytest.mark.slow
def test_campaign_metrics():
    from repro.fault import run_ccf_campaign, spread_cycles
    reg = MetricsRegistry()
    tracer = Tracer()
    result = run_ccf_campaign(program(KERNEL),
                              spread_cycles(12_000, 3),
                              max_cycles=200_000, metrics=reg,
                              tracer=tracer)
    total = sum(
        reg.value("repro_fault_injections_total",
                  (("classification", cls),))
        for cls in ("masked", "detected", "silent_ccf", "hang"))
    assert total == len(result.injections) == 3
    names = [e.name for e in tracer.events]
    assert names.count("golden_run") == 1
    assert names.count("inject") == 3


# --- CLI ---------------------------------------------------------------------

class TestFormatColumns:
    def test_pads_all_but_last_column(self):
        text = format_columns([("a", "b", "long tail here"),
                               ("longer-name", "c", "x")],
                              headers=("h1", "h2", "h3"))
        lines = text.splitlines()
        assert lines[0].startswith("h1")
        assert set(lines[1]) == {"-"}
        assert lines[2].index("b") == lines[3].index("c")
        # Last column is not padded.
        assert not lines[3].endswith(" ")

    def test_empty(self):
        assert format_columns([]) == ""


@pytest.mark.slow
class TestCliTelemetry:
    def test_run_writes_metrics_and_trace(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        assert main(["run", KERNEL, "--metrics", str(metrics_path),
                     "--trace", str(trace_path)]) == 0
        doc = load_snapshot(str(metrics_path))
        assert doc["meta"]["kernel"] == KERNEL
        reg = registry_from_snapshot(doc)
        assert reg.value("repro_soc_cycles_total") > 0
        trace_doc = json.loads(trace_path.read_text())
        assert any(e["name"] == "cycle_loop"
                   for e in trace_doc["traceEvents"])

    def test_metrics_command_pretty_prints(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert main(["run", KERNEL, "--metrics", str(path)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_soc_cycles_total" in out
        assert "counter" in out
        assert "# command=run" in out

    def test_campaign_command(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        assert main(["campaign", KERNEL, "--injections", "2",
                     "--metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "injections=2" in out
        reg = registry_from_snapshot(load_snapshot(str(path)))
        assert reg.value("repro_fault_injections_total",
                         (("classification", "masked"),)) is not None


def test_default_time_buckets_sorted():
    assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)
