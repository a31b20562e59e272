"""Bridges from simulator state to the metrics registry.

Each layer's stats dataclass knows how to pour itself into a registry
(``to_metrics``); this module owns the cross-layer orchestration — the
label scheme (``core``, ``cache``, ``pair``) and the gauges that are
derived from live object state rather than accumulated counters (FIFO
occupancy, IPC, resident cache lines).

Collection is an end-of-run activity: everything, the monitor's
verdict counters included, is folded out of the stats objects the
simulator already maintains, so telemetry never reaches the cycle loop
and never adds a second set of per-cycle bookkeeping.
"""

from __future__ import annotations

from .registry import MetricsRegistry


def _core_labels(core_id: int):
    return (("core", str(core_id)),)


def collect_core(core, registry: MetricsRegistry):
    """Fold one core's pipeline, cache, and store-buffer state."""
    labels = _core_labels(core.core_id)
    core.stats.to_metrics(registry, labels=labels)
    registry.gauge("repro_cpu_ipc", labels).set(core.stats.ipc)
    for cache in (core.icache, core.dcache):
        cache_labels = labels + (("cache", cache.config.name),)
        cache.stats.to_metrics(registry, labels=cache_labels)
        registry.gauge("repro_cache_resident_lines",
                       cache_labels).set(cache.resident_lines())
    core.store_buffer.stats.to_metrics(registry, labels=labels)
    registry.gauge("repro_storebuf_occupancy",
                   labels).set(core.store_buffer.occupancy)


def collect_bus(bus, registry: MetricsRegistry):
    """Fold the AHB arbiter and shared-L2 state."""
    bus.stats.to_metrics(registry)
    l2_labels = (("cache", bus.l2.config.name),)
    bus.l2.stats.to_metrics(registry, labels=l2_labels)
    registry.gauge("repro_cache_resident_lines",
                   l2_labels).set(bus.l2.resident_lines())
    registry.gauge("repro_bus_pending_requests",
                   ()).set(bus.pending_requests())


def collect_monitor(monitor, registry: MetricsRegistry, pair: int = 0):
    """Fold one SafeDM instance's verdicts and signature-unit state.

    Verdict counters are bridged from :class:`MonitorStats`, the
    counters the OS polls over APB, so a fresh run, a resumed one and
    either tier report the same totals.
    """
    labels = (("pair", str(pair)),)
    monitor.stats.to_metrics(registry, labels=labels)
    registry.counter("repro_monitor_interrupts_total",
                     labels).value = monitor.stats.interrupts_raised
    registry.gauge("repro_monitor_staggering",
                   labels).set(monitor.instruction_diff.diff)

    for side, (ds, is_unit) in enumerate(zip(monitor.ds_units,
                                             monitor.is_units)):
        unit_labels = labels + (("core", str(side)),)
        registry.gauge("repro_monitor_ds_fifo_occupancy",
                       unit_labels).set(ds.config.ds_depth
                                        if ds.config.sample_every_cycle
                                        else sum(len(f)
                                                 for f in ds._fifos))
        live = sum(1 for item in is_unit.signature()
                   if (item[0] if isinstance(item, tuple) else item))
        registry.gauge("repro_monitor_is_live_slots",
                       unit_labels).set(live)


def collect_lint(report, registry: MetricsRegistry):
    """Fold one :class:`~repro.lint.engine.LintReport` into ``registry``.

    Diagnostics are counted per rule code and severity; suppressed
    findings get their own counter so ``# lint: disable=`` comments
    stay visible in dashboards.
    """
    labels = (("kernel", report.name),)
    registry.counter("repro_lint_programs_total").inc()
    registry.gauge("repro_lint_blocks", labels).set(report.block_count)
    registry.gauge("repro_lint_instructions",
                   labels).set(report.instr_count)
    for diag in report.diagnostics:
        registry.counter(
            "repro_lint_diagnostics_total",
            (("code", diag.code), ("severity", diag.severity))).inc()
    for diag in report.suppressed:
        registry.counter("repro_lint_suppressed_total",
                         (("code", diag.code),)).inc()


def collect_soc(soc, registry: MetricsRegistry):
    """Fold a finished (or paused) MPSoC into ``registry``."""
    registry.counter("repro_soc_cycles_total").value = soc.cycle
    for core in soc.cores:
        collect_core(core, registry)
    collect_bus(soc.bus, registry)
    for pair, monitor in enumerate(soc.monitors):
        collect_monitor(monitor, registry, pair=pair)
    engine_stats = getattr(soc, "engine_stats", None)
    if engine_stats is not None:
        engine_stats.to_metrics(registry)
