"""Registry exports: Prometheus text exposition and JSON snapshots.

Two formats, one source of truth:

* :func:`to_prometheus` — the Prometheus text exposition format
  (``# TYPE`` headers, ``name{label="v"} value`` samples, histograms
  as cumulative ``_bucket``/``_sum``/``_count`` series);
* :func:`snapshot` / :func:`write_snapshot` — a JSON document keeping
  the structured (non-cumulative) metric state, loadable back into a
  registry with :func:`registry_from_snapshot`.

Round-trip property (tested): ``snapshot -> registry_from_snapshot ->
snapshot`` is the identity, and the Prometheus rendering of both
registries is byte-identical.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .registry import (
    Histogram,
    Labels,
    MetricsRegistry,
    canonical_labels,
)

#: Bumped when the snapshot JSON layout changes.
SNAPSHOT_SCHEMA_VERSION = 1


def _label_str(labels: Labels, extra: Tuple[Tuple[str, str], ...] = ()
               ) -> str:
    pairs = tuple(labels) + tuple(extra)
    if not pairs:
        return ""
    return "{%s}" % ",".join('%s="%s"' % (k, v) for k, v in pairs)


def _format_value(value) -> str:
    if isinstance(value, float):
        if value == float("inf"):
            return "+Inf"
        return repr(value)
    return str(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render ``registry`` in the Prometheus text exposition format."""
    lines: List[str] = []
    seen_type = set()
    for metric in registry.metrics():
        if metric.name not in seen_type:
            seen_type.add(metric.name)
            lines.append("# TYPE %s %s" % (metric.name, metric.kind))
        if isinstance(metric, Histogram):
            cumulative = metric.cumulative_counts()
            bounds = [_format_value(b) for b in metric.buckets]
            bounds.append("+Inf")
            for bound, count in zip(bounds, cumulative):
                lines.append("%s_bucket%s %d" % (
                    metric.name,
                    _label_str(metric.labels, (("le", bound),)),
                    count))
            lines.append("%s_sum%s %s" % (
                metric.name, _label_str(metric.labels),
                _format_value(metric.sum)))
            lines.append("%s_count%s %d" % (
                metric.name, _label_str(metric.labels), metric.count))
        else:
            lines.append("%s%s %s" % (metric.name,
                                      _label_str(metric.labels),
                                      _format_value(metric.value)))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse exposition-format samples back to ``{sample_key: value}``.

    The key is the literal ``name{labels}`` sample string, so the
    mapping is exactly what a Prometheus scraper would ingest.  Used by
    the round-trip tests; not a general-purpose parser.
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples


# -- JSON snapshots -----------------------------------------------------------


def snapshot(registry: MetricsRegistry, meta: dict = None) -> dict:
    """Structured JSON-serializable dump of every metric."""
    metrics = []
    for metric in registry.metrics():
        entry = {
            "name": metric.name,
            "kind": metric.kind,
            "labels": {k: v for k, v in metric.labels},
        }
        if isinstance(metric, Histogram):
            entry["buckets"] = list(metric.buckets)
            entry["counts"] = list(metric.counts)
            entry["sum"] = metric.sum
            entry["count"] = metric.count
        else:
            entry["value"] = metric.value
        metrics.append(entry)
    doc = {"schema": SNAPSHOT_SCHEMA_VERSION, "metrics": metrics}
    if meta:
        doc["meta"] = dict(meta)
    return doc


def write_snapshot(registry: MetricsRegistry, path: str,
                   meta: dict = None):
    """Write :func:`snapshot` as pretty-printed JSON."""
    with open(path, "w") as handle:
        json.dump(snapshot(registry, meta=meta), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")


def load_snapshot(path: str) -> dict:
    """Read a snapshot document written by :func:`write_snapshot`."""
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError("not a telemetry snapshot (expected a JSON "
                         "object)")
    if doc.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        raise ValueError("unsupported snapshot schema %r"
                         % doc.get("schema"))
    return doc


def registry_from_snapshot(doc: dict) -> MetricsRegistry:
    """Rebuild a live registry from a snapshot document."""
    registry = MetricsRegistry()
    for entry in doc.get("metrics", ()):
        labels = canonical_labels(entry.get("labels", {}))
        kind = entry["kind"]
        if kind == "counter":
            registry.counter(entry["name"], labels).value = entry["value"]
        elif kind == "gauge":
            registry.gauge(entry["name"], labels).value = entry["value"]
        elif kind == "histogram":
            hist = registry.histogram(entry["name"],
                                      buckets=entry["buckets"],
                                      labels=labels)
            hist.counts = list(entry["counts"])
            hist.sum = entry["sum"]
            hist.count = entry["count"]
        else:
            raise ValueError("unknown metric kind %r" % kind)
    return registry


def snapshot_rows(doc: dict) -> List[Tuple[str, str, str]]:
    """Flatten a snapshot into (metric, kind, value) display rows.

    Histograms render as ``count/sum`` plus a compact bucket sketch;
    the CLI's ``repro metrics`` command feeds these rows through the
    shared table formatter.
    """
    rows = []
    for entry in doc.get("metrics", ()):
        name = entry["name"] + _label_str(
            canonical_labels(entry.get("labels", {})))
        if entry["kind"] == "histogram":
            value = "count=%d sum=%.6g" % (entry["count"], entry["sum"])
        else:
            value = _format_value(entry["value"])
        rows.append((name, entry["kind"], value))
    return rows
