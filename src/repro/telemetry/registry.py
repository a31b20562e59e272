"""Metric primitives: counters, gauges, fixed-bucket histograms.

The registry is built for a pure-Python cycle simulator, so the two
operating points are asymmetric by design:

* **disabled** (the default everywhere) — instrumented code holds a
  reference to :data:`NULL_REGISTRY` / :data:`NULL_METRIC` or simply
  ``None``; the hot cycle loop pays at most one ``is not None`` check
  per cycle and no metric object is ever allocated;
* **enabled** — metrics are plain ``__slots__`` objects whose update
  methods touch one attribute (``value += amount``), and the registry
  is a dict keyed by ``(name, labels)`` so re-registering returns the
  same slot.

Metric names follow the repo-wide scheme ``repro_<layer>_<name>``
(layers: ``monitor``, ``cpu``, ``cache``, ``bus``, ``storebuf``,
``soc``, ``engine``, ``scheme``, ``runner``, ``fault``,
``montecarlo``, ``checkpoint``, ``trace``, ``replay``, ``lint``);
counters additionally end in ``_total``, following Prometheus
conventions.  The registry enforces the ``repro_<layer>_<name>`` shape
so snapshots from different tools stay mergeable.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Accepted metric names: ``repro_<layer>_<name>``.
_NAME_RE = re.compile(r"^repro_[a-z0-9]+_[a-z0-9_]+$")

#: Label sets are canonicalized to a sorted tuple of (key, value) pairs.
Labels = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds) for wall-time histograms.
DEFAULT_TIME_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5,
                        1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


def canonical_labels(labels) -> Labels:
    """Normalize a labels mapping/iterable to the canonical tuple form."""
    if not labels:
        return ()
    if isinstance(labels, dict):
        items = labels.items()
    else:
        items = labels
    return tuple(sorted((str(k), str(v)) for k, v in items))


class Counter:
    """Monotonic counter (dict-slot based: one attribute add)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1):
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount


class Histogram:
    """Fixed-bucket histogram (cumulative on export, like Prometheus).

    ``buckets`` are the finite upper bounds; observations above the
    last bound land in the implicit ``+Inf`` bucket.  ``counts`` stores
    *per-bucket* (non-cumulative) tallies internally.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float],
                 labels: Labels = ()):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and "
                             "non-empty: %r" % (buckets,))
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value):
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Cumulative per-bucket counts, ``+Inf`` last (== count)."""
        out = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class _NullMetric:
    """Shared do-nothing metric: every update is a no-op."""

    __slots__ = ()
    kind = "null"

    def inc(self, amount=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass


#: The shared no-op metric instance.
NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Named metric store; re-registration returns the existing slot."""

    enabled = True

    def __init__(self):
        self._metrics: Dict[Tuple[str, Labels], object] = {}

    # -- registration ---------------------------------------------------

    def _get(self, cls, name: str, labels, *args):
        if not _NAME_RE.match(name):
            raise ValueError(
                "metric name %r does not follow repro_<layer>_<name>"
                % name)
        key = (name, canonical_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, *args,
                                              labels=key[1])
        elif not isinstance(metric, cls):
            raise ValueError("metric %r already registered as %s"
                             % (name, metric.kind))
        return metric

    def counter(self, name: str, labels=()) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels=()) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
                  labels=()) -> Histogram:
        return self._get(Histogram, name, labels, buckets)

    # -- introspection --------------------------------------------------

    def metrics(self) -> List[object]:
        """All metrics, sorted by (name, labels) for stable exports."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def get(self, name: str, labels=()) -> Optional[object]:
        return self._metrics.get((name, canonical_labels(labels)))

    def value(self, name: str, labels=(), default=None):
        """Convenience: the scalar value of a counter/gauge."""
        metric = self.get(name, labels)
        if metric is None:
            return default
        return metric.value

    def counter_values(self) -> Dict[Tuple[str, Labels], int]:
        """All counter samples, keyed by (name, labels).

        This is the deterministic surface: counters must merge to the
        same values whatever the execution schedule was (the sweep
        determinism test compares exactly this map).
        """
        return {key: m.value for key, m in sorted(self._metrics.items())
                if isinstance(m, Counter)}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterable[object]:
        return iter(self.metrics())


class NullRegistry:
    """Registry stand-in whose metrics never record anything.

    Instrumented code can unconditionally call
    ``registry.counter(...).inc()`` against this object; everything
    resolves to the shared :data:`NULL_METRIC`.
    """

    enabled = False

    def counter(self, name: str, labels=()):
        return NULL_METRIC

    def gauge(self, name: str, labels=()):
        return NULL_METRIC

    def histogram(self, name: str, buckets=DEFAULT_TIME_BUCKETS,
                  labels=()):
        return NULL_METRIC

    def metrics(self) -> List[object]:
        return []

    def get(self, name: str, labels=()):
        return None

    def value(self, name: str, labels=(), default=None):
        return default

    def counter_values(self):
        return {}

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())


#: The shared disabled registry.
NULL_REGISTRY = NullRegistry()
