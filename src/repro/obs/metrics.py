"""Typed in-process metric aggregates: Counter, Gauge, Histogram.

Metrics are cheap running aggregates, not event streams: a counter is one
integer, a histogram is a handful of bucket counts.  Every metric can
:meth:`snapshot` itself into a plain dict (JSON-serializable, picklable)
and :meth:`merge` a snapshot back in, which is how worker processes ship
their tallies to the parent (see :meth:`repro.obs.trace.Tracer.capture`).

A :class:`MetricRegistry` names metrics and creates them on first use.
The tracer owns one; so does every long-lived service component (worker
pool, result store, design cache, job queue, daemon), which updates its
own through :func:`repro.obs.trace.count` / :func:`~repro.obs.trace.observe`
— those also mirror the update into the tracer's registry while tracing.
When tracing is disabled, the module-level accessors in
:mod:`repro.obs.trace` hand out the shared no-op instances below instead,
so instrumented code never branches on "is telemetry on?" itself.
"""

from __future__ import annotations

import collections
from bisect import bisect_right
from typing import Any, Dict, Mapping, Tuple

from repro.errors import ReproError

#: Default histogram bucket upper bounds (seconds-oriented log scale).
#: Observations above the last bound land in the open overflow bucket.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0,
)


class Counter:
    """A monotonically growing tally."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increase the tally by ``amount``."""
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def merge(self, snap: Mapping[str, Any]) -> None:
        self.value += snap["value"]


class Gauge:
    """A last-written value (e.g. a queue depth, a configuration knob)."""

    __slots__ = ("value", "updates")
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value
        self.updates += 1

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value, "updates": self.updates}

    def merge(self, snap: Mapping[str, Any]) -> None:
        # A merged snapshot that was never written must not clobber a live
        # local value; otherwise the incoming (later) value wins.
        if snap.get("updates"):
            self.value = snap["value"]
            self.updates += snap["updates"]


class Histogram:
    """Count/total/min/max plus fixed log-scale buckets.

    Buckets are cumulative-free: ``buckets[i]`` counts observations with
    ``value <= bounds[i]`` (and above the previous bound); the final slot
    is the overflow bucket.
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "bounds")
    kind = "histogram"

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[bisect_right(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        """Average observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": list(self.buckets),
            "bounds": list(self.bounds),
        }

    def merge(self, snap: Mapping[str, Any]) -> None:
        if tuple(snap["bounds"]) != self.bounds:
            raise ReproError("cannot merge histograms with different bounds")
        if not snap["count"]:
            return
        if not self.count:
            self.min = snap["min"]
            self.max = snap["max"]
        else:
            self.min = min(self.min, snap["min"])
            self.max = max(self.max, snap["max"])
        self.count += snap["count"]
        self.total += snap["total"]
        for index, bucket in enumerate(snap["buckets"]):
            self.buckets[index] += bucket


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricRegistry:
    """Named metrics, created on first use, snapshot/merge as one unit."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self):
        """Registered metric names in insertion order."""
        return list(self._metrics)

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls()
        elif not isinstance(metric, cls):
            raise ReproError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        return self._get(name, Histogram)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict (picklable) state of every metric."""
        # list(): a snapshot may race with another thread's first update.
        return {
            name: metric.snapshot() for name, metric in list(self._metrics.items())
        }

    def merge(self, snapshot: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this
        registry, creating metrics that only the snapshot knows about."""
        for name, snap in snapshot.items():
            kind = snap.get("kind")
            cls = _KINDS.get(kind)
            if cls is None:
                raise ReproError(f"unknown metric kind {kind!r} for {name!r}")
            self._get(name, cls).merge(snap)


def counter_values(
    snapshot: Mapping[str, Mapping[str, Any]]
) -> "collections.Counter[str]":
    """Counter values by name from a :meth:`MetricRegistry.snapshot`
    (names never counted read as 0)."""
    return collections.Counter({
        name: snap["value"]
        for name, snap in snapshot.items()
        if snap.get("kind") == "counter"
    })


class _NullCounter:
    """Shared do-nothing counter handed out while tracing is disabled."""

    __slots__ = ()
    value = 0

    def add(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    count = 0

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "DEFAULT_BOUNDS",
    "counter_values",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]
