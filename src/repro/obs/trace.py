"""Hierarchical span tracing with a disabled-mode no-op fast path.

One process-global :class:`Tracer` (reachable through the module-level
functions) produces nested :class:`Span` records: name, attributes,
monotonic start/duration and parent span id.  The current span is tracked
per thread, so ``with span(...)`` nests correctly across threads without
any caller bookkeeping.

Design constraints, in order:

1. **Disabled is free.**  ``span()`` returns the shared :data:`NULL_SPAN`
   singleton after a single attribute check; nothing is allocated, no
   clock is read.  Instrumentation can therefore live inside kernels.
2. **Telemetry never changes results.**  Nothing here feeds back into the
   algorithms or the content fingerprints; enabling tracing is observably
   a no-op apart from the trace itself (regression-tested).
3. **Works across process boundaries.**  Worker processes wrap their work
   in :meth:`Tracer.capture` and ship plain-dict spans/metric snapshots
   back; the parent re-parents them under its own task span with
   :meth:`Tracer.adopt` (see :mod:`repro.service.pool`).

The one monotonic clock of the codebase is :func:`clock`;
:class:`repro.utils.timer.Timer` wraps it too, so every reported duration
comes from the same time source.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    MetricRegistry,
)


def clock() -> float:
    """The codebase's monotonic clock (fractional seconds)."""
    return time.perf_counter()


def _new_span_id() -> str:
    # Random ids (not a counter) so ids stay unique across worker
    # processes whose spans are merged into one trace.
    return uuid.uuid4().hex[:16]


class Span:
    """One traced unit of work; a context manager.

    Entering records the start time and pushes the span onto the calling
    thread's context stack (setting ``parent_id`` from the previous top);
    exiting computes the duration, pops the stack and hands the finished
    record to the tracer's sinks.
    """

    __slots__ = ("name", "span_id", "parent_id", "attrs", "start", "duration", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = _new_span_id()
        self.parent_id: Optional[str] = None
        self.start = 0.0
        self.duration = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach or overwrite attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def add(self, key: str, amount: float = 1) -> "Span":
        """Increment the numeric attribute ``key`` (created at 0)."""
        self.attrs[key] = self.attrs.get(key, 0) + amount
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self.start = clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = clock() - self.start
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._finish(self.to_dict())
        return False

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the JSONL record)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "pid": os.getpid(),
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    span_id = None
    parent_id = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def add(self, key: str, amount: float = 1) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class JsonlSink:
    """Writes each finished span as one compact JSON line."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "w")

    def emit(self, span_dict: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(span_dict, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class Capture:
    """Spans and metric snapshots collected by :meth:`Tracer.capture`."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.metrics: Dict[str, Dict[str, Any]] = {}


_CURRENT = object()  # sentinel: "parent under the calling thread's span"


class Tracer:
    """Produces spans and owns the in-memory collector + optional sink."""

    def __init__(self) -> None:
        self.enabled = False
        self.metrics = MetricRegistry()
        self._sink: Optional[JsonlSink] = None
        self._spans: List[Dict[str, Any]] = []
        self._local = threading.local()

    # -- internal ------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, span_dict: Dict[str, Any]) -> None:
        self._spans.append(span_dict)
        if self._sink is not None:
            self._sink.emit(span_dict)

    # -- lifecycle -----------------------------------------------------
    def enable(self, jsonl_path: Optional[str] = None) -> None:
        """Start a fresh trace; optionally stream spans to ``jsonl_path``."""
        if self._sink is not None:
            self._sink.close()
        self._spans = []
        self.metrics = MetricRegistry()
        self._local = threading.local()
        self._sink = JsonlSink(jsonl_path) if jsonl_path else None
        self.enabled = True

    def disable(self) -> None:
        """Stop tracing and close the sink (collected spans are retained
        until the next :meth:`enable`)."""
        self.enabled = False
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    # -- span creation -------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """A context-managed span, or :data:`NULL_SPAN` when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def record(
        self,
        name: str,
        duration: float,
        parent_id: Any = _CURRENT,
        start: float = 0.0,
        **attrs: Any,
    ) -> Optional[str]:
        """Emit an already-measured span and return its id.

        For work whose lifetime does not nest in the calling frame (e.g.
        overlapping pool tasks measured by their futures).  ``parent_id``
        defaults to the calling thread's current span.
        """
        if not self.enabled:
            return None
        if parent_id is _CURRENT:
            stack = self._stack()
            parent_id = stack[-1].span_id if stack else None
        span_dict = {
            "name": name,
            "span_id": _new_span_id(),
            "parent_id": parent_id,
            "start": start,
            "duration": duration,
            "pid": os.getpid(),
            "attrs": attrs,
        }
        self._finish(span_dict)
        return span_dict["span_id"]

    def adopt(
        self, span_dicts: Iterable[Dict[str, Any]], parent_id: Optional[str]
    ) -> None:
        """Ingest spans captured elsewhere (a worker process), re-parenting
        their roots — spans whose parent is not in the shipped set — under
        ``parent_id``."""
        if not self.enabled:
            return
        span_dicts = list(span_dicts)
        local_ids = {d["span_id"] for d in span_dicts}
        for span_dict in span_dicts:
            if span_dict.get("parent_id") not in local_ids:
                span_dict = dict(span_dict)
                span_dict["parent_id"] = parent_id
            self._finish(span_dict)

    def merge_metrics(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold a worker's metric snapshot into this tracer's registry."""
        if not self.enabled:
            return
        self.metrics.merge(snapshot)

    def finished_spans(self) -> List[Dict[str, Any]]:
        """All spans finished since the last :meth:`enable` (copy)."""
        return list(self._spans)

    @contextmanager
    def capture(self):
        """Collect spans/metrics into a :class:`Capture`, isolated from —
        and restoring — whatever tracing state was active before.

        Worker processes use this so their telemetry travels back as data
        instead of being written to a sink they do not own.
        """
        saved = (self.enabled, self.metrics, self._spans, self._sink, self._local)
        self.enabled = True
        self.metrics = MetricRegistry()
        self._spans = []
        self._sink = None
        self._local = threading.local()
        result = Capture()
        try:
            yield result
        finally:
            result.spans = self._spans
            result.metrics = self.metrics.snapshot()
            (self.enabled, self.metrics, self._spans, self._sink, self._local) = saved


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def enabled() -> bool:
    """True while the global tracer is collecting."""
    return _TRACER.enabled


def enable(jsonl_path: Optional[str] = None) -> None:
    """Enable the global tracer (fresh trace; optional JSONL sink)."""
    _TRACER.enable(jsonl_path)


def disable() -> None:
    """Disable the global tracer and close its sink."""
    _TRACER.disable()


def span(name: str, **attrs: Any):
    """A span on the global tracer (:data:`NULL_SPAN` when disabled)."""
    return _TRACER.span(name, **attrs)


def record(
    name: str,
    duration: float,
    parent_id: Any = _CURRENT,
    start: float = 0.0,
    **attrs: Any,
) -> Optional[str]:
    """Emit an already-measured span on the global tracer."""
    return _TRACER.record(name, duration, parent_id=parent_id, start=start, **attrs)


def counter(name: str):
    """The named global counter (shared no-op instance when disabled)."""
    if not _TRACER.enabled:
        return NULL_COUNTER
    return _TRACER.metrics.counter(name)


def gauge(name: str):
    """The named global gauge (shared no-op instance when disabled)."""
    if not _TRACER.enabled:
        return NULL_GAUGE
    return _TRACER.metrics.gauge(name)


def histogram(name: str):
    """The named global histogram (shared no-op instance when disabled)."""
    if not _TRACER.enabled:
        return NULL_HISTOGRAM
    return _TRACER.metrics.histogram(name)


# Component registries are updated from several threads (the daemon's
# connection and scheduler threads); metric updates are read-modify-write.
_UPDATE_LOCK = threading.Lock()


def count(metrics: MetricRegistry, name: str, amount: int = 1) -> None:
    """Add ``amount`` to counter ``name`` of a component's own registry
    and, while tracing, to the tracer's, so run reports see it too."""
    with _UPDATE_LOCK:
        metrics.counter(name).add(amount)
        if _TRACER.enabled:
            _TRACER.metrics.counter(name).add(amount)


def observe(metrics: MetricRegistry, name: str, value: float) -> None:
    """:func:`count` for histograms: record ``value`` in both registries."""
    with _UPDATE_LOCK:
        metrics.histogram(name).observe(value)
        if _TRACER.enabled:
            _TRACER.metrics.histogram(name).observe(value)


__all__ = [
    "Capture",
    "JsonlSink",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "clock",
    "count",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_tracer",
    "histogram",
    "observe",
    "record",
    "span",
]
