"""RunReport: the aggregated, human- and machine-readable view of a trace.

A trace is a flat list of span dicts (see :class:`repro.obs.trace.Span`)
plus a metric snapshot.  :class:`RunReport` turns that into:

* :meth:`tree` — spans grouped by name along parent/child paths, with
  call counts, cumulative and *self* time (cumulative minus direct
  children) per node;
* :meth:`phase_totals` — the same aggregation flattened by span name,
  which is what benchmark records embed as their per-phase breakdown;
* :meth:`summary` — the renderable profile (span tree + counter totals)
  printed by the CLI's ``--profile`` flag.

Spans merged from worker processes carry per-process clocks, so only
durations — never raw ``start`` values — are compared across spans.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ReproError
from repro.obs.metrics import counter_values


class RunReport:
    """Aggregates one finished trace (spans + metrics)."""

    def __init__(
        self,
        spans: Sequence[Dict[str, Any]],
        metrics: Optional[Mapping[str, Mapping[str, Any]]] = None,
    ) -> None:
        self.spans = list(spans)
        self.metrics = {name: dict(snap) for name, snap in (metrics or {}).items()}

    # -- constructors --------------------------------------------------
    @classmethod
    def from_tracer(cls, tracer=None) -> "RunReport":
        """Build from a tracer's collected spans and metrics (the global
        tracer by default)."""
        from repro.obs import trace

        tracer = tracer or trace.get_tracer()
        return cls(tracer.finished_spans(), tracer.metrics.snapshot())

    @classmethod
    def from_jsonl(cls, path: str) -> "RunReport":
        """Build from a ``--trace`` JSONL file (spans only, no metrics)."""
        spans = []
        try:
            with open(path) as handle:
                for line_no, line in enumerate(handle, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        spans.append(json.loads(line))
                    except json.JSONDecodeError as error:
                        raise ReproError(
                            f"bad trace line {line_no} in {path}: {error}"
                        ) from error
        except OSError as error:
            raise ReproError(f"cannot read trace file {path}: {error}") from error
        return cls(spans)

    # -- aggregation ---------------------------------------------------
    def _children_map(self) -> Dict[Optional[str], List[Dict[str, Any]]]:
        known = {span["span_id"] for span in self.spans}
        children: Dict[Optional[str], List[Dict[str, Any]]] = {}
        for span in self.spans:
            parent = span.get("parent_id")
            if parent not in known:
                parent = None  # orphans (partial traces) become roots
            children.setdefault(parent, []).append(span)
        return children

    def tree(self) -> List[Dict[str, Any]]:
        """Aggregated span tree: siblings sharing a name merge into one
        node with ``count``/``total_s``/``self_s`` and nested children."""
        children = self._children_map()

        def aggregate(level: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
            groups: Dict[str, List[Dict[str, Any]]] = {}
            for span in level:
                groups.setdefault(span["name"], []).append(span)
            nodes = []
            for name, members in groups.items():
                total = sum(span["duration"] for span in members)
                child_spans = [
                    child
                    for span in members
                    for child in children.get(span["span_id"], ())
                ]
                child_nodes = aggregate(child_spans)
                child_total = sum(node["total_s"] for node in child_nodes)
                nodes.append(
                    {
                        "name": name,
                        "count": len(members),
                        "total_s": total,
                        "self_s": max(0.0, total - child_total),
                        "children": child_nodes,
                    }
                )
            nodes.sort(key=lambda node: -node["total_s"])
            return nodes

        return aggregate(children.get(None, []))

    def phase_totals(self) -> Dict[str, Dict[str, Any]]:
        """Per-span-name totals: call count, cumulative and self seconds.

        Self time subtracts only *direct* children, so parent names keep
        their own bookkeeping cost while nested phases attribute cleanly.
        """
        children = self._children_map()
        totals: Dict[str, Dict[str, Any]] = {}
        for span in self.spans:
            child_total = sum(
                child["duration"] for child in children.get(span["span_id"], ())
            )
            entry = totals.setdefault(
                span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += span["duration"]
            entry["self_s"] += max(0.0, span["duration"] - child_total)
        return totals

    def counters(self) -> Dict[str, int]:
        """Counter totals by name (the run's counter set)."""
        return counter_values(self.metrics)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable aggregate (what benchmark records embed)."""
        return {
            "num_spans": len(self.spans),
            "tree": self.tree(),
            "phases": self.phase_totals(),
            "metrics": self.metrics,
        }

    # -- rendering -----------------------------------------------------
    def summary(self) -> str:
        """The human profile: span tree, then counters, then histograms."""
        lines: List[str] = []
        rows: List[tuple] = []

        def walk(nodes: List[Dict[str, Any]], depth: int) -> None:
            for node in nodes:
                rows.append(
                    (
                        "  " * depth + node["name"],
                        node["count"],
                        node["self_s"],
                        node["total_s"],
                    )
                )
                walk(node["children"], depth + 1)

        walk(self.tree(), 0)
        if rows:
            width = max(len("span"), max(len(row[0]) for row in rows))
            lines.append(
                f"{'span':<{width}}  {'count':>7}  {'self(s)':>10}  {'total(s)':>10}"
            )
            for name, count, self_s, total_s in rows:
                lines.append(
                    f"{name:<{width}}  {count:>7}  {self_s:>10.3f}  {total_s:>10.3f}"
                )
        else:
            lines.append("(no spans recorded)")

        counters = counter_values(self.metrics)
        if counters:
            lines.append("counters:")
            for name in sorted(counters):
                lines.append(f"  {name} = {counters[name]}")
        histograms = {
            name: snap
            for name, snap in self.metrics.items()
            if snap.get("kind") == "histogram" and snap.get("count")
        }
        if histograms:
            lines.append("histograms:")
            for name in sorted(histograms):
                snap = histograms[name]
                mean = snap["total"] / snap["count"]
                lines.append(
                    f"  {name}: n={snap['count']} mean={mean:.6f}s "
                    f"min={snap['min']:.6f}s max={snap['max']:.6f}s"
                )
        gauges = {
            name: snap
            for name, snap in self.metrics.items()
            if snap.get("kind") == "gauge" and snap.get("updates")
        }
        if gauges:
            lines.append("gauges:")
            for name in sorted(gauges):
                lines.append(f"  {name} = {gauges[name]['value']}")
        return "\n".join(lines)


__all__ = ["RunReport"]
