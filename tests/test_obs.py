"""Tests of the observability layer (:mod:`repro.obs`).

The load-bearing invariants:

* disabled tracing is a no-op (shared null singletons, nothing collected);
* spans nest and parent correctly, including across the WorkerPool's
  process boundary (worker spans re-parented under the task span);
* the JSONL sink round-trips through :class:`RunReport`;
* enabling tracing changes neither detection reports nor fingerprints.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading

import pytest

from repro.errors import ReproError
from repro.finder import FinderConfig, TangledLogicFinder, find_tangled_logic
from repro.generators.random_gtl import planted_gtl_graph
from repro.obs import RunReport, configure_logging, trace
from repro.obs.lint import check_source, run as lint_run
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    counter_values,
)
from repro.obs.trace import NULL_SPAN
from repro.service import ResultStore, WorkerPool, job_fingerprint

CFG = FinderConfig(num_seeds=6, seed=3)


@pytest.fixture(autouse=True)
def _reset_tracer():
    """Every test starts and ends with the global tracer disabled."""
    trace.disable()
    yield
    trace.disable()


@pytest.fixture(scope="module")
def small():
    netlist, truth = planted_gtl_graph(800, [60], seed=5)
    return netlist, truth


# ----------------------------------------------------------------------
# Core tracer
# ----------------------------------------------------------------------
def test_disabled_tracing_is_a_shared_noop():
    assert not trace.enabled()
    assert trace.span("anything", key=1) is NULL_SPAN
    assert trace.counter("c") is NULL_COUNTER
    assert trace.gauge("g") is NULL_GAUGE
    assert trace.histogram("h") is NULL_HISTOGRAM
    with trace.span("outer") as outer:
        assert outer is NULL_SPAN
        assert outer.set(a=1) is NULL_SPAN and outer.add("n") is NULL_SPAN
    NULL_COUNTER.add(5)
    NULL_GAUGE.set(3.0)
    NULL_HISTOGRAM.observe(0.1)
    assert trace.record("late", duration=1.0) is None
    assert trace.get_tracer().finished_spans() == []
    assert len(trace.get_tracer().metrics) == 0


def test_span_nesting_parentage_and_error_attr():
    trace.enable()
    with pytest.raises(ValueError):
        with trace.span("outer", design="d") as outer:
            with trace.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                inner.set(cells=7).add("steps", 2).add("steps")
            raise ValueError("boom")
    spans = {s["name"]: s for s in trace.get_tracer().finished_spans()}
    assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
    assert spans["outer"]["parent_id"] is None
    assert spans["inner"]["attrs"] == {"cells": 7, "steps": 3}
    assert spans["outer"]["attrs"]["error"] == "ValueError"
    assert spans["outer"]["duration"] >= spans["inner"]["duration"] >= 0.0
    assert spans["outer"]["pid"] == os.getpid()


def test_record_and_adopt_reparent_worker_roots():
    trace.enable()
    task_id = trace.record("pool.task", duration=1.5, jobs=3)
    worker = [
        {"name": "w.root", "span_id": "w1", "parent_id": "gone", "start": 0.0,
         "duration": 0.5, "pid": 1, "attrs": {}},
        {"name": "w.child", "span_id": "w2", "parent_id": "w1", "start": 0.0,
         "duration": 0.2, "pid": 1, "attrs": {}},
    ]
    trace.get_tracer().adopt(worker, parent_id=task_id)
    spans = {s["span_id"]: s for s in trace.get_tracer().finished_spans()}
    # The worker's root hangs under the task span; internal links survive.
    assert spans["w1"]["parent_id"] == task_id
    assert spans["w2"]["parent_id"] == "w1"


def test_capture_isolates_and_restores_tracer_state():
    trace.enable()
    tracer = trace.get_tracer()
    with trace.span("outer") as outer:
        with tracer.capture() as captured:
            with tracer.span("worker.span") as inner:
                assert inner.parent_id is None  # fresh context inside capture
            tracer.metrics.counter("worker.items").add(4)
        with trace.span("after") as after:
            assert after.parent_id == outer.span_id  # context restored
    assert [s["name"] for s in captured.spans] == ["worker.span"]
    assert captured.metrics["worker.items"]["value"] == 4
    names = [s["name"] for s in tracer.finished_spans()]
    assert "worker.span" not in names and "outer" in names
    assert len(tracer.metrics) == 0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_metric_snapshot_merge_round_trip():
    a, b = MetricRegistry(), MetricRegistry()
    a.counter("n").add(3)
    a.gauge("depth").set(5.0)
    a.histogram("lat").observe(0.02)
    b.counter("n").add(4)
    b.histogram("lat").observe(2.5)
    b.merge(a.snapshot())
    assert b.counter("n").value == 7
    assert b.gauge("depth").value == 5.0
    lat = b.histogram("lat")
    assert lat.count == 2 and lat.min == 0.02 and lat.max == 2.5
    assert lat.mean == pytest.approx((0.02 + 2.5) / 2)


def test_gauge_merge_ignores_never_written_snapshots():
    g = Gauge()
    g.set(9.0)
    g.merge(Gauge().snapshot())  # zero updates: must not clobber
    assert g.value == 9.0
    written = Gauge()
    written.set(2.0)
    g.merge(written.snapshot())
    assert g.value == 2.0 and g.updates == 2


def test_metric_registry_rejects_kind_conflicts_and_bad_merges():
    reg = MetricRegistry()
    reg.counter("x")
    with pytest.raises(ReproError):
        reg.gauge("x")
    with pytest.raises(ReproError):
        reg.merge({"y": {"kind": "nope", "value": 1}})
    h = Histogram(bounds=(1.0, 2.0))
    with pytest.raises(ReproError):
        h.merge(Histogram().snapshot())


def test_counter_and_histogram_basics():
    c = Counter()
    c.add()
    c.add(9)
    assert c.value == 10
    h = Histogram()
    assert h.mean == 0.0
    h.observe(1e6)  # overflow bucket
    assert h.buckets[-1] == 1
    snap = h.snapshot()
    assert snap["max"] == 1e6 and snap["count"] == 1


# ----------------------------------------------------------------------
# RunReport + JSONL sink
# ----------------------------------------------------------------------
def test_jsonl_sink_round_trips_through_run_report(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    trace.enable(jsonl_path=path)
    with trace.span("run"):
        with trace.span("phase", k=1):
            pass
        with trace.span("phase"):
            pass
    trace.counter("items").add(3)
    memory = RunReport.from_tracer()
    trace.disable()

    for line in open(path):
        json.loads(line)  # every line is valid JSON
    replayed = RunReport.from_jsonl(path)
    assert len(replayed.spans) == len(memory.spans) == 3
    assert replayed.phase_totals().keys() == memory.phase_totals().keys()
    assert replayed.phase_totals()["phase"]["count"] == 2
    assert memory.counters() == {"items": 3}


def test_run_report_rejects_bad_trace_files(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"name": "ok", "span_id": "a", "duration": 1}\n{nope\n')
    with pytest.raises(ReproError, match="line 2"):
        RunReport.from_jsonl(str(bad))
    with pytest.raises(ReproError, match="cannot read"):
        RunReport.from_jsonl(str(tmp_path / "absent.jsonl"))


def test_run_report_tree_merges_names_and_attributes_self_time():
    spans = [
        {"name": "root", "span_id": "r", "parent_id": None, "duration": 1.0},
        {"name": "leaf", "span_id": "a", "parent_id": "r", "duration": 0.3},
        {"name": "leaf", "span_id": "b", "parent_id": "r", "duration": 0.2},
        # Orphan (parent not in the trace) becomes a root, not an error.
        {"name": "stray", "span_id": "c", "parent_id": "gone", "duration": 0.1},
    ]
    report = RunReport(spans, {"k": {"kind": "counter", "value": 2}})
    tree = {node["name"]: node for node in report.tree()}
    assert tree["root"]["self_s"] == pytest.approx(0.5)
    leaf = tree["root"]["children"][0]
    assert leaf["name"] == "leaf" and leaf["count"] == 2
    assert leaf["total_s"] == pytest.approx(0.5)
    assert tree["stray"]["total_s"] == pytest.approx(0.1)
    summary = report.summary()
    assert "root" in summary and "  leaf" in summary
    assert "k = 2" in summary
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["num_spans"] == 4 and payload["phases"]["leaf"]["count"] == 2


# ----------------------------------------------------------------------
# End-to-end instrumentation
# ----------------------------------------------------------------------
def test_tracing_changes_neither_reports_nor_fingerprints(small):
    netlist, _ = small
    plain = find_tangled_logic(netlist, CFG)
    plain_fp = job_fingerprint(netlist, CFG)
    trace.enable()
    traced = find_tangled_logic(netlist, CFG)
    traced_fp = job_fingerprint(netlist, CFG)
    report = RunReport.from_tracer()
    trace.disable()
    assert traced.gtls == plain.gtls
    assert traced.rent_exponent == plain.rent_exponent
    assert traced_fp == plain_fp
    counters = report.counters()
    assert counters["finder.seeds"] == CFG.num_seeds
    assert counters["finder.heap_pushes"] > 0
    phases = report.phase_totals()
    for name in ("finder.run", "finder.seed", "finder.phase1", "finder.reduce"):
        assert name in phases


def test_pool_spans_reparent_across_process_boundary(small):
    netlist, _ = small
    serial = find_tangled_logic(netlist, CFG)
    trace.enable()
    with WorkerPool(2) as pool:
        traced = TangledLogicFinder(netlist, CFG).run(pool=pool)
    report = RunReport.from_tracer()
    trace.disable()
    assert traced.gtls == serial.gtls

    spans = report.spans
    by_id = {s["span_id"]: s for s in spans}
    names = {s["name"] for s in spans}
    assert {"pool.run", "pool.task", "pool.batch", "finder.seed"} <= names
    # Every parent resolves: adoption left no dangling edges.
    for span in spans:
        assert span["parent_id"] is None or span["parent_id"] in by_id

    def ancestors(span):
        while span["parent_id"] is not None:
            span = by_id[span["parent_id"]]
            yield span["name"]

    parent_pid = os.getpid()
    worker_seeds = [
        s for s in spans if s["name"] == "finder.seed" and s["pid"] != parent_pid
    ]
    assert worker_seeds, "no finder.seed spans came from worker processes"
    for seed_span in worker_seeds:
        assert "pool.task" in list(ancestors(seed_span))
    # Worker counters merged into the parent registry.
    counters = report.counters()
    assert counters["finder.seeds"] == CFG.num_seeds
    assert counters["pool.tasks"] >= 1
    assert counters["pool.context_shipments"] >= 1
    assert counters["pool.context_bytes"] > 0
    # Task spans carry queue-wait/execute timings.
    task = next(s for s in spans if s["name"] == "pool.task")
    assert task["attrs"]["queue_wait_s"] >= 0.0
    assert task["attrs"]["execute_s"] >= 0.0


def test_store_emits_hit_miss_put_telemetry(tmp_path, small):
    netlist, _ = small
    report = find_tangled_logic(netlist, CFG)
    trace.enable()
    with ResultStore(str(tmp_path)) as store:
        assert store.get("absent") is None
        store.put("fp", report)
        assert store.get("fp") == report
    run_report = RunReport.from_tracer()
    trace.disable()
    counters = run_report.counters()
    assert counters == {"store.misses": 1, "store.puts": 1, "store.hits": 1}
    get_hist = run_report.metrics["store.get_s"]
    assert get_hist["kind"] == "histogram" and get_hist["count"] == 2
    assert run_report.metrics["store.put_s"]["count"] == 1
    assert "store.get_s" in run_report.summary()


def test_count_loses_no_update_across_threads():
    """Component registries are shared by daemon threads: concurrent
    ``trace.count`` calls must not lose increments."""
    registry = MetricRegistry()

    def hammer(index):
        for _ in range(5000):
            trace.count(registry, "n")
            trace.count(registry, f"n.{index}")

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    counts = counter_values(registry.snapshot())
    assert counts["n"] == 8 * 5000
    assert len(counts) == 1 + 8


def test_stale_store_row_counts_one_miss_and_no_hit(tmp_path):
    """A report row that no longer decodes is exactly one miss and no hit,
    in the store's own registry and in the traced run report alike."""
    trace.enable()
    with ResultStore(str(tmp_path)) as store:
        store.put_payload("fp", {}, kind="finder_report")
        assert store.get("fp") is None
        assert "fp" not in store  # the stale row was evicted
        own = counter_values(store.metrics.snapshot())
    traced = RunReport.from_tracer().counters()
    trace.disable()
    for counts in (own, traced):
        assert counts["store.hits"] == 0
        assert counts["store.misses"] == 1
        assert counts["store.evictions"] == 1


def test_flow_stage_spans_carry_cache_attrs(tmp_path, small):
    from repro.flow import DetectStage, Flow, PartitionStage

    netlist, _ = small
    flow = Flow([DetectStage(CFG), PartitionStage()])

    def stage_spans():
        return {
            s["name"]: s
            for s in trace.get_tracer().finished_spans()
            if s["name"].startswith(("stage.", "flow."))
        }

    with ResultStore(str(tmp_path)) as store:
        trace.enable()
        flow.run(netlist, store=store)
        cold = stage_spans()
        trace.enable()  # fresh trace for the warm run
        flow.run(netlist, store=store)
        warm = stage_spans()
        trace.disable()

    assert set(cold) == {"flow.run", "stage.detect", "stage.partition"}
    for name in ("stage.detect", "stage.partition"):
        assert cold[name]["attrs"]["cache"] == "run"
        assert warm[name]["attrs"]["cache"] == "hit"
        assert len(cold[name]["attrs"]["fingerprint"]) == 12
        assert cold[name]["parent_id"] == cold["flow.run"]["span_id"]
        # Same stage, same inputs: the fingerprint is trace-invariant.
        assert warm[name]["attrs"]["fingerprint"] == cold[name]["attrs"]["fingerprint"]


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def _write_flow_manifest(tmp_path, netlist):
    from repro.io.hgr import write_hgr

    write_hgr(netlist, str(tmp_path / "design.hgr"))
    manifest = tmp_path / "flow.json"
    manifest.write_text(json.dumps({
        "designs": ["design.hgr"],
        "stages": [
            {"stage": "detect", "num_seeds": 6, "seed": 3},
            {"stage": "partition"},
        ],
    }))
    return str(manifest)


def test_cli_flow_run_trace_and_profile(tmp_path, small, capsys):
    from repro.cli import main

    netlist, _ = small
    manifest = _write_flow_manifest(tmp_path, netlist)
    out_path = str(tmp_path / "out.jsonl")
    code = main([
        "flow", "run", manifest, "--no-cache", "--quiet",
        "--trace", out_path, "--profile",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert f"to {out_path}" in out
    assert "span" in out and "cli.flow-run" in out and "stage.detect" in out
    replayed = RunReport.from_jsonl(out_path)
    names = {s["name"] for s in replayed.spans}
    assert {"cli.flow-run", "flow.run", "stage.detect", "stage.partition"} <= names
    # The CLI session tore the global tracer back down.
    assert not trace.enabled()


def test_cli_batch_trace_covers_pool_tasks(tmp_path, small, capsys):
    from repro.cli import main
    from repro.io.hgr import write_hgr

    netlist, _ = small
    write_hgr(netlist, str(tmp_path / "d.hgr"))
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps({
        "defaults": {"num_seeds": 6, "seed": 1},
        "jobs": [{"design": "d.hgr", "label": "j0"}],
    }))
    out_path = str(tmp_path / "batch.jsonl")
    code = main([
        "batch", str(batch), "--no-cache", "--quiet",
        "--workers", "2", "--trace", out_path,
    ])
    assert code == 0
    assert f"to {out_path}" in capsys.readouterr().out
    names = {s["name"] for s in RunReport.from_jsonl(out_path).spans}
    assert {"cli.batch", "service.job", "pool.task", "finder.seed"} <= names


def test_cli_sweep_trace_invariants(tmp_path, small, capsys):
    """A traced ``sweep --workers 2`` is one tree: every parent resolves,
    every seed ran under a pool task, and the root's wall time is its
    children's plus a non-negative self time (no overlapping children)."""
    from repro.cli import main
    from repro.io.hgr import write_hgr

    netlist, _ = small
    write_hgr(netlist, str(tmp_path / "d.hgr"))
    manifest = tmp_path / "sweep.json"
    manifest.write_text(json.dumps({
        "designs": ["d.hgr"],
        "base": {"num_seeds": 6, "seed": 1},
        "grid": {"lambda_skip": [0, 10], "min_gtl_size": [20, 30]},
    }))
    out_path = str(tmp_path / "t.jsonl")
    assert main([
        "sweep", str(manifest), "--quiet", "--workers", "2",
        "--cache-dir", str(tmp_path / "cache"), "--trace", out_path,
    ]) == 0
    capsys.readouterr()
    spans = RunReport.from_jsonl(out_path).spans
    by_id = {s["span_id"]: s for s in spans}
    for span in spans:
        assert span["parent_id"] is None or span["parent_id"] in by_id

    def ancestors(span):
        while span["parent_id"] is not None:
            span = by_id[span["parent_id"]]
            yield span["name"]

    seeds = [s for s in spans if s["name"] == "finder.seed"]
    assert len(seeds) == 4 * 6
    for seed_span in seeds:
        assert "pool.task" in list(ancestors(seed_span))

    (root,) = [s for s in spans if s["parent_id"] is None]
    assert root["name"] == "cli.sweep"
    children = sum(
        s["duration"] for s in spans if s["parent_id"] == root["span_id"]
    )
    assert root["duration"] - children >= -1e-6  # the root's self time
    assert not any(s["name"] == "sweep.shard" for s in spans)


def test_cli_rejects_unknown_log_level(tmp_path, capsys):
    from repro.cli import main

    assert main(["--log-level", "noisy", "stats", str(tmp_path / "x.hgr")]) == 2
    assert "unknown log level" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Logging configuration
# ----------------------------------------------------------------------
def test_configure_logging_levels_env_and_idempotence(monkeypatch):
    logger = configure_logging("debug")
    assert logger.level == logging.DEBUG
    handlers_before = list(logger.handlers)
    configure_logging("info")
    assert logger.level == logging.INFO
    assert logger.handlers == handlers_before  # never stacks handlers

    monkeypatch.setenv("REPRO_LOG_LEVEL", "ERROR")
    assert configure_logging().level == logging.ERROR
    with pytest.raises(ReproError):
        configure_logging("nope")


# ----------------------------------------------------------------------
# Telemetry-hygiene lint
# ----------------------------------------------------------------------
def test_lint_flags_bare_timing_and_print():
    source = (
        "import time\n"
        "def f():\n"
        "    t = time.perf_counter()\n"
        "    print(t)\n"
        "if __name__ == '__main__':\n"
        "    print('fine here')\n"
    )
    violations = check_source(source, "repro/pkg/mod.py")
    assert len(violations) == 2
    assert "mod.py:3" in violations[0] and "time.perf_counter" in violations[0]
    assert "mod.py:4" in violations[1] and "print" in violations[1]
    assert check_source("x = (", "bad.py")[0].startswith("bad.py:")


def test_lint_passes_on_the_repo_source_tree():
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    assert lint_run(src) == []


# ----------------------------------------------------------------------
# Timer rides the same clock
# ----------------------------------------------------------------------
def test_timer_uses_the_obs_clock(monkeypatch):
    from repro.obs import trace as trace_module
    from repro.utils.timer import Timer

    ticks = iter([10.0, 13.5])
    monkeypatch.setattr(trace_module, "clock", lambda: next(ticks))
    with Timer() as timer:
        pass
    assert timer.elapsed == 3.5
    assert timer.minutes == pytest.approx(3.5 / 60)
