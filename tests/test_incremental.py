"""Tests for repro.incremental: deltas, dirty regions, patched reports.

Covers the delta codec and diff/apply inverse property, dirty-region
expansion (both backends), seed-trace persistence, the incremental-vs-
full-recompute parity invariant, the store-backed reuse ladder, the
moving-pin perturbation model and the benchmark regression warning.
"""

import dataclasses
import importlib.util
import json
import logging
import math
import os
import pathlib

import pytest

from repro.errors import (
    GenerationError,
    NetlistError,
    ServiceError,
)
from repro.finder.config import FinderConfig
from repro.generators.perturb import rewire_pins
from repro.generators.random_gtl import planted_gtl_graph
from repro.incremental import (
    CellEdit,
    NetEdit,
    NetlistDelta,
    SeedTrace,
    apply_delta,
    delta_endpoint_cells,
    delta_fingerprint,
    detect_with_reuse,
    design_path,
    diff,
    dirty_region,
    expand_frontier,
    incremental_detect,
    load_trace,
    run_traced,
)
from repro.incremental.engine import (
    KIND_FINDER_TRACE,
    KIND_INCREMENTAL_HEAD,
    KIND_INCREMENTAL_PROVENANCE,
    _head_key,
    _trace_key,
)
from repro.netlist.backend import forced_backend
from repro.netlist.builder import NetlistBuilder
from repro.obs import trace
from repro.service.codec import report_to_dict
from repro.service.fingerprint import (
    fingerprint_config,
    fingerprint_netlist,
    job_fingerprint,
)
from repro.service.store import ResultStore

BACKENDS = ("numpy", "python")

#: Small pinned config: footprints cover a slice of the graph, not all of it.
CFG = FinderConfig(num_seeds=8, max_order_length=20, seed=5)


@pytest.fixture(scope="module")
def base():
    netlist, _ = planted_gtl_graph(1500, [60], seed=3)
    return netlist


def _strip(report):
    payload = report_to_dict(report)
    payload.pop("runtime_seconds", None)
    return payload


# ---------------------------------------------------------------- diff/apply
@pytest.mark.parametrize("backend", BACKENDS)
def test_diff_identical_netlists_is_empty(base, backend):
    delta = diff(base, base, backend=backend)
    assert delta.is_empty
    assert delta.num_edits == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_diff_apply_inverse_on_rewire(base, backend):
    with forced_backend(backend):
        edited, emitted = rewire_pins(base, 0.02, rng=9, return_delta=True)
        delta = diff(base, edited)
    assert not delta.is_empty
    assert delta == emitted  # the perturbation emits exactly what diff sees
    rebuilt = apply_delta(base, delta)
    assert fingerprint_netlist(rebuilt) == fingerprint_netlist(edited)


def _toy():
    builder = NetlistBuilder()
    a = builder.add_cell("a", area=1.0)
    b = builder.add_cell("b", area=2.0)
    c = builder.add_cell("c")
    d = builder.add_cell("d", fixed=True)
    builder.add_net("n1", [a, b])
    builder.add_net("n2", [b, c, d])
    builder.add_net("n3", [a, c])
    return builder.build()


def test_diff_attribute_change():
    old = _toy()
    builder = NetlistBuilder()
    builder.add_cell("a", area=1.0)
    builder.add_cell("b", area=7.5)  # changed
    builder.add_cell("c")
    builder.add_cell("d", fixed=True)
    builder.add_net("n1", [0, 1])
    builder.add_net("n2", [1, 2, 3])
    builder.add_net("n3", [0, 2])
    new = builder.build()
    for backend in BACKENDS:
        delta = diff(old, new, backend=backend)
        assert [c.name for c in delta.cells_changed] == ["b"]
        assert delta.cells_changed[0].area == 7.5
        assert not delta.nets_changed
        assert fingerprint_netlist(apply_delta(old, delta)) == \
            fingerprint_netlist(new)


def test_diff_cell_removal_remaps_surviving_nets():
    """Removing a cell shifts every later index; apply must remap by name."""
    old = _toy()
    builder = NetlistBuilder()
    builder.add_cell("b", area=2.0)
    builder.add_cell("c")
    builder.add_cell("d", fixed=True)
    builder.add_net("n2", [0, 1, 2])  # b, c, d — survives untouched by name
    new = builder.build()
    delta = diff(old, new)
    assert delta.cells_removed == ("a",)
    assert {n.name for n in delta.nets_removed} == {"n1", "n3"}
    rebuilt = apply_delta(old, delta)
    assert fingerprint_netlist(rebuilt) == fingerprint_netlist(new)


def test_diff_cell_and_net_addition():
    old = _toy()
    builder = NetlistBuilder()
    for index in range(old.num_cells):
        builder.add_cell(
            old.cell_name(index), area=old.cell_area(index),
            fixed=old.cell_is_fixed(index),
        )
    e = builder.add_cell("e", area=3.0)
    builder.add_net("n1", [0, 1])
    builder.add_net("n2", [1, 2, 3])
    builder.add_net("n3", [0, 2])
    builder.add_net("n4", [e, 0])
    new = builder.build()
    delta = diff(old, new)
    assert [c.name for c in delta.cells_added] == ["e"]
    assert [n.name for n in delta.nets_added] == ["n4"]
    assert delta.nets_added[0].new_members == ("e", "a")
    assert fingerprint_netlist(apply_delta(old, delta)) == \
        fingerprint_netlist(new)


def test_diff_reorder_degrades_to_full_replacement():
    old = _toy()
    builder = NetlistBuilder()
    builder.add_cell("b", area=2.0)  # "b" before "a": relative order broken
    builder.add_cell("a", area=1.0)
    builder.add_cell("c")
    builder.add_cell("d", fixed=True)
    builder.add_net("n1", [1, 0])
    builder.add_net("n2", [0, 2, 3])
    builder.add_net("n3", [1, 2])
    new = builder.build()
    delta = diff(old, new)
    assert len(delta.cells_removed) == old.num_cells
    assert len(delta.cells_added) == new.num_cells
    assert fingerprint_netlist(apply_delta(old, delta)) == \
        fingerprint_netlist(new)


def test_delta_codec_roundtrip(base):
    _, delta = rewire_pins(base, 0.02, rng=4, return_delta=True)
    wire = json.loads(json.dumps(delta.to_dict()))
    assert NetlistDelta.from_dict(wire) == delta
    with pytest.raises(NetlistError, match="version"):
        NetlistDelta.from_dict({"version": 999})
    with pytest.raises(NetlistError):
        NetlistDelta.from_dict([1, 2, 3])


def test_delta_fingerprint_chains_base_and_edit(base):
    _, d1 = rewire_pins(base, 0.02, rng=4, return_delta=True)
    _, d2 = rewire_pins(base, 0.02, rng=5, return_delta=True)
    fp = fingerprint_netlist(base)
    assert delta_fingerprint(fp, d1) == delta_fingerprint(fp, d1)
    assert delta_fingerprint(fp, d1) != delta_fingerprint(fp, d2)
    assert delta_fingerprint("other-base", d1) != delta_fingerprint(fp, d1)


# ---------------------------------------------------------------- dirty region
def test_dirty_endpoints_cover_both_sides_of_a_rewire():
    old = _toy()
    delta = NetlistDelta(
        cells_changed=(
            CellEdit("a", 1.0, old.cell_pin_count(0) - 1, False),
            CellEdit("c", 1.0, old.cell_pin_count(2) + 1, False),
        ),
        nets_changed=(NetEdit("n1", ("a", "b"), ("c", "b")),),
    )
    new = apply_delta(old, delta)
    endpoints = delta_endpoint_cells(new, delta)
    # Losing cell "a", gaining cell "c", and untouched co-member "b".
    assert {new.cell_name(i) for i in endpoints} == {"a", "b", "c"}


@pytest.mark.parametrize("backend", BACKENDS)
def test_dirty_region_halo_is_monotonic(base, backend):
    edited, delta = rewire_pins(base, 0.001, rng=2, return_delta=True)
    with forced_backend(backend):
        r0 = dirty_region(edited, delta, halo=0)
        r1 = dirty_region(edited, delta, halo=1)
    assert r0.hops == 1 and r1.hops == 2
    assert r0.cells <= r1.cells
    assert 0.0 < r0.fraction <= r1.fraction <= 1.0
    with pytest.raises(NetlistError):
        dirty_region(edited, delta, halo=-1)


def test_expand_frontier_backends_agree(base):
    seed_cells = {3, 77, 191}
    for hops in (0, 1, 2):
        numpy_region = expand_frontier(base, seed_cells, hops, backend="numpy")
        scalar_region = expand_frontier(base, seed_cells, hops, backend="python")
        assert numpy_region == scalar_region
        assert seed_cells <= numpy_region


# ---------------------------------------------------------------- seed traces
def test_run_traced_codec_roundtrip(base):
    report, seed_trace = run_traced(base, CFG)
    assert len(seed_trace.jobs) == CFG.num_seeds
    assert len(seed_trace.outcomes) == CFG.num_seeds
    assert all(outcome[3] for outcome in seed_trace.outcomes)  # footprints
    wire = json.loads(json.dumps(seed_trace.to_dict()))
    restored = SeedTrace.from_dict(wire)
    assert restored.netlist_fingerprint == seed_trace.netlist_fingerprint
    assert restored.jobs == seed_trace.jobs
    assert fingerprint_config(restored.config) == fingerprint_config(CFG)
    for ours, theirs in zip(seed_trace.outcomes, restored.outcomes):
        assert ours[0] == theirs[0]
        assert (ours[1] == theirs[1]) or (
            math.isnan(ours[1]) and math.isnan(theirs[1])
        )
        assert ours[2:] == theirs[2:]
    with pytest.raises(ServiceError, match="seed-trace"):
        SeedTrace.from_dict({"version": -1})


# ---------------------------------------------------------------- parity
@pytest.mark.parametrize("backend", BACKENDS)
def test_incremental_matches_cold_run(base, backend):
    """The invariant: a patched report is bit-identical to a cold run."""
    with forced_backend(backend):
        _, seed_trace = run_traced(base, CFG)
        edited, delta = rewire_pins(base, 0.001, rng=1, return_delta=True)
        result = incremental_detect(base, edited, seed_trace, CFG)
        cold, _ = run_traced(edited, CFG)
    assert result.mode == "incremental"
    # Strict inequality: some seeds were genuinely replayed from the trace.
    assert 0 < result.seeds_recomputed < result.seeds_total
    assert _strip(result.report) == _strip(cold)
    # The emitted trace must equal a cold trace: the chain stays exact.
    assert result.trace.netlist_fingerprint == fingerprint_netlist(edited)
    assert result.base_fingerprint == fingerprint_netlist(base)
    assert result.delta_fingerprint == delta_fingerprint(
        fingerprint_netlist(base), delta
    )


def test_patched_run_honours_workers(base):
    """Dirty seeds recompute on an ephemeral pool when ``workers > 1``; the
    patched report equals the serial patched report."""
    _, seed_trace = run_traced(base, CFG)
    edited, delta = rewire_pins(base, 0.001, rng=1, return_delta=True)
    serial = incremental_detect(base, edited, seed_trace, CFG, delta=delta)
    with trace.get_tracer().capture() as captured:  # leaves no trace behind
        parallel = incremental_detect(
            base, edited, seed_trace, CFG.with_overrides(workers=2), delta=delta
        )
    assert parallel.mode == "incremental" and parallel.seeds_recomputed > 1
    assert any(span["name"] == "pool.run" for span in captured.spans)
    parallel_report = dataclasses.replace(parallel.report, config=CFG)
    assert _strip(parallel_report) == _strip(serial.report)


def test_incremental_accepts_precomputed_delta(base):
    _, seed_trace = run_traced(base, CFG)
    edited, delta = rewire_pins(base, 0.001, rng=1, return_delta=True)
    implicit = incremental_detect(base, edited, seed_trace, CFG)
    explicit = incremental_detect(base, edited, seed_trace, CFG, delta=delta)
    assert _strip(explicit.report) == _strip(implicit.report)
    assert explicit.delta_fingerprint == implicit.delta_fingerprint


def test_incremental_chains_across_two_edits(base):
    """delta fingerprints chain: base -> edit1 -> edit2, parity at each hop."""
    _, trace0 = run_traced(base, CFG)
    edit1, _ = rewire_pins(base, 0.001, rng=1, return_delta=True)
    step1 = incremental_detect(base, edit1, trace0, CFG)
    edit2, _ = rewire_pins(edit1, 0.001, rng=2, return_delta=True)
    step2 = incremental_detect(edit1, edit2, step1.trace, CFG)
    cold, _ = run_traced(edit2, CFG)
    assert step2.mode == "incremental"
    assert step2.base_fingerprint == fingerprint_netlist(edit1)
    assert _strip(step2.report) == _strip(cold)


def test_incremental_validation_errors(base):
    _, seed_trace = run_traced(base, CFG)
    edited = rewire_pins(base, 0.001, rng=1)
    other, _ = planted_gtl_graph(500, [50], seed=21)
    with pytest.raises(ServiceError, match="does not belong"):
        incremental_detect(other, edited, seed_trace, CFG)
    with pytest.raises(ServiceError, match="different finder config"):
        incremental_detect(
            base, edited, seed_trace, FinderConfig(num_seeds=9, seed=5)
        )
    with pytest.raises(ServiceError, match="pinned"):
        incremental_detect(
            base, edited, seed_trace,
            FinderConfig(num_seeds=8, max_order_length=20, seed=None),
        )


# ---------------------------------------------------------------- fallbacks
def test_fallback_on_cell_set_change(base):
    _, seed_trace = run_traced(base, CFG)
    builder = NetlistBuilder()
    for index in range(base.num_cells):
        builder.add_cell(base.cell_name(index), area=base.cell_area(index))
    extra = builder.add_cell("brand_new_cell")
    for index in range(base.num_nets):
        builder.add_net(base.net_name(index), list(base.cells_of_net(index)))
    builder.add_net("brand_new_net", [extra, 0])
    edited = builder.build(drop_singleton_nets=False)
    result = incremental_detect(base, edited, seed_trace, CFG)
    assert result.mode == "full"
    assert result.reason == "cell set changed"
    cold, _ = run_traced(edited, CFG)
    assert _strip(result.report) == _strip(cold)


def test_fallback_on_fixed_flag_change(base):
    _, seed_trace = run_traced(base, CFG)
    victim = base.movable_cells()[0]
    builder = NetlistBuilder()
    for index in range(base.num_cells):
        builder.add_cell(
            base.cell_name(index), area=base.cell_area(index),
            pin_count=base.cell_pin_count(index),
            fixed=True if index == victim else base.cell_is_fixed(index),
        )
    for index in range(base.num_nets):
        builder.add_net(base.net_name(index), list(base.cells_of_net(index)))
    edited = builder.build(drop_singleton_nets=False)
    result = incremental_detect(base, edited, seed_trace, CFG)
    assert result.mode == "full"
    assert result.reason == "fixed flags changed"


def test_fallback_on_total_pin_change(base):
    _, seed_trace = run_traced(base, CFG)
    builder = NetlistBuilder()
    for index in range(base.num_cells):
        builder.add_cell(
            base.cell_name(index), area=base.cell_area(index),
            pin_count=base.cell_pin_count(index) + (1 if index == 0 else 0),
        )
    for index in range(base.num_nets):
        builder.add_net(base.net_name(index), list(base.cells_of_net(index)))
    edited = builder.build(drop_singleton_nets=False)
    result = incremental_detect(base, edited, seed_trace, CFG)
    assert result.mode == "full"
    assert result.reason == "total pin count changed"


def test_fallback_on_dirty_fraction_threshold(base):
    _, seed_trace = run_traced(base, CFG)
    edited, _ = rewire_pins(base, 0.001, rng=1, return_delta=True)
    result = incremental_detect(
        base, edited, seed_trace, CFG, full_threshold=0.0
    )
    assert result.mode == "full"
    assert "dirty fraction" in result.reason
    assert result.dirty_cells > 0
    cold, _ = run_traced(edited, CFG)
    assert _strip(result.report) == _strip(cold)


# ---------------------------------------------------------------- reuse ladder
def test_detect_with_reuse_ladder(base, tmp_path):
    edited = rewire_pins(base, 0.001, rng=1)
    with ResultStore(str(tmp_path)) as store:
        first = detect_with_reuse(base, CFG, store)
        assert first.mode == "full"
        assert first.reason == "no traced base run"
        job_fp = job_fingerprint(base, CFG)
        assert store.get(job_fp) is not None
        assert load_trace(store, job_fp) is not None
        assert os.path.exists(design_path(store, fingerprint_netlist(base)))
        head = store.get_payload(
            _head_key(fingerprint_config(CFG)), kind=KIND_INCREMENTAL_HEAD
        )
        assert head["netlist_fingerprint"] == fingerprint_netlist(base)

        second = detect_with_reuse(base, CFG, store)
        assert second.mode == "cached"
        assert _strip(second.report) == _strip(first.report)

        # The edit resolves its base via the head pointer + design blob.
        third = detect_with_reuse(edited, CFG, store)
        assert third.mode == "incremental"
        assert third.base_fingerprint == fingerprint_netlist(base)
        assert 0 < third.seeds_recomputed <= third.seeds_total
        cold, _ = run_traced(edited, CFG)
        assert _strip(third.report) == _strip(cold)
        provenance = store.get_payload(
            f"prov-{job_fingerprint(edited, CFG)}",
            kind=KIND_INCREMENTAL_PROVENANCE,
        )
        assert provenance["mode"] == "incremental"
        assert provenance["base_fingerprint"] == fingerprint_netlist(base)
        assert provenance["dirty_cells"] == third.dirty_cells

        fourth = detect_with_reuse(edited, CFG, store)
        assert fourth.mode == "cached"

        counts = store.kind_counts()
        assert counts[KIND_FINDER_TRACE] == 2
        assert counts[KIND_INCREMENTAL_PROVENANCE] == 1
        assert counts[KIND_INCREMENTAL_HEAD] == 1


def test_detect_with_reuse_explicit_base(base, tmp_path):
    """An explicit base netlist works without any head pointer."""
    edited = rewire_pins(base, 0.001, rng=1)
    with ResultStore(str(tmp_path)) as store:
        detect_with_reuse(base, CFG, store)
        store.evict(_head_key(fingerprint_config(CFG)))
        result = detect_with_reuse(edited, CFG, store, base=base)
        assert result.mode == "incremental"


def test_detect_with_reuse_without_store_or_seed(base, tmp_path):
    result = detect_with_reuse(base, CFG, None)
    assert result.mode == "full" and result.reason == "no result store"
    unpinned = FinderConfig(num_seeds=4, max_order_length=20, seed=None)
    with ResultStore(str(tmp_path)) as store:
        result = detect_with_reuse(base, unpinned, store)
        assert result.mode == "full" and result.reason == "unpinned seed"
        assert store.kind_counts() == {}  # nondeterministic runs never persist


def test_load_trace_evicts_malformed_payloads(base, tmp_path):
    with ResultStore(str(tmp_path)) as store:
        store.put_payload(
            _trace_key("deadbeef"), {"version": 999}, kind=KIND_FINDER_TRACE
        )
        assert load_trace(store, "deadbeef") is None
        assert store.get_payload(_trace_key("deadbeef")) is None  # evicted


# ---------------------------------------------------------------- perturb
def test_rewire_zero_fraction_returns_same_object(base):
    assert rewire_pins(base, 0.0) is base
    netlist, delta = rewire_pins(base, 0.0, return_delta=True)
    assert netlist is base
    assert delta.is_empty


def test_rewire_is_seed_deterministic(base):
    a = rewire_pins(base, 0.05, rng=13)
    b = rewire_pins(base, 0.05, rng=13)
    c = rewire_pins(base, 0.05, rng=14)
    assert fingerprint_netlist(a) == fingerprint_netlist(b)
    assert fingerprint_netlist(a) != fingerprint_netlist(c)


def test_rewire_preserves_pin_accounting(base):
    edited, delta = rewire_pins(base, 0.05, rng=13, return_delta=True)
    assert edited.num_cells == base.num_cells
    assert edited.num_nets == base.num_nets
    assert edited.num_pins == base.num_pins  # moves, never creates pins
    for index in range(base.num_nets):
        assert len(edited.cells_of_net(index)) == len(base.cells_of_net(index))
    shifts = {
        edit.name: edit.pin_count - base.cell_pin_count(
            base.cell_index(edit.name)
        )
        for edit in delta.cells_changed
    }
    assert sum(shifts.values()) == 0


def test_rewire_validation():
    netlist, _ = planted_gtl_graph(200, [20], seed=1)
    with pytest.raises(GenerationError):
        rewire_pins(netlist, -0.1)
    with pytest.raises(GenerationError):
        rewire_pins(netlist, 1.5)


# ---------------------------------------------------------------- bench guard
@pytest.fixture()
def propagating_repro_logs():
    """Let ``repro.*`` records reach caplog's root handler.

    ``repro.obs.logcfg.configure_logging`` (run by earlier tests) sets
    ``propagate = False`` on the ``repro`` logger, which would hide bench
    warnings from caplog.
    """
    logger = logging.getLogger("repro")
    previous = logger.propagate
    logger.propagate = True
    yield
    logger.propagate = previous


def _load_record_module():
    path = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_warns_on_headline_regression(
    tmp_path, caplog, propagating_repro_logs
):
    bench_record = _load_record_module()
    out = tmp_path / "BENCH_x.json"
    bench_record.record("x", {"speedup": 20.0}, path=out, headline="speedup")
    with caplog.at_level(logging.INFO, logger="repro.obs.bench"):
        bench_record.record("x", {"speedup": 19.0}, path=out, headline="speedup")
        assert not any(r.levelno == logging.WARNING for r in caplog.records)
        bench_record.record("x", {"speedup": 10.0}, path=out, headline="speedup")
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "regressed" in warnings[0].getMessage()
    assert json.loads(out.read_text())["results"]["speedup"] == 10.0


def test_bench_record_lower_is_better_direction(
    tmp_path, caplog, propagating_repro_logs
):
    bench_record = _load_record_module()
    out = tmp_path / "BENCH_y.json"
    bench_record.record(
        "y", {"latency": 1.0}, path=out, headline="latency",
        higher_is_better=False,
    )
    with caplog.at_level(logging.INFO, logger="repro.obs.bench"):
        bench_record.record(
            "y", {"latency": 1.5}, path=out, headline="latency",
            higher_is_better=False,
        )
    assert any(
        r.levelno == logging.WARNING and "regressed" in r.getMessage()
        for r in caplog.records
    )


def test_bench_record_smoke_never_overwrites_full(tmp_path):
    bench_record = _load_record_module()
    out = tmp_path / "BENCH_z.json"
    bench_record.record("z", {"speedup": 20.0}, path=out)
    bench_record.record("z", {"speedup": 1.0}, path=out, smoke=True)
    assert json.loads(out.read_text())["results"]["speedup"] == 20.0
