"""Sweep plumbing: partitioner, coordinator, store merge, aggregate, CLI."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.errors import ServiceError
from repro.finder.config import FinderConfig
from repro.generators.random_gtl import planted_gtl_graph
from repro.io.hgr import write_hgr
from repro.service.aggregate import (
    AGGREGATE_SCHEMA,
    aggregate_sweep,
    write_aggregate,
)
from repro.service.coordinator import SweepCoordinator
from repro.service.jobs import BatchRunner
from repro.service.shard import partition_plan, shard_sort_key
from repro.service.store import (
    KIND_FINDER_REPORT,
    MergeStats,
    ResultStore,
    row_schema_version,
)
from repro.service.sweep import plan_sweep, run_sweep

CFG = FinderConfig(num_seeds=4, seed=3)
GRID = {"lambda_skip": [0, 10], "min_gtl_size": [20, 30]}


@pytest.fixture(scope="module")
def small():
    netlist, truth = planted_gtl_graph(600, [50], seed=5)
    return netlist, truth


# A tiny netlist for planning-only tests (never executed); module-level so
# hypothesis-driven tests can use it without fixture plumbing.
_TINY, _ = planted_gtl_graph(200, [30], seed=1)


# ----------------------------------------------------------------------
# Partitioner
# ----------------------------------------------------------------------
def test_partition_covers_every_job_exactly_once(small):
    netlist, _ = small
    plan = plan_sweep([("d", netlist)], CFG, GRID)
    shards = partition_plan(plan, 3)
    assert len(shards) == 3
    covered = sorted(i for shard in shards for i in shard.job_indices)
    assert covered == list(range(len(plan.jobs)))
    for shard in shards:
        # Local order preserves global plan order.
        assert shard.job_indices == sorted(shard.job_indices)
        assert [plan.jobs[i] for i in shard.job_indices] == shard.jobs


def test_partition_is_stable_and_balanced(small):
    netlist, _ = small
    plan = plan_sweep([("d", netlist)], CFG, GRID)
    first = partition_plan(plan, 3)
    # Re-plan from scratch: identical content -> identical placement.
    again = partition_plan(plan_sweep([("d", netlist)], CFG, GRID), 3)
    assert [s.job_indices for s in first] == [s.job_indices for s in again]
    loads = [s.num_jobs for s in first]
    assert max(loads) - min(loads) <= 1


def test_partition_rejects_bad_shard_count(small):
    netlist, _ = small
    plan = plan_sweep([("d", netlist)], CFG, {"lambda_skip": [0]})
    with pytest.raises(ServiceError):
        partition_plan(plan, 0)


def test_shard_sort_key_separates_nondet_ordinals():
    fp = "ab" * 32
    assert shard_sort_key(fp, 0) == fp
    assert shard_sort_key(fp, 1) != fp
    assert shard_sort_key(fp, 1) != shard_sort_key(fp, 2)
    assert shard_sort_key(fp, 1) == shard_sort_key(fp, 1)


_AXIS_POOL = {
    "num_seeds": (2, 4, 6, 8),
    "lambda_skip": (0, 10, 20),
    "min_gtl_size": (20, 30, 40),
    "boundary_fraction": (0.1, 0.2),
}


@st.composite
def _grids(draw):
    axes = draw(
        st.lists(
            st.sampled_from(sorted(_AXIS_POOL)), min_size=1, max_size=3,
            unique=True,
        )
    )
    # Values drawn with repetition so colliding grid points (the dedup
    # cases) are generated routinely.
    return {
        axis: draw(
            st.lists(st.sampled_from(_AXIS_POOL[axis]), min_size=1, max_size=3)
        )
        for axis in axes
    }


@settings(max_examples=30, deadline=None)
@given(grid=_grids(), num_shards=st.integers(1, 5))
def test_property_deterministic_dedup_survives_sharding(grid, num_shards):
    """Deterministic points dedup in the plan; sharding never re-splits or
    re-executes them — every deduplicated job lives on exactly one shard."""
    plan = plan_sweep([("d", _TINY)], CFG, grid)
    # Deterministic planning: one job per distinct fingerprint.
    fingerprints = [job.fingerprint for job in plan.jobs]
    assert len(set(fingerprints)) == len(fingerprints)
    assert len(plan.points) >= len(plan.jobs)
    shards = partition_plan(plan, num_shards)
    covered = sorted(i for shard in shards for i in shard.job_indices)
    assert covered == list(range(len(plan.jobs)))  # exactly-once
    loads = [s.num_jobs for s in shards]
    assert max(loads) - min(loads) <= 1
    # No fingerprint appears on two shards.
    owner = {}
    for shard in shards:
        for job in shard.jobs:
            assert job.fingerprint not in owner
            owner[job.fingerprint] = shard.shard_id


@settings(max_examples=30, deadline=None)
@given(grid=_grids(), num_shards=st.integers(1, 5))
def test_property_nondet_points_never_merge_across_shards(grid, num_shards):
    """seed=None points are independent samples: one job each in the plan,
    and sharding keeps every one of them (no collapse, no loss)."""
    base = FinderConfig(num_seeds=4, seed=None)
    plan = plan_sweep([("d", _TINY)], base, grid)
    assert len(plan.jobs) == len(plan.points)  # never deduplicated
    assert [p.job_index for p in plan.points] == list(range(len(plan.jobs)))
    shards = partition_plan(plan, num_shards)
    covered = sorted(i for shard in shards for i in shard.job_indices)
    assert covered == list(range(len(plan.jobs)))  # none merged away
    # Colliding fingerprints are distinct jobs even when they land on the
    # same shard.
    total = sum(shard.num_jobs for shard in shards)
    assert total == len(plan.points)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
def _strip_volatile(rows):
    for row in rows:
        row.pop("runtime_seconds")
        row.pop("cached")
        if row["report"]:
            row["report"].pop("runtime_seconds")
    return rows


def test_more_shards_than_jobs(small):
    netlist, _ = small
    plan = plan_sweep([("d", netlist)], CFG, {"lambda_skip": [0, 10]})
    shards = partition_plan(plan, 6)
    assert len(shards) == 6
    assert sorted(s.num_jobs for s in shards) == [0, 0, 0, 0, 1, 1]
    covered = sorted(i for shard in shards for i in shard.job_indices)
    assert covered == list(range(len(plan.jobs)))


def test_coordinator_validates_arguments():
    with pytest.raises(ServiceError):
        SweepCoordinator(0, daemon_socket="unused.sock")


# ----------------------------------------------------------------------
# Store merge
# ----------------------------------------------------------------------
def _payload(tag):
    return {"tag": tag}


def test_merge_from_copies_and_combines(tmp_path):
    with ResultStore(str(tmp_path / "a")) as dest, ResultStore(
        str(tmp_path / "b")
    ) as src:
        dest.put_payload("f1", _payload("one"), kind="x")
        src.put_payload("f1", _payload("one"), kind="x")  # identical twin
        src.put_payload("f2", _payload("two"), kind="x")  # new row
        src.get_payload("f2")  # bump use_count to 1
        dest.get_payload("f1")  # dest use_count 1
        src.get_payload("f1")
        src.get_payload("f1")  # src use_count 2

        stats = dest.merge_from(src)
        assert (stats.copied, stats.merged, stats.conflicts) == (1, 1, 0)
        assert len(dest) == 2
        assert dest.get_payload("f2") == _payload("two")
        # Identical rows combine usage: 1 (dest) + 2 (src), +1 for the
        # get_payload assertion below.
        with dest._lock:
            count = dest._conn.execute(
                "SELECT use_count FROM results WHERE fingerprint = 'f1'"
            ).fetchone()[0]
        assert count == 3


def test_merge_from_accepts_a_path_and_counts_stale(tmp_path):
    src_dir = str(tmp_path / "src")
    with ResultStore(src_dir) as src:
        src.put_payload("fresh", _payload("ok"), kind=KIND_FINDER_REPORT)
        src.put_payload("old", _payload("stale"), kind=KIND_FINDER_REPORT)
        with src._lock:
            src._conn.execute(
                "UPDATE results SET schema_version = ? WHERE fingerprint = 'old'",
                (row_schema_version(KIND_FINDER_REPORT) - 1,),
            )
            src._conn.commit()
    with ResultStore(str(tmp_path / "dest")) as dest:
        stats = dest.merge_from(src_dir)
        assert stats.copied == 1
        assert stats.stale_skipped == 1
        assert "fresh" in dest and "old" not in dest


def test_merge_conflict_resolved_by_use_count_then_recency(tmp_path):
    with ResultStore(str(tmp_path / "a")) as dest, ResultStore(
        str(tmp_path / "b")
    ) as src:
        dest.put_payload("f", _payload("mine"), kind="x")
        src.put_payload("f", _payload("theirs"), kind="x")
        src.get_payload("f")  # src use_count 1 > dest 0
        stats = dest.merge_from(src)
        assert stats.conflicts == 1
        assert dest.get_payload("f") == _payload("theirs")

    with ResultStore(str(tmp_path / "c")) as dest, ResultStore(
        str(tmp_path / "d")
    ) as src:
        dest.put_payload("f", _payload("mine"), kind="x")
        dest.get_payload("f")
        dest.get_payload("f")  # dest use_count 2 wins
        src.put_payload("f", _payload("theirs"), kind="x")
        src.get_payload("f")
        stats = dest.merge_from(src)
        assert stats.conflicts == 1
        assert dest.get_payload("f") == _payload("mine")


def test_merge_stats_combined():
    total = MergeStats(copied=1, merged=2).combined(
        MergeStats(conflicts=3, stale_skipped=4)
    )
    assert (total.copied, total.merged, total.conflicts, total.stale_skipped) \
        == (1, 2, 3, 4)
    assert total.total == 10
    assert "1 copied" in total.summary()


# ----------------------------------------------------------------------
# Aggregate
# ----------------------------------------------------------------------
def test_aggregate_per_axis_and_schema(small, tmp_path):
    netlist, _ = small
    with ResultStore(str(tmp_path / "c")) as store, BatchRunner(
        workers=2, store=store
    ) as runner:
        outcome = run_sweep([("d", netlist)], CFG, GRID, runner)
    aggregate = aggregate_sweep(outcome)
    assert aggregate.points == 4 and aggregate.jobs == 4
    assert set(aggregate.per_axis) == {"lambda_skip", "min_gtl_size"}
    for values in aggregate.per_axis.values():
        assert sum(v["points"] for v in values.values()) == 4
        for value in values.values():
            assert value["ok"] == value["points"]
            assert value["mean_num_gtls"] > 0

    path = str(tmp_path / "agg.json")
    write_aggregate(path, aggregate)
    data = json.load(open(path))
    assert data["schema"] == AGGREGATE_SCHEMA == 2
    assert data["cache"] == {"hits": 0, "misses": 4}
    assert "merge" not in data


def test_aggregate_works_on_plain_outcome(small, tmp_path):
    netlist, _ = small
    with BatchRunner() as runner:
        outcome = run_sweep([("d", netlist)], CFG, {"lambda_skip": [0]}, runner)
    aggregate = aggregate_sweep(outcome)
    assert aggregate.mode == "single"
    assert aggregate.shards == []
    assert aggregate.points == 1


# ----------------------------------------------------------------------
# CLI round trips
# ----------------------------------------------------------------------
@pytest.fixture()
def sweep_manifest(tmp_path):
    netlist, _ = planted_gtl_graph(600, [50], seed=5)
    design = str(tmp_path / "d.hgr")
    write_hgr(netlist, design)
    manifest = tmp_path / "sweep.json"
    manifest.write_text(json.dumps({
        "designs": ["d.hgr"],
        "base": {"num_seeds": 4, "seed": 3},
        "grid": {"lambda_skip": [0, 10], "min_gtl_size": [20, 30]},
    }))
    return tmp_path, str(manifest)


def test_cli_sweep_workers_parity_and_aggregate(sweep_manifest, capsys):
    tmp_path, manifest = sweep_manifest
    serial = str(tmp_path / "serial.jsonl")
    parallel = str(tmp_path / "parallel.jsonl")
    aggregate = str(tmp_path / "agg.json")
    assert main(["sweep", manifest, "--quiet", "--jsonl", serial,
                 "--cache-dir", str(tmp_path / "c1")]) == 0
    assert main(["sweep", manifest, "--quiet", "--workers", "4",
                 "--jsonl", parallel, "--aggregate", aggregate,
                 "--cache-dir", str(tmp_path / "c2")]) == 0
    capsys.readouterr()
    rows_serial = _strip_volatile([json.loads(l) for l in open(serial)])
    rows_parallel = _strip_volatile([json.loads(l) for l in open(parallel)])
    assert rows_parallel == rows_serial
    data = json.load(open(aggregate))
    assert data["points"] == 4 and data["failed_points"] == 0
    assert data["mode"] == "single" and data["shards"] == []


def test_cli_sweep_shards_need_via_daemon(sweep_manifest, capsys):
    tmp_path, manifest = sweep_manifest
    cache = tmp_path / "c"
    assert main(["sweep", manifest, "--quiet", "--shards", "2",
                 "--cache-dir", str(cache)]) == 2
    err = capsys.readouterr().err
    assert "--via-daemon" in err and "--workers" in err
    assert not cache.exists()  # rejected before anything ran


def test_cli_store_merge(sweep_manifest, capsys):
    tmp_path, manifest = sweep_manifest
    data = json.loads(open(manifest).read())
    # Two plain sweeps over disjoint halves of the grid, two cache dirs.
    sources = []
    for half, values in enumerate(([0], [10])):
        part = tmp_path / f"half{half}.json"
        part.write_text(json.dumps(
            {**data, "grid": {**data["grid"], "lambda_skip": values}}
        ))
        sources.append(str(tmp_path / f"cache{half}"))
        assert main(["sweep", str(part), "--quiet",
                     "--cache-dir", sources[-1]]) == 0
    capsys.readouterr()
    dest = str(tmp_path / "merged")
    assert main(["store", "merge", dest] + sources) == 0
    out = capsys.readouterr().out
    assert "0 -> 4 entr(ies)" in out
    with ResultStore(dest) as store:
        assert len(store) == 4
    # The merged store answers the whole sweep warm.
    assert main(["sweep", manifest, "--quiet", "--cache-dir", dest]) == 0
    assert "4 cache hit(s)" in capsys.readouterr().out


def test_cli_sweep_unknown_axis_lists_fields(sweep_manifest, capsys):
    tmp_path, _ = sweep_manifest
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "designs": ["d.hgr"], "base": {"seed": 1},
        "grid": {"bogus_axis": [1]},
    }))
    assert main(["sweep", str(bad), "--no-cache", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "bogus_axis" in err and "valid fields" in err
    assert "num_seeds" in err and "lambda_skip" in err
