"""Tests of the batch detection service layer (:mod:`repro.service`)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.errors import ServiceError
from repro.finder import FinderConfig, FinderReport, TangledLogicFinder, find_tangled_logic
from repro.finder.config import DEFAULT_RENT_EXPONENT
from repro.generators.random_gtl import planted_gtl_graph
from repro.obs.metrics import counter_values
from repro.service import (
    BatchRunner,
    DetectionJob,
    ResultStore,
    WorkerPool,
    expand_grid,
    fingerprint_config,
    fingerprint_netlist,
    job_fingerprint,
    plan_sweep,
    report_from_dict,
    report_to_dict,
    run_sweep,
)

CFG = FinderConfig(num_seeds=6, seed=3)


@pytest.fixture(scope="module")
def small():
    """A small planted netlist plus a deterministic config."""
    netlist, truth = planted_gtl_graph(800, [60], seed=5)
    return netlist, truth


@pytest.fixture(scope="module")
def small_report(small):
    netlist, _ = small
    return find_tangled_logic(netlist, CFG)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_is_content_based(small):
    netlist, _ = small
    rebuilt, _ = planted_gtl_graph(800, [60], seed=5)
    assert rebuilt is not netlist
    assert fingerprint_netlist(rebuilt) == fingerprint_netlist(netlist)

    other, _ = planted_gtl_graph(800, [60], seed=6)
    assert fingerprint_netlist(other) != fingerprint_netlist(netlist)


def test_fingerprint_config_ignores_workers():
    assert fingerprint_config(CFG) == fingerprint_config(CFG.with_overrides(workers=8))
    assert fingerprint_config(CFG) != fingerprint_config(CFG.with_overrides(num_seeds=7))


def test_fingerprint_stable_across_process_restarts(small):
    """The same content must hash identically in a fresh interpreter."""
    netlist, _ = small
    script = (
        "from repro.generators.random_gtl import planted_gtl_graph\n"
        "from repro.finder import FinderConfig\n"
        "from repro.service import job_fingerprint\n"
        "netlist, _ = planted_gtl_graph(800, [60], seed=5)\n"
        "print(job_fingerprint(netlist, FinderConfig(num_seeds=6, seed=3)))\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout.strip()
    assert output == job_fingerprint(netlist, CFG)


def test_job_fingerprint_accepts_precomputed_netlist_hash(small):
    netlist, _ = small
    pre = fingerprint_netlist(netlist)
    assert job_fingerprint(netlist, CFG, netlist_fingerprint=pre) == job_fingerprint(
        netlist, CFG
    )


# ----------------------------------------------------------------------
# Codec + store
# ----------------------------------------------------------------------
def test_report_codec_round_trip(small_report):
    decoded = report_from_dict(json.loads(json.dumps(report_to_dict(small_report))))
    assert decoded == small_report


def test_store_round_trip_is_bit_identical(tmp_path, small_report):
    with ResultStore(str(tmp_path)) as store:
        store.put("fp1", small_report)
        assert "fp1" in store
        assert len(store) == 1
        assert store.get("fp1") == small_report
        counts = counter_values(store.metrics.snapshot())
        assert counts["store.hits"] == 1 and counts["store.misses"] == 0


def test_store_persists_across_instances(tmp_path, small_report):
    with ResultStore(str(tmp_path)) as store:
        store.put("fp1", small_report)
    with ResultStore(str(tmp_path)) as store:
        assert store.get("fp1") == small_report


def test_store_miss_evict_and_lru(tmp_path, small_report):
    with ResultStore(str(tmp_path)) as store:
        assert store.get("absent") is None
        assert store.metrics.counter("store.misses").value == 1
        store.put("a", small_report)
        store.put("b", small_report)
        assert store.evict("a") is True
        assert store.evict("a") is False
        assert store.evict_lru(0) == 1
        assert len(store) == 0


def test_store_drops_rows_with_invalid_configs(tmp_path, small_report):
    """Version-skewed rows whose config no longer validates must read as a
    miss and be evicted, not raise FinderError into the batch run."""
    with ResultStore(str(tmp_path)) as store:
        store.put("fp1", small_report)
        store._conn.execute(
            "UPDATE results SET payload = ?",
            (store._conn.execute("SELECT payload FROM results").fetchone()[0]
             .replace('"num_seeds":6', '"num_seeds":0'),),
        )
        store._conn.commit()
        assert store.get("fp1") is None
        assert len(store) == 0


def test_store_drops_corrupt_payloads(tmp_path, small_report):
    store = ResultStore(str(tmp_path))
    store.put("fp1", small_report)
    store._conn.execute("UPDATE results SET payload = '{broken'")
    store._conn.commit()
    assert store.get("fp1") is None  # treated as a miss, not an exception
    assert len(store) == 0  # corrupt row evicted
    store.close()
    with pytest.raises(ServiceError):
        store.get("fp1")


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------
def test_pool_matches_serial_results(small):
    netlist, _ = small
    serial = find_tangled_logic(netlist, CFG)
    with WorkerPool(2) as pool:
        report = TangledLogicFinder(netlist, CFG).run(pool=pool)
        again = TangledLogicFinder(netlist, CFG).run(pool=pool)
    assert report.gtls == serial.gtls
    assert report.rent_exponent == serial.rent_exponent
    assert again.gtls == serial.gtls
    # The context is shipped on the first run only; later runs stream bare
    # seed batches (modulo unprimed-worker misses, which re-ship).
    counts = counter_values(pool.metrics.snapshot())
    assert counts["pool.context_shipments"] <= 2 + counts["pool.context_misses"]


def test_pool_workers_field_does_not_change_results(small):
    netlist, _ = small
    serial = find_tangled_logic(netlist, CFG)
    parallel = find_tangled_logic(netlist, CFG.with_overrides(workers=2))
    assert parallel.gtls == serial.gtls


def test_pool_serial_path_avoids_processes(small):
    netlist, _ = small
    pool = WorkerPool(1)
    report = TangledLogicFinder(netlist, CFG).run(pool=pool)
    assert pool.metrics.counter("pool.serial_runs").value == 1
    assert pool._executor is None
    assert report.gtls == find_tangled_logic(netlist, CFG).gtls


def test_pool_validates_arguments():
    with pytest.raises(ServiceError):
        WorkerPool(0)


# ----------------------------------------------------------------------
# Batch runner
# ----------------------------------------------------------------------
def test_batch_runner_cache_hit_is_bit_identical(tmp_path, small):
    netlist, _ = small
    job = DetectionJob(netlist=netlist, config=CFG, label="j")
    with ResultStore(str(tmp_path)) as store:
        with BatchRunner(workers=1, store=store) as runner:
            cold = runner.run([job])[0]
            warm = runner.run([job])[0]
    assert cold.cached is False and cold.ok
    assert warm.cached is True and warm.attempts == 0
    assert warm.report == cold.report


def test_batch_runner_answers_a_repeated_job_from_the_store(tmp_path, small):
    netlist, _ = small
    job = DetectionJob(netlist=netlist, config=CFG, label="j")
    other = DetectionJob(netlist=netlist, config=CFG.with_overrides(lambda_skip=10))
    with ResultStore(str(tmp_path)) as store:
        with BatchRunner(workers=2, store=store) as runner:
            results = runner.run([job, other, job])
        counts = counter_values(store.metrics.snapshot())
    assert [r.cached for r in results] == [False, False, True]
    assert results[2].report == results[0].report
    # The repeat waited for its first occurrence: one lookup, one hit.
    assert (counts["store.misses"], counts["store.hits"], counts["store.puts"]) == (2, 1, 2)


def test_batch_runner_no_cache_bypasses_store(tmp_path, small):
    netlist, _ = small
    job = DetectionJob(netlist=netlist, config=CFG)
    with ResultStore(str(tmp_path)) as store:
        with BatchRunner(workers=1, store=store, use_cache=False) as runner:
            first = runner.run([job])[0]
            second = runner.run([job])[0]
        counts = counter_values(store.metrics.snapshot())
        assert counts["store.hits"] + counts["store.misses"] + counts["store.puts"] == 0
        assert len(store) == 0
    assert not first.cached and not second.cached
    # Both runs recomputed (runtime differs) but the science is identical.
    assert second.report.gtls == first.report.gtls
    assert second.report.rent_exponent == first.report.rent_exponent


def test_batch_runner_never_caches_nondeterministic_jobs(tmp_path, small):
    netlist, _ = small
    job = DetectionJob(netlist=netlist, config=FinderConfig(num_seeds=4, seed=None))
    with ResultStore(str(tmp_path)) as store:
        with BatchRunner(workers=1, store=store) as runner:
            result = runner.run([job])[0]
        assert len(store) == 0
    assert result.ok and not result.cached


def test_batch_runner_records_finder_errors(tmp_path, small):
    netlist, _ = small
    # min_gtl_size beyond the netlist is a config-level FinderError at run
    # time; the runner must record it, not raise.
    bad = DetectionJob(
        netlist=netlist,
        config=FinderConfig(num_seeds=2, seed=1, seed_strategy="uniform",
                            min_gtl_size=10_000, max_order_length=50),
    )
    good = DetectionJob(netlist=netlist, config=CFG)
    events = []
    with BatchRunner(workers=1, progress=events.append) as runner:
        results = runner.run([bad, good])
    assert results[0].ok  # large min size just means zero candidates
    assert results[1].ok
    assert [e.done for e in events] == [1, 2]
    assert all(e.total == 2 for e in events)


def test_batch_runner_reports_construction_errors():
    from repro.netlist.builder import NetlistBuilder

    builder = NetlistBuilder()
    builder.add_cell("only")
    tiny = builder.build()
    with BatchRunner(workers=1) as runner:
        result = runner.run([DetectionJob(netlist=tiny, config=CFG)])[0]
    assert result.report is None
    assert not result.ok
    assert "netlist too small" in result.error


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def test_expand_grid_orders_and_validates():
    combos = expand_grid(CFG, {"num_seeds": [4, 8], "lambda_skip": [0]})
    assert [c[0] for c in combos] == [
        {"lambda_skip": 0, "num_seeds": 4},
        {"lambda_skip": 0, "num_seeds": 8},
    ]
    with pytest.raises(ServiceError):
        expand_grid(CFG, {"not_a_field": [1]})
    with pytest.raises(ServiceError):
        expand_grid(CFG, {"num_seeds": []})
    with pytest.raises(ServiceError):
        expand_grid(CFG, {"num_seeds": [0]})  # invalid value -> ServiceError


def test_expand_grid_unknown_axis_lists_valid_fields():
    import dataclasses

    with pytest.raises(ServiceError) as excinfo:
        expand_grid(CFG, {"lamda_skip": [1]})  # typo'd axis
    message = str(excinfo.value)
    assert "lamda_skip" in message and "valid fields" in message
    # Every real FinderConfig field is named, so the fix is in the error.
    for config_field in dataclasses.fields(FinderConfig):
        assert config_field.name in message


def test_plan_sweep_deduplicates_overlapping_points(small):
    netlist, _ = small
    # lambda_skip=20 equals the base value, so the grid collapses 4 -> 2.
    plan = plan_sweep(
        [("d", netlist)], CFG, {"lambda_skip": [20, 20], "num_seeds": [4, 6]}
    )
    assert len(plan.points) == 4
    assert len(plan.jobs) == 2
    assert plan.num_deduplicated == 2
    answered = {point.job_index for point in plan.points}
    assert answered == set(range(len(plan.jobs)))


def test_plan_sweep_never_deduplicates_nondeterministic_points(small):
    netlist, _ = small
    base = FinderConfig(num_seeds=4, seed=None)
    plan = plan_sweep([("d", netlist)], base, {"lambda_skip": [20, 20]})
    # Identical configs, but seed=None means independent random samples:
    # both points must get their own job.
    assert len(plan.points) == 2
    assert len(plan.jobs) == 2
    assert plan.num_deduplicated == 0


def test_worker_context_memo_is_bounded(small):
    import pickle

    from repro.service import pool as pool_module

    netlist, _ = small
    context = ("pickle", pickle.dumps((netlist, None)))
    pool_module._WORKER_CONTEXTS.clear()
    try:
        for i in range(pool_module._WORKER_CONTEXT_LIMIT + 2):
            result = pool_module._worker_run_batch(f"k{i}", CFG, [], context=context)
            assert result == []
        assert len(pool_module._WORKER_CONTEXTS) == pool_module._WORKER_CONTEXT_LIMIT
        # The oldest contexts were evicted; a bare batch for one bounces.
        assert pool_module._worker_run_batch("k0", CFG, []) == "__repro-missing-context__"
        # A retained one still answers without re-shipping.
        last = f"k{pool_module._WORKER_CONTEXT_LIMIT + 1}"
        assert pool_module._worker_run_batch(last, CFG, []) == []
    finally:
        pool_module._WORKER_CONTEXTS.clear()


def test_run_sweep_fans_results_back_to_points(tmp_path, small):
    netlist, _ = small
    with ResultStore(str(tmp_path)) as store:
        with BatchRunner(workers=1, store=store) as runner:
            outcome = run_sweep(
                [("d", netlist)], CFG, {"num_seeds": [4, 4, 6]}, runner
            )
    pairs = outcome.point_results()
    assert len(pairs) == 3
    assert pairs[0][1] is pairs[1][1]  # deduplicated points share one result
    assert all(result.ok for _, result in pairs)


# ----------------------------------------------------------------------
# Rent fallback satellite
# ----------------------------------------------------------------------
def test_rent_fallback_flag_default_false(small_report):
    assert small_report.rent_fallback is False
    assert "assumed default" not in small_report.summary()


def test_rent_fallback_fires_on_degenerate_netlist():
    """A netlist where no ordering yields a usable Rent prefix must be
    flagged, not silently reported as a measured p=0.6."""
    from repro.netlist.builder import NetlistBuilder

    builder = NetlistBuilder()
    builder.add_cells(10)  # fully disconnected: every ordering is [seed]
    netlist = builder.build()
    report = TangledLogicFinder(
        netlist, FinderConfig(num_seeds=3, seed=1)
    ).run()
    assert report.rent_fallback is True
    assert report.rent_exponent == DEFAULT_RENT_EXPONENT
    assert "assumed default" in report.summary()


def test_fingerprint_normalizes_int_valued_float_fields():
    a = CFG.with_overrides(refine_length_factor=2)
    b = CFG.with_overrides(refine_length_factor=2.0)
    assert a == b
    assert fingerprint_config(a) == fingerprint_config(b)


def test_cache_hit_runtime_is_measured(tmp_path, small):
    netlist, _ = small
    job = DetectionJob(netlist=netlist, config=CFG)
    with ResultStore(str(tmp_path)) as store:
        with BatchRunner(workers=1, store=store) as runner:
            runner.run_one(job)
            warm = runner.run_one(job)
    assert warm.cached
    assert warm.runtime_seconds > 0.0  # lookup time, not a hardcoded zero


def test_rent_fallback_is_named_constant_and_flagged(small_report):
    assert DEFAULT_RENT_EXPONENT == 0.6
    flagged = FinderReport(
        gtls=(),
        config=CFG,
        rent_exponent=DEFAULT_RENT_EXPONENT,
        num_orderings=0,
        num_candidates=0,
        runtime_seconds=0.0,
        rent_fallback=True,
    )
    assert "assumed default" in flagged.summary()


# ----------------------------------------------------------------------
# Experiments cache opt-in
# ----------------------------------------------------------------------
def test_experiments_detect_uses_cache_dir(tmp_path, monkeypatch, small):
    from repro.flow import CACHE_ENV_VAR, detect

    netlist, _ = small
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    first = detect(netlist, CFG)
    second = detect(netlist, CFG)
    assert second == first
    with ResultStore(str(tmp_path)) as store:
        assert len(store) == 1


def test_experiments_detect_without_cache_dir(monkeypatch, small):
    from repro.flow import CACHE_ENV_VAR, detect

    netlist, _ = small
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    report = detect(netlist, CFG)
    plain = find_tangled_logic(netlist, CFG)
    assert report.gtls == plain.gtls
    assert report.rent_exponent == plain.rent_exponent


# ----------------------------------------------------------------------
# WAL concurrency: daemon threads + CLI runs share one cache directory
# ----------------------------------------------------------------------
def test_store_uses_wal_journal_mode(tmp_path):
    with ResultStore(str(tmp_path)) as store:
        assert store.journal_mode.lower() == "wal"


def test_store_two_concurrent_writers(tmp_path, small_report):
    """Two open stores (daemon + a concurrent CLI run) write one cache dir.

    Before WAL + busy_timeout, the second writer would hit ``database is
    locked``; now both sets of puts land and each store reads the other's
    rows through its own connection.
    """
    import dataclasses
    import threading

    writers = [ResultStore(str(tmp_path)) for _ in range(2)]
    errors = []

    def hammer(store, offset):
        try:
            for index in range(20):
                report = dataclasses.replace(
                    small_report,
                    config=dataclasses.replace(
                        small_report.config, seed=offset * 100 + index
                    ),
                )
                store.put(f"writer{offset}-{index:03d}", report)
        except Exception as error:  # surfaced after the join
            errors.append(error)

    threads = [
        threading.Thread(target=hammer, args=(store, offset))
        for offset, store in enumerate(writers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    try:
        # Cross-visibility: each connection sees both writers' rows.
        for store in writers:
            assert len(store) == 40
            assert store.get("writer0-000") is not None
            assert store.get("writer1-019") is not None
    finally:
        for store in writers:
            store.close()


def test_store_concurrent_same_fingerprint_upsert(tmp_path, small_report):
    """Both writers racing on the SAME fingerprint must not corrupt the row."""
    import threading

    writers = [ResultStore(str(tmp_path)) for _ in range(2)]
    errors = []

    def hammer(store):
        try:
            for _ in range(10):
                store.put("shared-fingerprint", small_report)
        except Exception as error:
            errors.append(error)

    threads = [threading.Thread(target=hammer, args=(s,)) for s in writers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    try:
        assert writers[0].get("shared-fingerprint") == small_report
        assert len(writers[1]) == 1
    finally:
        for store in writers:
            store.close()
