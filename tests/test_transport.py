"""Context transport: shared-memory / pack-file / pickle parity and hygiene.

The pool may ship a context as a pickled payload, a shared-memory
descriptor or a pack-file descriptor; all three must produce bit-identical
detection results, the descriptor paths must actually be small, and every
shared-memory segment must be released on shutdown.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import pytest

from repro.cli import main
from repro.finder import FinderConfig, TangledLogicFinder, find_tangled_logic
from repro.generators.random_gtl import planted_gtl_graph
from repro.io.binfmt import load_packed, serialize_netlist, write_packed
from repro.io.hgr import write_hgr
from repro.obs import trace
from repro.obs.metrics import counter_values
from repro.obs.report import RunReport
from repro.service import pool as pool_module
from repro.service.jobs import BatchRunner, DetectionJob
from repro.service.pool import (
    _MISSING_CONTEXT,
    _WORKER_CONTEXTS,
    _WORKER_SEGMENTS,
    PICKLE_TRANSPORT_ENV,
    WorkerPool,
    _worker_run_batch,
    transport_mode,
)

CFG = FinderConfig(num_seeds=8, seed=3)
CFG2 = FinderConfig(num_seeds=8, seed=3, workers=2)

# Under REPRO_PICKLE_TRANSPORT=1 or the scalar reference backend the pool
# (correctly) never uses descriptor transports, so tests asserting shm/file
# shipping would fail for the wrong reason.  Parity under the pickle path is
# covered by test_pickle_transport_matches_serial and the tier-1 CI leg that
# sets REPRO_PICKLE_TRANSPORT=1 for the whole suite.
requires_shared_transport = pytest.mark.skipif(
    transport_mode() != "shared",
    reason="descriptor transports are disabled in this configuration",
)


@pytest.fixture(scope="module")
def design():
    netlist, _ = planted_gtl_graph(900, [70], seed=9)
    return netlist


@pytest.fixture(scope="module")
def serial_report(design):
    return find_tangled_logic(design, CFG)


def _same_report(a, b):
    return (
        a.gtls == b.gtls
        and a.rent_exponent == b.rent_exponent
        and a.num_orderings == b.num_orderings
        and a.num_candidates == b.num_candidates
    )


# ---------------------------------------------------------------- mode switch
def test_transport_mode_switches(monkeypatch):
    monkeypatch.delenv(PICKLE_TRANSPORT_ENV, raising=False)
    monkeypatch.setenv("REPRO_SCALAR_BACKEND", "0")
    assert transport_mode() == "shared"
    monkeypatch.setenv(PICKLE_TRANSPORT_ENV, "1")
    assert transport_mode() == "pickle"
    monkeypatch.delenv(PICKLE_TRANSPORT_ENV)
    # The scalar reference backend works on tuples; shm views don't help it.
    monkeypatch.setenv("REPRO_SCALAR_BACKEND", "1")
    assert transport_mode() == "pickle"


# ---------------------------------------------------------------- parity
@requires_shared_transport
def test_shm_transport_matches_serial(design, serial_report):
    with WorkerPool(2) as pool:
        report = TangledLogicFinder(design, CFG2).run(pool=pool)
        assert _same_report(report, serial_report)
        counts = counter_values(pool.metrics.snapshot())
        assert counts["pool.shm_contexts"] >= 1
        assert counts["pool.shm_segments"] == 1
        assert counts["pool.pickle_contexts"] == 0
        # Descriptors, not payloads, cross the pickle channel per batch.
        per_batch = counts["pool.context_bytes"] / counts["pool.context_shipments"]
        assert per_batch < 4096
        assert counts["pool.shm_bytes"] == len(serialize_netlist(design))
    assert pool._segments == {}


def test_pickle_transport_matches_serial(design, serial_report, monkeypatch):
    monkeypatch.setenv(PICKLE_TRANSPORT_ENV, "1")
    with WorkerPool(2) as pool:
        report = TangledLogicFinder(design, CFG2).run(pool=pool)
        assert _same_report(report, serial_report)
        counts = counter_values(pool.metrics.snapshot())
        assert counts["pool.pickle_contexts"] >= 1
        assert counts["pool.shm_segments"] == 0
        per_batch = counts["pool.context_bytes"] / counts["pool.context_shipments"]
        assert per_batch > 10_000  # the full payload, linear in design size


@requires_shared_transport
def test_file_transport_matches_serial(design, serial_report, tmp_path):
    path = str(tmp_path / "design.nla")
    write_packed(design, path)
    packed = load_packed(path)
    with WorkerPool(2) as pool:
        report = TangledLogicFinder(packed, CFG2).run(pool=pool)
        assert _same_report(report, serial_report)
        # Workers mmap the pack file itself: no segment, tiny descriptor.
        counts = counter_values(pool.metrics.snapshot())
        assert counts["pool.file_contexts"] >= 1
        assert counts["pool.shm_segments"] == 0
        per_batch = counts["pool.context_bytes"] / counts["pool.context_shipments"]
        assert per_batch < 4096


def test_file_transport_requires_live_matching_file(design, tmp_path):
    path = str(tmp_path / "design.nla")
    write_packed(design, path)
    packed = load_packed(path)
    pool = WorkerPool(2)
    assert pool._file_context(packed) is not None
    # Replace the file with a different design: fingerprint mismatch.
    other, _ = planted_gtl_graph(120, [30], seed=1)
    write_packed(other, str(tmp_path / "other.nla"))
    os.replace(str(tmp_path / "other.nla"), path)
    assert pool._file_context(packed) is None
    os.remove(path)
    assert pool._file_context(packed) is None
    # Eager (parsed) netlists never qualify.
    assert pool._file_context(design) is None
    pool.shutdown()


def test_scalar_backend_forces_pickle_transport(design, serial_report, monkeypatch):
    monkeypatch.setenv("REPRO_SCALAR_BACKEND", "1")
    scalar_serial = find_tangled_logic(design, CFG)
    assert _same_report(scalar_serial, serial_report)
    with WorkerPool(2) as pool:
        report = TangledLogicFinder(design, CFG2).run(pool=pool)
        assert _same_report(report, serial_report)
        counts = counter_values(pool.metrics.snapshot())
        assert counts["pool.pickle_contexts"] >= 1
        assert counts["pool.shm_segments"] == 0


# ---------------------------------------------------------------- lifecycle
@requires_shared_transport
def test_shm_segments_unlinked_on_shutdown(design):
    pool = WorkerPool(2)
    TangledLogicFinder(design, CFG2).run(pool=pool)
    assert len(pool._segments) == 1
    name = next(iter(pool._segments.values()))[0].name
    pool.shutdown()
    assert pool._segments == {}
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_worker_installs_and_evicts_shm_descriptors(design):
    """Drive the worker-side protocol in-process: descriptor install, LRU
    eviction closing the evicted context's segment mapping."""
    blob = serialize_netlist(design)
    segment = shared_memory.SharedMemory(create=True, size=len(blob))
    saved_contexts, saved_segments = dict(_WORKER_CONTEXTS), dict(_WORKER_SEGMENTS)
    _WORKER_CONTEXTS.clear()
    _WORKER_SEGMENTS.clear()
    try:
        segment.buf[: len(blob)] = blob
        import pickle

        descriptor = ("shm", segment.name, len(blob))
        assert _worker_run_batch("key-shm", CFG, [], context=None) == _MISSING_CONTEXT
        assert _worker_run_batch("key-shm", CFG, [], context=descriptor) == []
        assert _WORKER_CONTEXTS["key-shm"] == design
        assert "key-shm" in _WORKER_SEGMENTS
        # Flood the memo: the shm-backed context must be evicted and its
        # mapping closed without errors.
        bump = ("pickle", pickle.dumps((design, None)))
        for index in range(8):
            _worker_run_batch(f"bump{index}", CFG, [], context=bump)
        assert "key-shm" not in _WORKER_CONTEXTS
        assert "key-shm" not in _WORKER_SEGMENTS
    finally:
        _WORKER_CONTEXTS.clear()
        _WORKER_SEGMENTS.clear()
        _WORKER_CONTEXTS.update(saved_contexts)
        _WORKER_SEGMENTS.update(saved_segments)
        segment.close()
        segment.unlink()


# ---------------------------------------------------------------- telemetry
@requires_shared_transport
def test_transport_counters_surface_in_run_report(design):
    trace.enable()
    try:
        with trace.span("test.root"), WorkerPool(2) as pool:
            TangledLogicFinder(design, CFG2).run(pool=pool)
        report = RunReport.from_tracer()
    finally:
        trace.disable()
    counters = report.counters()
    assert counters.get("pool.shm_segments") == 1
    assert counters.get("pool.shm_bytes") == len(serialize_netlist(design))
    assert 0 < counters.get("pool.descriptor_bytes") < 8192
    assert counters.get("pool.context_bytes") >= counters["pool.descriptor_bytes"]
    tasks = [span for span in report.spans if span["name"] == "pool.task"]
    assert tasks
    assert all(span["attrs"].get("maxrss_kb", 0) > 0 for span in tasks)


# ---------------------------------------------------------------- CLI
def test_cli_pack_and_detect_from_packed(tmp_path, capsys, design):
    source = str(tmp_path / "design.hgr")
    write_hgr(design, source)
    packed = str(tmp_path / "design.nla")
    assert main(["pack", source, "--out", packed]) == 0
    out = capsys.readouterr().out
    assert "fingerprint:" in out
    assert os.path.exists(packed)

    membership_a = str(tmp_path / "a.txt")
    membership_b = str(tmp_path / "b.txt")
    assert main([
        "detect", source, "--no-cache", "--seeds", "6", "--seed", "3", "--out", membership_a,
    ]) == 0
    assert main([
        "detect", packed, "--no-cache", "--seeds", "6", "--seed", "3", "--out", membership_b,
    ]) == 0
    with open(membership_a) as a, open(membership_b) as b:
        assert a.read() == b.read()


def test_cli_pack_default_output_path(tmp_path, capsys, design):
    source = str(tmp_path / "design.hgr")
    write_hgr(design, source)
    assert main(["pack", source]) == 0
    assert os.path.exists(str(tmp_path / "design.nla"))


# ----------------------------------------------------------------------
# Idle worker death: lazy respawn instead of a failed next task
# ----------------------------------------------------------------------
def test_pool_respawns_after_idle_worker_death(design, serial_report):
    """A worker killed BETWEEN jobs is replaced lazily on the next run.

    This is the daemon scenario: the pool sits warm for hours and a worker
    gets OOM-killed while idle.  The next submitted job must transparently
    rebuild the executor — not fail — and the rebuild must be recorded as a
    respawn, never as a retry-consuming restart.
    """
    import os
    import signal
    import time

    with WorkerPool(2) as pool:
        first = TangledLogicFinder(design, CFG2).run(pool=pool)
        assert _same_report(first, serial_report)
        assert pool.metrics.counter("pool.respawns").value == 0

        processes = dict(pool._executor._processes)
        victim = next(iter(processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while victim.is_alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not victim.is_alive()

        second = TangledLogicFinder(design, CFG2).run(pool=pool)
        assert _same_report(second, serial_report)
        counts = counter_values(pool.metrics.snapshot())
        assert counts["pool.respawns"] == 1
        assert counts["pool.restarts"] == 0  # never billed against max_retries


def test_pool_workers_dead_is_false_for_healthy_pool(design):
    with WorkerPool(2) as pool:
        assert pool._workers_dead() is False  # no executor yet
        TangledLogicFinder(design, CFG2).run(pool=pool)
        assert pool._workers_dead() is False  # live workers
    assert pool._workers_dead() is False  # shut down: nothing to respawn


# ----------------------------------------------------------------------
# Crashes during a task: restart, replay, and a job that fails alone
# ----------------------------------------------------------------------
def _seed_runner_exiting_once(marker):
    """A ``_process_seed`` whose first call (across all workers) kills its
    worker process; every later call is the real one."""
    real = pool_module._process_seed

    def process_seed(netlist, config, seed_cell, rng_seed):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return real(netlist, config, seed_cell, rng_seed)
        os._exit(1)

    return process_seed


def test_pool_replays_batches_after_in_task_worker_crash(
    design, serial_report, tmp_path, monkeypatch
):
    # Patched before the executor forks, so the workers inherit it.
    monkeypatch.setattr(
        pool_module, "_process_seed",
        _seed_runner_exiting_once(str(tmp_path / "crashed")),
    )
    with WorkerPool(2) as pool:
        report = TangledLogicFinder(design, CFG2).run(pool=pool)
        counts = counter_values(pool.metrics.snapshot())
    assert (tmp_path / "crashed").exists()
    assert _same_report(report, serial_report)
    assert counts["pool.restarts"] == 1
    assert counts.get("pool.respawns", 0) == 0


def test_batch_runner_isolates_a_job_that_keeps_killing_its_worker(
    design, monkeypatch
):
    real = pool_module._process_seed

    def process_seed(netlist, config, seed_cell, rng_seed):
        if config.lambda_skip == 7:  # the poisoned job
            os._exit(1)
        return real(netlist, config, seed_cell, rng_seed)

    monkeypatch.setattr(pool_module, "_process_seed", process_seed)
    jobs = [
        DetectionJob(design, CFG.with_overrides(lambda_skip=skip), label=str(skip))
        for skip in (0, 7, 10)
    ]
    with BatchRunner(workers=2) as runner:
        results = runner.run(jobs)
    poisoned = results[1]
    assert not poisoned.ok and "crashed" in poisoned.error
    for result in (results[0], results[2]):
        assert result.ok
        assert _same_report(result.report, find_tangled_logic(design, result.job.config))


# ----------------------------------------------------------------------
# More designs than the segment LRU holds
# ----------------------------------------------------------------------
@requires_shared_transport
def test_segments_in_use_survive_the_lru(design):
    designs = [planted_gtl_graph(200 + 10 * i, [30], seed=i)[0] for i in range(6)]
    keys = [pool_module.context_key(netlist) for netlist in designs]
    with WorkerPool(2) as pool:
        for netlist, key in zip(designs, keys):
            assert pool._shm_context(netlist, key, in_use=keys) is not None
        assert list(pool._segments) == keys  # none unlinked while in use
        pool._trim_segments(in_use=keys[-1:])
        assert list(pool._segments) == keys[2:]  # LRU order, live key kept


def test_sweep_over_more_designs_than_segment_slots_matches_serial(tmp_path, capsys):
    import json

    names = []
    for index in range(pool_module._WORKER_CONTEXT_LIMIT + 2):
        netlist, _ = planted_gtl_graph(300 + 20 * index, [40], seed=index)
        names.append(f"d{index}.hgr")
        write_hgr(netlist, str(tmp_path / names[-1]))
    manifest = tmp_path / "sweep.json"
    manifest.write_text(json.dumps({
        "designs": names,
        "base": {"num_seeds": 4, "seed": 3},
        "grid": {"lambda_skip": [0, 10]},
    }))

    def rows(workers):
        path = str(tmp_path / f"w{workers}.jsonl")
        assert main(["sweep", str(manifest), "--quiet", "--no-cache",
                     "--workers", str(workers), "--jsonl", path]) == 0
        out = []
        for line in open(path):
            row = json.loads(line)
            row.pop("runtime_seconds")
            row["report"].pop("runtime_seconds")
            out.append(row)
        return out

    serial = rows(1)
    assert len(serial) == 2 * len(names)
    assert rows(2) == serial
    capsys.readouterr()
