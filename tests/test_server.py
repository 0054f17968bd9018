"""Tests of the detection daemon (:mod:`repro.server`).

Three layers:

* the :class:`~repro.server.queue.JobQueue` scheduling semantics —
  backpressure, priority ordering, starvation freedom, cancellation and
  drain — exercised directly (deterministic, no sockets);
* the pack-ahead corpus (:mod:`repro.io.corpus`) and the daemon's design
  LRU;
* the live daemon over a real Unix socket: cold/warm submits, report
  parity with the offline :class:`~repro.service.jobs.BatchRunner`,
  status/cancel/shutdown, and the CLI subcommands against it.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.cli import main
from repro.errors import ParseError, ServerBusy, ServerError
from repro.finder import FinderConfig, find_tangled_logic
from repro.generators.random_gtl import planted_gtl_graph
from repro.io import read_header
from repro.io.corpus import (
    corpus_designs_from_manifest,
    load_pack_index,
    pack_corpus,
)
from repro.io.hgr import write_hgr
from repro.obs.metrics import counter_values
from repro.server import Client, JobQueue, JobRecord, ServerConfig, ServerDaemon
from repro.server.daemon import DesignCache
from repro.server.queue import CANCELLED, DONE
from repro.service.codec import report_from_dict, report_to_dict
from repro.service.fingerprint import fingerprint_netlist

CFG = {"num_seeds": 6, "seed": 3}


def _job(priority="batch", label=""):
    return JobRecord(kind="detect", priority=priority, request={}, label=label)


# ----------------------------------------------------------------------
# JobQueue semantics
# ----------------------------------------------------------------------
def test_queue_fifo_within_class():
    queue = JobQueue()
    first, second = _job(label="a"), _job(label="b")
    assert queue.submit(first) == 1
    assert queue.submit(second) == 2
    assert queue.next_job() is first
    assert queue.next_job() is second


def test_queue_backpressure_rejects_with_retry_after():
    queue = JobQueue(max_depth=2, retry_after_s=0.5)
    queue.submit(_job())
    queue.submit(_job())
    with pytest.raises(ServerBusy) as excinfo:
        queue.submit(_job())
    assert excinfo.value.retry_after_s > 0.5  # scaled by the backlog
    assert queue.metrics.counter("queue.rejected").value == 1
    assert queue.depth() == 2  # the rejected job was never admitted


def test_queue_priority_ordering_under_load():
    queue = JobQueue()
    sweep = _job("sweep")
    batch = _job("batch")
    interactive = _job("interactive")
    queue.submit(sweep)
    queue.submit(batch)
    queue.submit(interactive)
    order = [queue.next_job().priority for _ in range(3)]
    assert order == ["interactive", "batch", "sweep"]


def test_queue_starvation_freedom():
    """A sweep under sustained interactive load is served within the limit."""
    queue = JobQueue(starvation_limit=2)
    queue.submit(_job("sweep"))
    for _ in range(6):
        queue.submit(_job("interactive"))
    order = [queue.next_job().priority for _ in range(7)]
    # Two interactive dispatches skip the sweep; the third serves it.
    assert order[:3] == ["interactive", "interactive", "sweep"]
    assert order[3:] == ["interactive"] * 4


def test_queue_cancel_queued_job():
    queue = JobQueue()
    record = _job()
    queue.submit(record)
    cancelled = queue.cancel(record.job_id)
    assert cancelled.state == CANCELLED
    assert queue.depth() == 0
    assert queue.metrics.counter("queue.cancelled").value == 1
    # Still queryable after cancellation.
    assert queue.get(record.job_id) is record


def test_queue_cancel_rejects_non_queued():
    queue = JobQueue()
    record = _job()
    queue.submit(record)
    queue.next_job()
    record.state = "running"
    with pytest.raises(ServerError, match="only queued"):
        queue.cancel(record.job_id)
    with pytest.raises(ServerError, match="unknown job id"):
        queue.cancel("nope")


def test_queue_close_drain_serves_backlog():
    queue = JobQueue()
    first, second = _job(), _job()
    queue.submit(first)
    queue.submit(second)
    assert queue.close(drain=True) == []
    assert queue.next_job() is first
    assert queue.next_job() is second
    assert queue.next_job() is None  # closed + empty
    with pytest.raises(ServerError, match="shutting down"):
        queue.submit(_job())


def test_queue_close_without_drain_cancels_backlog():
    queue = JobQueue()
    record = _job()
    queue.submit(record)
    dropped = queue.close(drain=False)
    assert dropped == [record]
    assert record.state == CANCELLED
    assert queue.next_job() is None


def test_queue_next_job_timeout():
    queue = JobQueue()
    assert queue.next_job(timeout=0.05) is None


def test_queue_close_wakes_blocked_scheduler():
    queue = JobQueue()
    seen = []
    thread = threading.Thread(target=lambda: seen.append(queue.next_job()))
    thread.start()
    time.sleep(0.1)
    queue.close(drain=True)
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert seen == [None]


def test_record_subscribe_replays_history():
    record = _job()
    record.publish("queued", position=1)
    subscriber = record.subscribe()  # late subscriber
    record.publish("started")
    events = [subscriber.get(timeout=1)["event"] for _ in range(2)]
    assert events == ["queued", "started"]
    record.unsubscribe(subscriber)
    record.publish("result")
    assert subscriber.empty()


def test_queue_history_evicts_only_terminal_records():
    queue = JobQueue(history=2)
    live = _job()
    queue.submit(live)
    done = []
    for _ in range(3):
        record = _job()
        queue.submit(record)
        queue.cancel(record.job_id)
        done.append(record)
    assert queue.get(live.job_id) is live  # live jobs never evicted
    assert queue.get(done[0].job_id) is None  # oldest terminal dropped
    assert queue.get(done[-1].job_id) is done[-1]


# ----------------------------------------------------------------------
# Pack-ahead corpus + design LRU
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Two small designs on disk plus their netlists."""
    from repro.io import load_design

    root = tmp_path_factory.mktemp("corpus")
    designs = {}
    for name, seed in (("a", 3), ("b", 4)):
        netlist, _ = planted_gtl_graph(300, [40], seed=seed)
        path = str(root / f"{name}.hgr")
        write_hgr(netlist, path)
        # Reload: .hgr keeps topology only, so the on-disk content (the
        # daemon's view) fingerprints differently from the generator's.
        designs[name] = (path, load_design(path))
    return designs


def test_manifest_dialects(tmp_path):
    base = str(tmp_path)
    expected = [os.path.join(base, "a.hgr")]
    assert corpus_designs_from_manifest({"designs": ["a.hgr"]}, base) == expected
    assert corpus_designs_from_manifest(
        {"jobs": [{"design": "a.hgr"}, {"design": "a.hgr"}]}, base
    ) == expected  # deduplicated
    assert corpus_designs_from_manifest(["a.hgr"], base) == expected
    with pytest.raises(ParseError):
        corpus_designs_from_manifest({"nope": []}, base)
    with pytest.raises(ParseError):
        corpus_designs_from_manifest({"designs": []}, base)


def test_pack_corpus_is_idempotent(corpus, tmp_path):
    paths = [corpus["a"][0], corpus["b"][0]]
    out = str(tmp_path / "packed")
    first = pack_corpus(paths, out)
    assert [entry.packed for entry in first] == [True, True]
    second = pack_corpus(paths, out)
    assert [entry.packed for entry in second] == [False, False]
    index = load_pack_index(out)
    assert set(index) == {os.path.abspath(p) for p in paths}
    for entry in index.values():
        assert read_header(entry.pack_path).fingerprint == entry.fingerprint


def test_pack_corpus_repacks_touched_source(corpus, tmp_path):
    path, _ = corpus["a"]
    out = str(tmp_path / "packed")
    pack_corpus([path], out)
    os.utime(path, ns=(1, 1))  # stat changes, content does not
    entries = pack_corpus([path], out)
    assert entries[0].packed is True


def test_load_pack_index_missing_and_malformed(tmp_path):
    assert load_pack_index(str(tmp_path)) == {}
    bad = tmp_path / "pack_index.json"
    bad.write_text('{"version": 99, "designs": {}}')
    with pytest.raises(ParseError, match="version"):
        load_pack_index(str(tmp_path))


def test_design_cache_lru_and_stat_invalidation(corpus):
    cache = DesignCache(max_designs=1)
    path_a, netlist_a = corpus["a"]
    path_b, _ = corpus["b"]
    loaded, fingerprint = cache.get(path_a)
    assert fingerprint == fingerprint_netlist(netlist_a)
    assert cache.get(path_a)[0] is loaded  # hit: same object
    cache.get(path_b)  # evicts a (max_designs=1)
    assert len(cache) == 1
    cache.get(path_a)
    counts = counter_values(cache.metrics.snapshot())
    assert counts["designs.hits"] == 1 and counts["designs.misses"] == 3

    os.utime(path_a, ns=(2, 2))
    reloaded, _ = cache.get(path_a)
    assert reloaded is not loaded
    assert cache.metrics.counter("designs.reloads").value == 1


def test_design_cache_serves_from_pack_index(corpus, tmp_path):
    path, netlist = corpus["a"]
    out = str(tmp_path / "packed")
    pack_corpus([path], out)
    cache = DesignCache(pack_index=out)
    loaded, fingerprint = cache.get(path)
    assert cache.metrics.counter("designs.pack_loads").value == 1
    assert fingerprint == fingerprint_netlist(netlist)
    assert loaded.num_cells == netlist.num_cells


def test_design_cache_missing_file():
    cache = DesignCache()
    with pytest.raises(ServerError, match="cannot stat"):
        cache.get("/nonexistent/design.hgr")


# ----------------------------------------------------------------------
# Live daemon over a real socket
# ----------------------------------------------------------------------
@pytest.fixture()
def daemon_factory(tmp_path):
    """Start daemons on per-test sockets; always shut them down."""
    started = []

    def start(**overrides):
        overrides.setdefault(
            "socket_path", str(tmp_path / f"d{len(started)}.sock")
        )
        overrides.setdefault("cache_dir", str(tmp_path / "cache"))
        start_scheduler = overrides.pop("start_scheduler", True)
        daemon = ServerDaemon(
            ServerConfig(**overrides), start_scheduler=start_scheduler
        )
        daemon.start()
        started.append(daemon)
        return daemon, Client(daemon.config.socket_path)

    yield start
    for daemon in started:
        daemon.shutdown(drain=False)


def test_daemon_ping_and_status(corpus, daemon_factory):
    daemon, client = daemon_factory()
    pong = client.ping()
    assert pong["event"] == "pong" and pong["pid"] == os.getpid()
    status = client.status()
    assert status["queue"]["depth"] == 0
    assert status["workers"] == 1
    assert pong["protocol"] == 3 and "counters" not in status
    # One merged metrics snapshot; this status request is the second.
    assert counter_values(status["metrics"])["server.requests"] == 2


def test_daemon_cold_then_warm_bit_identical_and_fast(corpus, daemon_factory):
    daemon, client = daemon_factory()
    path, netlist = corpus["a"]
    cold = client.submit(path, config=CFG, priority="interactive")
    assert cold["event"] == "result" and cold["cached"] is False
    batches_after_cold = daemon.pool.metrics.counter("pool.batches").value

    began = time.perf_counter()
    warm = client.submit(path, config=CFG)
    warm_seconds = time.perf_counter() - began
    assert warm["cached"] is True
    assert warm["report"] == cold["report"]  # bit-identical payloads
    assert warm_seconds < 0.05  # the acceptance bound: no spawn, no queue
    # The warm answer never touched the pool or the queue.
    counts = counter_values(client.status()["metrics"])
    assert counts["pool.batches"] == batches_after_cold
    assert counts["server.warm_hits"] == 1
    assert counts["queue.submitted"] == 1
    assert counts["server.done.interactive"] == 1
    assert counts["store.hits"] == 1

    # Identical to an offline run of the same job (modulo wall-clock).
    offline = find_tangled_logic(netlist, FinderConfig(**CFG))
    offline_dict = report_to_dict(offline)
    offline_dict.pop("runtime_seconds")
    cold_dict = dict(cold["report"])
    cold_dict.pop("runtime_seconds")
    assert offline_dict == cold_dict
    assert report_from_dict(warm["report"]).gtls == offline.gtls


def test_daemon_streams_lifecycle_events(corpus, daemon_factory):
    daemon, client = daemon_factory()
    events = []
    client.submit(corpus["a"][0], config=CFG, on_event=events.append)
    assert [e["event"] for e in events] == ["queued", "started", "result"]
    job_id = events[0]["job_id"]
    job = client.status(job_id)["job"]
    assert job["state"] == DONE
    # result op replays the terminal payload after the fact.
    replay = client.result(job_id)
    assert replay["event"] == "result" and "report" in replay


def test_daemon_flow_cold_then_warm(corpus, daemon_factory):
    daemon, client = daemon_factory()
    stages = [{"stage": "detect", "num_seeds": 6, "seed": 3}]
    cold = client.submit(corpus["a"][0], kind="flow", stages=stages)
    assert [s["cached"] for s in cold["stages"]] == [False]
    warm = client.submit(corpus["a"][0], kind="flow", stages=stages)
    assert warm["cached"] is True
    assert [s["fingerprint"] for s in warm["stages"]] == [
        s["fingerprint"] for s in cold["stages"]
    ]


def test_daemon_backpressure_rejection(corpus, daemon_factory):
    daemon, client = daemon_factory(max_queue_depth=1, start_scheduler=False)
    first = client.submit(
        corpus["a"][0], config={"num_seeds": 6, "seed": 11}, wait=False
    )
    assert first["event"] == "queued"
    with pytest.raises(ServerBusy) as excinfo:
        client.submit(
            corpus["a"][0], config={"num_seeds": 6, "seed": 12}, wait=False
        )
    assert excinfo.value.retry_after_s > 0
    assert daemon.queue.metrics.counter("queue.rejected").value == 1


def test_daemon_cancel_queued_job(corpus, daemon_factory):
    daemon, client = daemon_factory(start_scheduler=False)
    queued = client.submit(
        corpus["a"][0], config={"num_seeds": 6, "seed": 13}, wait=False
    )
    response = client.cancel(queued["job_id"])
    assert response["state"] == CANCELLED
    assert client.status(queued["job_id"])["job"]["state"] == CANCELLED
    with pytest.raises(ServerError):  # cancelled is terminal
        client.result(queued["job_id"])


def test_daemon_drain_completes_inflight_work(corpus, daemon_factory):
    daemon, client = daemon_factory()
    job_ids = [
        client.submit(
            corpus["a"][0], config={"num_seeds": 6, "seed": 20 + i},
            wait=False,
        )["job_id"]
        for i in range(3)
    ]
    client.shutdown(drain=True)
    assert daemon.wait_until_stopped(timeout=60)
    states = [daemon.queue.get(job_id).state for job_id in job_ids]
    assert states == [DONE, DONE, DONE]  # nothing dropped on the floor


def test_daemon_shutdown_without_drain_cancels_backlog(corpus, daemon_factory):
    daemon, client = daemon_factory(start_scheduler=False)
    queued = client.submit(
        corpus["a"][0], config={"num_seeds": 6, "seed": 31}, wait=False
    )
    client.shutdown(drain=False)
    assert daemon.wait_until_stopped(timeout=30)
    assert daemon.queue.get(queued["job_id"]).state == CANCELLED


def test_daemon_rejects_bad_requests(corpus, daemon_factory):
    daemon, client = daemon_factory()
    with pytest.raises(ServerError, match="unknown op"):
        client._roundtrip({"op": "dance"})
    with pytest.raises(ServerError, match="design"):
        client._roundtrip({"op": "submit", "kind": "detect"})
    with pytest.raises(ServerError, match="unknown job id"):
        client.status("feedfacecafe")
    with pytest.raises(ServerError, match="cannot stat"):
        client.submit("/nonexistent/x.hgr", config=CFG)


def test_daemon_refuses_second_daemon_on_live_socket(corpus, daemon_factory):
    daemon, _ = daemon_factory()
    with pytest.raises(ServerError, match="already listening"):
        ServerDaemon(
            ServerConfig(
                socket_path=daemon.config.socket_path,
                cache_dir=daemon.config.cache_dir,
            )
        ).start()


def test_daemon_claims_stale_socket(tmp_path, daemon_factory):
    import socket as socket_module

    stale = str(tmp_path / "stale.sock")
    leftover = socket_module.socket(
        socket_module.AF_UNIX, socket_module.SOCK_STREAM
    )
    leftover.bind(stale)
    leftover.close()  # socket file stays behind, nobody listening
    daemon, client = daemon_factory(socket_path=stale)
    assert client.ping()["event"] == "pong"


def test_client_without_daemon_raises():
    with pytest.raises(ServerError, match="is `repro serve` running"):
        Client("/tmp/no-such-repro-daemon.sock").ping()


# ----------------------------------------------------------------------
# CLI subcommands against a live daemon
# ----------------------------------------------------------------------
def test_cli_submit_and_status_roundtrip(corpus, daemon_factory, capsys):
    daemon, _ = daemon_factory()
    socket_path = daemon.config.socket_path
    path, _ = corpus["a"]
    assert main(["submit", path, "--socket", socket_path,
                 "--seeds", "6", "--seed", "3", "--quiet"]) == 0
    first = capsys.readouterr().out
    assert "computed in" in first
    assert main(["submit", path, "--socket", socket_path,
                 "--seeds", "6", "--seed", "3", "--quiet"]) == 0
    second = capsys.readouterr().out
    assert "cache in" in second
    assert first.splitlines()[0] == second.splitlines()[0]  # same summary

    assert main(["status", "--socket", socket_path]) == 0
    status_out = capsys.readouterr().out
    assert "1 warm hit(s)" in status_out
    assert main(["status", "--socket", socket_path, "--json"]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert metrics["server.warm_hits"] == {"kind": "counter", "value": 1}


def test_cli_submit_no_wait_then_poll(corpus, daemon_factory, capsys):
    daemon, client = daemon_factory()
    socket_path = daemon.config.socket_path
    assert main(["submit", corpus["b"][0], "--socket", socket_path,
                 "--seeds", "6", "--seed", "42", "--no-wait"]) == 0
    out = capsys.readouterr().out
    job_id = out.split("job ")[1].split()[0]
    for _ in range(200):
        if client.status(job_id)["job"]["state"] == DONE:
            break
        time.sleep(0.05)
    assert main(["status", job_id, "--socket", socket_path]) == 0
    assert "done" in capsys.readouterr().out


def test_cli_pack_out_dir(corpus, tmp_path, capsys):
    import json

    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"designs": [corpus["a"][0]]}))
    out_dir = str(tmp_path / "packed")
    assert main(["pack", str(manifest), "--out-dir", out_dir]) == 0
    assert "1 packed" in capsys.readouterr().out
    assert main(["pack", str(manifest), "--out-dir", out_dir]) == 0
    assert "1 reused" in capsys.readouterr().out
    assert load_pack_index(out_dir)


def test_cli_status_shutdown(corpus, daemon_factory, capsys):
    daemon, _ = daemon_factory()
    assert main(["status", "--socket", daemon.config.socket_path,
                 "--shutdown"]) == 0
    assert "shutdown requested" in capsys.readouterr().out
    assert daemon.wait_until_stopped(timeout=30)


# ----------------------------------------------------------------------
# Delta submits (protocol 2)
# ----------------------------------------------------------------------
#: Small explicit order length so a localized edit leaves most seed
#: footprints clean (see repro.incremental) — the regime delta submits
#: are built for.
DELTA_CFG = {"num_seeds": 6, "seed": 3, "max_order_length": 20}


def test_daemon_delta_submit_end_to_end(corpus, daemon_factory):
    """Edit travels as JSON; the design is never re-shipped or re-read."""
    from repro.generators.perturb import rewire_pins
    from repro.service.fingerprint import job_fingerprint

    daemon, client = daemon_factory()
    path, netlist = corpus["a"]
    base = client.submit(path, config=DELTA_CFG, priority="interactive")
    assert base["incremental"]["mode"] == "full"

    edited, delta = rewire_pins(netlist, 0.002, rng=1, return_delta=True)
    misses_before = daemon.designs.metrics.counter("designs.misses").value
    patched = client.submit(
        path, config=DELTA_CFG, delta=delta.to_dict(), priority="interactive"
    )
    assert patched["event"] == "result" and patched["cached"] is False
    assert patched["fingerprint"] == job_fingerprint(
        edited, FinderConfig(**DELTA_CFG)
    )
    provenance = patched["incremental"]
    assert provenance["mode"] == "incremental"
    assert provenance["base_fingerprint"] == fingerprint_netlist(netlist)
    assert 0 < provenance["seeds_recomputed"] < provenance["seeds_total"]
    # The base design was answered from the warm cache, not re-loaded.
    assert daemon.designs.metrics.counter("designs.misses").value == misses_before

    # Parity: the patched report equals an offline cold run on the edit.
    offline = report_to_dict(
        find_tangled_logic(edited, FinderConfig(**DELTA_CFG))
    )
    offline.pop("runtime_seconds")
    served = dict(patched["report"])
    served.pop("runtime_seconds")
    assert served == offline

    # Same delta again: answered from the result store, no recompute.
    warm = client.submit(path, config=DELTA_CFG, delta=delta.to_dict())
    assert warm["cached"] is True
    assert "incremental" not in warm


def test_daemon_delta_submit_validation(corpus, daemon_factory):
    daemon, client = daemon_factory()
    path, _ = corpus["a"]
    with pytest.raises(ServerError, match='kind "detect"'):
        client.submit(path, kind="flow", delta={"version": 1})
    with pytest.raises(ServerError, match="bad delta payload"):
        client.submit(path, config=DELTA_CFG, delta={"version": 999})
    with pytest.raises(ServerError, match="delta"):
        # Raw request with a non-dict delta (bypasses client validation).
        client._roundtrip(
            {"op": "submit", "kind": "detect", "design": path,
             "delta": "not-a-dict"}
        )


# ----------------------------------------------------------------------
# Job groups and per-class depths (sharded sweeps over the daemon)
# ----------------------------------------------------------------------
def test_status_reports_per_priority_class_depths(corpus, daemon_factory):
    daemon, client = daemon_factory(start_scheduler=False)
    path, _ = corpus["a"]
    client.submit(path, config={"num_seeds": 6, "seed": 40},
                  priority="interactive", wait=False)
    for seed in (41, 42):
        client.submit(path, config={"num_seeds": 6, "seed": seed},
                      priority="sweep", wait=False)
    depths = client.status()["queue"]["depths"]
    assert depths == {"interactive": 1, "batch": 0, "sweep": 2}


def test_cli_status_prints_per_class_depths(corpus, daemon_factory, capsys):
    daemon, client = daemon_factory(start_scheduler=False)
    path, _ = corpus["a"]
    client.submit(path, config={"num_seeds": 6, "seed": 50},
                  priority="sweep", wait=False, group="sweep/shard-0")
    assert main(["status", "--socket", daemon.config.socket_path]) == 0
    out = capsys.readouterr().out
    assert "(interactive=0 batch=0 sweep=1)" in out
    assert "[sweep/shard-0]" in out


def test_status_group_filter(corpus, daemon_factory):
    daemon, client = daemon_factory(start_scheduler=False)
    path, _ = corpus["a"]
    client.submit(path, config={"num_seeds": 6, "seed": 60},
                  priority="sweep", wait=False, group="night/shard-0")
    client.submit(path, config={"num_seeds": 6, "seed": 61},
                  priority="sweep", wait=False, group="night/shard-1")
    client.submit(path, config={"num_seeds": 6, "seed": 62}, wait=False)
    grouped = client.status(group="night/shard-1")["jobs"]
    assert len(grouped) == 1
    assert grouped[0]["group"] == "night/shard-1"
    assert len(client.status()["jobs"]) == 3


def test_sharded_sweep_via_daemon_matches_local(corpus, daemon_factory):
    """--via-daemon parity: priority-class-sweep submits, merged back into
    point order, bit-identical to a local sweep on a 2-worker pool."""
    from repro.service.aggregate import point_rows
    from repro.service.coordinator import SweepCoordinator
    from repro.service.jobs import BatchRunner
    from repro.service.sweep import run_sweep

    daemon, _ = daemon_factory()
    designs = [("a", corpus["a"][1]), ("b", corpus["b"][1])]
    design_paths = {"a": corpus["a"][0], "b": corpus["b"][0]}
    base = FinderConfig(num_seeds=4, seed=3)
    grid = {"lambda_skip": [0, 10]}

    remote = SweepCoordinator(
        2, daemon_socket=daemon.config.socket_path, group="parity",
    ).run(designs, base, grid, design_paths=design_paths)
    assert len(remote.shard_stats) == 2 and not remote.failed_shards
    assert all(result.ok for result in remote.job_results)
    with BatchRunner(workers=2, use_cache=False) as runner:
        local = run_sweep(designs, base, grid, runner)

    def rows(outcome):
        out = point_rows(outcome)
        for row in out:
            row.pop("runtime_seconds")
            row.pop("cached")
            row["report"].pop("runtime_seconds")
        return out

    assert rows(remote) == rows(local)
    # Every daemon-side job carries the coordinator's shard group.
    with Client(daemon.config.socket_path) as client:
        jobs = client.status(group="parity/shard-0")["jobs"]
    assert jobs and all(job["priority"] == "sweep" for job in jobs)


def test_cli_sweep_via_daemon_prints_shards_and_aggregate(
    corpus, daemon_factory, tmp_path, capsys
):
    daemon, _ = daemon_factory()
    manifest = tmp_path / "sweep.json"
    manifest.write_text(json.dumps({
        "designs": [corpus["a"][0], corpus["b"][0]],
        "base": {"num_seeds": 4, "seed": 3},
        "grid": {"lambda_skip": [0, 10]},
    }))
    aggregate = str(tmp_path / "agg.json")
    assert main(["sweep", str(manifest), "--via-daemon", "--shards", "2",
                 "--socket", daemon.config.socket_path, "--quiet",
                 "--aggregate", aggregate]) == 0
    out = capsys.readouterr().out
    assert "shard 0:" in out and "via daemon: 2 shard(s)" in out
    data = json.load(open(aggregate))
    assert data["mode"] == "daemon" and len(data["shards"]) == 2
    assert data["failed_points"] == 0
    assert not (tmp_path / "cache" / "shards").exists()


def test_via_daemon_requires_design_paths(corpus, daemon_factory):
    from repro.errors import ServiceError
    from repro.service.coordinator import SweepCoordinator

    daemon, _ = daemon_factory()
    coordinator = SweepCoordinator(2, daemon_socket=daemon.config.socket_path)
    with pytest.raises(ServiceError, match="design_paths"):
        coordinator.run(
            [("a", corpus["a"][1])], FinderConfig(num_seeds=4, seed=3),
            {"lambda_skip": [0]},
        )
