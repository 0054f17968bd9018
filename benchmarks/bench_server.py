"""Daemon serving latency: cold vs. warm submits, per-priority throughput.

Starts a real :class:`~repro.server.daemon.ServerDaemon` on a temp socket,
then measures through the :class:`~repro.server.client.Client`:

* **cold** — first submit of a design+config: parse (or mmap) the design,
  run detection through the warm pool, cache the report;
* **warm** — repeat submit of the same job: answered inline from the
  result store without queueing or touching the pool.  This is the
  daemon's reason to exist, so the warm-vs-cold speedup is asserted, and
  at full scale the warm round trip must meet the < 50 ms acceptance
  bound;
* **priority classes** — a burst across interactive/batch/sweep, recording
  per-class queue-wait and verifying interactive waits least.

Numbers land in ``BENCH_server.json`` via :mod:`_record`.

``REPRO_BENCH_SMOKE=1`` shrinks the design and relaxes the wall-clock
bounds (CI containers have noisy clocks); the structural assertions —
warm answered from cache, no pool traffic, priority ordering — always run.
"""

import os
import statistics
import time

from _record import record

from repro.generators.random_gtl import planted_gtl_graph
from repro.io.hgr import write_hgr
from repro.obs.metrics import counter_values
from repro.server import Client, ServerConfig, ServerDaemon

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
NUM_CELLS = 800 if SMOKE else 4_000
NUM_SEEDS = 6 if SMOKE else 24
WARM_REPEATS = 5 if SMOKE else 20
BURST_PER_CLASS = 2 if SMOKE else 4

#: The ISSUE's acceptance bound for a warm repeat request (full scale).
WARM_BUDGET_S = 0.050
#: Minimum warm-vs-cold speedup asserted at full scale.
MIN_WARM_SPEEDUP = 5.0


def test_server_cold_warm_and_priorities(tmp_path):
    netlist, _ = planted_gtl_graph(NUM_CELLS, [NUM_CELLS // 10], seed=3)
    design = str(tmp_path / "design.hgr")
    write_hgr(netlist, design)

    config = ServerConfig(
        socket_path=str(tmp_path / "bench.sock"),
        cache_dir=str(tmp_path / "cache"),
        workers=1,
    )
    daemon = ServerDaemon(config)
    daemon.start()
    try:
        client = Client(config.socket_path)

        start = time.perf_counter()
        cold = client.submit(
            design, config={"num_seeds": NUM_SEEDS, "seed": 7}
        )
        cold_s = time.perf_counter() - start
        assert cold["cached"] is False

        pool_batches = daemon.pool.metrics.counter("pool.batches").value
        warm_samples = []
        for _ in range(WARM_REPEATS):
            start = time.perf_counter()
            warm = client.submit(
                design, config={"num_seeds": NUM_SEEDS, "seed": 7}
            )
            warm_samples.append(time.perf_counter() - start)
            assert warm["cached"] is True
            assert warm["report"] == cold["report"]
        warm_s = statistics.median(warm_samples)
        # Warm requests never reach the pool (no process involvement) and
        # never enter the queue.
        counts = counter_values(client.status()["metrics"])
        assert counts["pool.batches"] == pool_batches
        assert counts["server.warm_hits"] == WARM_REPEATS

        # Priority burst: queue everything with the scheduler busy, then
        # compare per-class queue waits.
        job_ids = {}
        for priority in ("sweep", "batch", "interactive"):
            job_ids[priority] = [
                client.submit(
                    design,
                    config={"num_seeds": NUM_SEEDS, "seed": 100 + hash(priority) % 50 + i},
                    priority=priority,
                    wait=False,
                )["job_id"]
                for i in range(BURST_PER_CLASS)
            ]
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            states = [
                client.status(job_id)["job"]["state"]
                for ids in job_ids.values()
                for job_id in ids
            ]
            if all(state == "done" for state in states):
                break
            time.sleep(0.05)
        else:
            raise AssertionError(f"burst did not drain: {states}")

        waits = {
            priority: statistics.mean(
                client.status(job_id)["job"]["wait_s"] for job_id in ids
            )
            for priority, ids in job_ids.items()
        }
        # Submission order was sweep -> batch -> interactive, so FIFO would
        # serve interactive LAST; priority scheduling must invert that.
        assert waits["interactive"] <= waits["sweep"]

        status = client.status()
    finally:
        daemon.shutdown(drain=False)

    speedup = cold_s / max(warm_s, 1e-9)
    print(
        f"\n{NUM_CELLS}-cell design: cold {cold_s * 1e3:.1f}ms, "
        f"warm {warm_s * 1e3:.2f}ms (median of {WARM_REPEATS}, "
        f"speedup x{speedup:.0f})"
    )
    print(
        "queue waits: "
        + ", ".join(f"{p} {w * 1e3:.1f}ms" for p, w in sorted(waits.items()))
    )
    if not SMOKE:
        assert warm_s < WARM_BUDGET_S
        assert speedup >= MIN_WARM_SPEEDUP

    record(
        "server",
        {
            "num_cells": NUM_CELLS,
            "num_seeds": NUM_SEEDS,
            "cold_seconds": cold_s,
            "warm_seconds_median": warm_s,
            "warm_seconds_all": warm_samples,
            "warm_speedup": speedup,
            "warm_budget_seconds": WARM_BUDGET_S,
            "burst_per_class": BURST_PER_CLASS,
            "queue_wait_seconds": waits,
            "metrics": status["metrics"],
            "queue": status["queue"],
        },
        smoke=SMOKE,
    )
