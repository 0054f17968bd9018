"""Serving round trip: start the daemon, submit jobs, stream events.

Spins up a :class:`repro.server.ServerDaemon` in-process on a private
socket (exactly what ``repro serve`` runs), generates a small design, and
walks the client-facing surface:

1. ``ping`` — liveness and protocol version;
2. a **cold** detect submit, streaming its ``queued -> started -> result``
   lifecycle events;
3. the identical **warm** submit — answered inline from the result store,
   typically ~1 ms and never touching the worker pool;
4. a fire-and-forget submit (``wait=False``) polled by job id;
5. a two-stage **flow** submit with per-stage progress events;
6. ``status`` — queue depths, cache hit ratios, recent jobs;
7. graceful drain-and-shutdown.

Run:  python examples/serve_client.py
Environment: REPRO_SERVE_EXAMPLE_CELLS / REPRO_SERVE_EXAMPLE_SEEDS shrink
the workload (used by CI smoke runs).

Against a daemon started separately (``repro serve --socket …``), skip the
ServerDaemon part and just use ``Client(socket_path)``.
"""

import os
import tempfile
import time

from repro.generators import planted_gtl_graph
from repro.io.hgr import write_hgr
from repro.obs.metrics import counter_values
from repro.server import Client, ServerConfig, ServerDaemon


def main() -> None:
    num_cells = int(os.environ.get("REPRO_SERVE_EXAMPLE_CELLS", 2_000))
    num_seeds = int(os.environ.get("REPRO_SERVE_EXAMPLE_SEEDS", 16))
    workdir = tempfile.mkdtemp(prefix="repro-serve-")
    design = os.path.join(workdir, "design.hgr")
    netlist, _ = planted_gtl_graph(
        num_cells=num_cells, gtl_sizes=[max(50, num_cells // 10)], seed=42
    )
    write_hgr(netlist, design)
    print(f"generated {netlist} -> {design}")

    daemon = ServerDaemon(
        ServerConfig(
            socket_path=os.path.join(workdir, "repro.sock"),
            cache_dir=os.path.join(workdir, "cache"),
            workers=1,
        )
    )
    daemon.start()
    print(f"daemon listening on {daemon.config.socket_path}")
    try:
        client = Client(daemon.config.socket_path)
        pong = client.ping()
        print(f"ping: pid={pong['pid']} protocol=v{pong['protocol']}")

        config = {"num_seeds": num_seeds, "seed": 7}

        print("\n-- cold submit (streamed lifecycle) --")
        start = time.perf_counter()
        cold = client.submit(
            design,
            config=config,
            priority="interactive",
            on_event=lambda e: print(f"   event: {e['event']}"),
        )
        print(
            f"cold: {len(cold['report']['gtls'])} GTL(s) in "
            f"{time.perf_counter() - start:.3f}s (cached={cold['cached']})"
        )

        print("\n-- warm repeat (inline from the result store) --")
        start = time.perf_counter()
        warm = client.submit(design, config=config)
        warm_ms = (time.perf_counter() - start) * 1e3
        assert warm["cached"] and warm["report"] == cold["report"]
        print(f"warm: bit-identical report in {warm_ms:.2f}ms")

        print("\n-- fire-and-forget, polled by job id --")
        ack = client.submit(
            design, config={"num_seeds": num_seeds, "seed": 8}, wait=False
        )
        job_id = ack["job_id"]
        while client.status(job_id)["job"]["state"] not in (
            "done", "failed", "cancelled",
        ):
            time.sleep(0.05)
        polled = client.result(job_id)
        print(f"job {job_id}: {polled['state']} (cached={polled['cached']})")

        print("\n-- flow submit with per-stage progress --")
        flow = client.submit(
            design,
            kind="flow",
            stages=[
                {"stage": "detect", "num_seeds": num_seeds, "seed": 7},
                {"stage": "partition"},
            ],
            on_event=lambda e: print(
                f"   {e['event']}"
                + (f": {e['stage']} ({e['cache']})" if e["event"] == "progress" else "")
            ),
        )
        for row in flow["stages"]:
            print(f"   {row['stage']}: cached={row['cached']} "
                  f"({row['runtime_seconds']:.3f}s)")

        counts = counter_values(client.status()["metrics"])
        done = sum(v for k, v in counts.items() if k.startswith("server.done."))
        lookups = counts["store.hits"] + counts["store.misses"]
        print(
            f"\nstatus: {done} done, {counts['server.warm_hits']} warm hit(s), "
            f"store hit rate {counts['store.hits'] / max(lookups, 1):.0%}"
        )

        client.shutdown(drain=True)
    finally:
        daemon.wait_until_stopped(timeout=60)
        daemon.shutdown(drain=False)  # no-op when already stopped
    print("daemon drained and stopped")


if __name__ == "__main__":
    main()
