"""The traced run: the per-layer ledger of each workload.

Each workload runs the same fixed piece of work twice in one process:
once untraced, then once with the ledger's wrappers active and
``repro.obs`` tracing on (so pool workers ship their ``bench.*`` spans
back).  The ratio of the two wall times is the tracing overhead.

The CLI workloads call ``repro.cli.main`` in the benchmark process.  The
``eco_session`` daemon runs in a benchmark-owned host process
(``python3 perfbench/traced.py --eco-host SPEC``) that serves it from a
thread and drives it with the client; the parent keeps the host's stderr,
where the daemon's multiprocessing resource tracker reports at shutdown.

Self-check (the run fails otherwise): every layer's self time is >= 0;
the self times add up to the outermost wrapped calls' durations; and
``unattributed_s`` (traced wall time minus the benchmark process's layer
self times) lies in ``[-NEGATIVE_TOLERANCE, UNATTRIBUTED_TOLERANCE]`` of
the traced wall time.  Pool-worker time is reported inside the
``finder.*`` metrics; in the benchmark process it is the wait inside
``pool.run_s``, so the sum covers only the benchmark process's layers.

Which end-to-end metric each layer should move (a layer that a workload
does not run reports 0 there):

* ``cli.import_s`` — every CLI latency of cold_detect and sweep_grid.
* ``io.load_text_s``, ``netlist.arrays_s`` — cold_detect ``cold_p50_ms``
  and ``warm_p50_ms``; ``io.load_nla_s`` — sweep_grid ``warm_p50_ms``.
* ``fingerprint.*`` — eco_session both latencies, cold_detect and
  sweep_grid ``warm_p50_ms``.
* ``finder.*`` — cold_detect and sweep_grid ``cold_p50_ms``; little on
  eco_session, whose patches re-run only a few short seeds.
* ``incremental.*``, ``codec.*`` — eco_session (``apply_delta_s`` runs on
  every delta request, hits included); ``diff_s`` stays 0 because the
  daemon is handed deltas.
* ``store.*`` — every ``warm_p50_ms``; ``put_s`` also sweep_grid and
  eco_session ``cold_p50_ms``.
* ``pool.*`` — sweep_grid and eco_session ``cold_p50_ms``.
* ``sweep.*`` — sweep_grid.  ``server.*`` — eco_session.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

if __name__ == "__main__":  # host process: same import roots as run.py
    _HERE = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]

from harness import ROOT, Spawner, child_env, median
import scenarios
import workloads
from workloads import Outcome

#: Largest share of the traced wall time the named layers may leave
#: unexplained (CLI glue, argument parsing, printing, protocol framing).
UNATTRIBUTED_TOLERANCE = 0.10
#: Largest share by which the layer self times may exceed the wall time
#: (they would double-count).
NEGATIVE_TOLERANCE = 0.01

#: Import-time probes for ``cli.import_s``.
IMPORT_REPEATS = 3


def prepare_ledger():
    """Import every measured layer, then install the inert wrappers."""
    import repro.cli  # noqa: F401  (bindings must exist before wrapping)
    import repro.incremental  # noqa: F401
    import repro.server.daemon  # noqa: F401
    import repro.service.jobs  # noqa: F401
    from ledger import Ledger, install

    ledger = Ledger()
    install(ledger)
    return ledger


@contextlib.contextmanager
def traced_pass(ledger):
    """Ledger wrappers active and ``repro.obs`` tracing on."""
    from repro.obs import trace

    trace.enable()
    ledger.active = True
    try:
        yield
    finally:
        ledger.active = False
        trace.disable()


def collected(ledger) -> Dict[str, Any]:
    """The ledger, worker self times and counters of the last traced pass."""
    from repro.obs import trace
    from repro.obs.report import RunReport

    spans = trace.get_tracer().finished_spans()
    return {
        **ledger.snapshot(),
        "worker_self": ledger.worker_self_times(spans, ledger.pid),
        "counters": RunReport.from_tracer().counters(),
    }


def per_layer_units() -> Dict[str, str]:
    """name -> unit of every per-layer metric, as ``BENCHMARK.json`` lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)["per_layer"]}


def layer_metrics(outcome: Outcome, data: Dict[str, Any], wall_s: float,
                  untraced_s: float, extra: Dict[str, float]) -> None:
    """Fill ``outcome.metrics`` with every per-layer metric from ``data``
    (see :func:`collected`) and run the tracing self-check."""
    units = per_layer_units()
    values = {name: 0.0 for name in units}
    for source in (data["self_s"], data["worker_self"]):
        for metric, seconds in source.items():
            outcome.check(seconds >= -1e-9, f"negative self time {seconds:.6f}s in {metric}")
            values[metric] += seconds
    counters = data["counters"]
    values["fingerprint.calls"] = float(data["calls"].get("fingerprint.netlist_s", 0))
    values["finder.absorb_steps"] = float(counters.get("finder.absorb_steps", 0))
    values["finder.heap_pushes"] = float(counters.get("finder.heap_pushes", 0))
    values["pool.context_bytes"] = float(counters.get("pool.context_bytes", 0))
    lookups = data["store_hits"] + data["store_misses"]
    values["store.hit_ratio"] = data["store_hits"] / lookups if lookups else 0.0
    values.update(extra)

    attributed = sum(data["self_s"].values())
    outermost = data["outermost_s"]
    outcome.check(abs(attributed - outermost) <= 1e-6 * max(1, sum(data["calls"].values())),
                  f"layer self times {attributed:.6f}s != outermost calls {outermost:.6f}s")
    unattributed = wall_s - attributed
    outcome.check(unattributed >= -NEGATIVE_TOLERANCE * wall_s,
                  f"layers add up to {attributed:.3f}s, more than the wall time {wall_s:.3f}s")
    outcome.check(unattributed <= UNATTRIBUTED_TOLERANCE * wall_s,
                  f"unattributed {unattributed:.3f}s is over {UNATTRIBUTED_TOLERANCE:.0%} "
                  f"of the traced wall time {wall_s:.3f}s")
    values["unattributed_s"] = unattributed
    values["tracing.wall_s"] = wall_s
    values["tracing.overhead_ratio"] = wall_s / untraced_s
    outcome.metrics = {name: (values[name], unit) for name, unit in units.items()}
    outcome.info["tracing"] = {
        "wall_s": wall_s, "untraced_s": untraced_s, "attributed_s": attributed,
        "unattributed_tolerance": UNATTRIBUTED_TOLERANCE,
    }


def import_seconds(run_dir: str, spawner: Spawner) -> float:
    """Median cost of ``import repro.cli`` in a fresh interpreter, over a
    bare interpreter start."""
    def probe(code: str, tag: str) -> float:
        runs = [spawner.run([sys.executable, "-c", code], run_dir, f"{tag}{i}")
                for i in range(IMPORT_REPEATS)]
        return median([run.wall_s for run in runs])

    return probe("import repro.cli", "import") - probe("pass", "bare")


def cli_main(argv: List[str]) -> Tuple[float, int, str]:
    """``repro.cli.main(argv)`` in this process: ``(wall s, code, stdout)``."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        began = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - began
    return wall, code, out.getvalue()


# ----------------------------------------------------------------------
# cold_detect
# ----------------------------------------------------------------------
def cold_detect(seed: int, seconds: float, run_dir: str, spawner: Spawner) -> Outcome:
    outcome = Outcome()
    scenario, aux = workloads.setup_cold_detect(run_dir)
    outcome.info["scenarios"] = {scenario.name: scenario.fingerprint}
    argv = workloads.detect_argv(aux)
    cache = os.path.join(run_dir, "cache")
    ledger = prepare_ledger()

    def commands():
        cold = cli_main(argv + ["--no-cache"])
        warm = cli_main(argv + ["--cache-dir", cache])
        return cold, warm

    populate = cli_main(argv + ["--cache-dir", cache])
    untraced = commands()
    with traced_pass(ledger):
        traced = commands()
    outcome.attempted = 5
    data = collected(ledger)
    ledger.unpatch()

    rows = workloads.gtl_rows(populate[2])
    outcome.check(bool(rows), "detect reported no GTL")
    for wall, code, stdout in (populate,) + untraced + traced:
        outcome.check(code == 0, f"detect exited {code}")
        outcome.check(workloads.gtl_rows(stdout) == rows, "traced or repeated detect printed another report")
    layer_metrics(
        outcome, data, traced[0][0] + traced[1][0], untraced[0][0] + untraced[1][0],
        {"cli.import_s": import_seconds(run_dir, spawner)},
    )
    return outcome


# ----------------------------------------------------------------------
# sweep_grid
# ----------------------------------------------------------------------
def sweep_grid(seed: int, seconds: float, run_dir: str, spawner: Spawner) -> Outcome:
    outcome = Outcome()
    built, manifest = workloads.setup_sweep(run_dir)
    outcome.info["scenarios"] = {name: s.fingerprint for name, s in built.items()}
    ledger = prepare_ledger()
    rows: List[List[Dict[str, Any]]] = []
    summaries: List[str] = []

    def sweep_pair(tag: str) -> float:
        cache = os.path.join(run_dir, f"cache-{tag}")
        wall = 0.0
        for phase in ("cold", "warm"):
            jsonl = os.path.join(run_dir, f"{tag}-{phase}.jsonl")
            elapsed, code, stdout = cli_main(workloads.sweep_argv(manifest, cache, jsonl))
            outcome.check(code == 0, f"{tag} {phase} sweep exited {code}")
            rows.append(workloads.read_rows(jsonl) if code == 0 else [])
            summaries.extend(line for line in stdout.splitlines() if "grid point(s)" in line)
            wall += elapsed
        return wall

    untraced_s = sweep_pair("untraced")
    with traced_pass(ledger):
        traced_s = sweep_pair("traced")
    outcome.attempted = 4
    data = collected(ledger)
    ledger.unpatch()

    if not outcome.errors:
        workloads.check_sweep(outcome, manifest, rows[0::2], rows[1::2], summaries)
    plan = workloads.expected_plan(manifest)
    layer_metrics(
        outcome, data, traced_s, untraced_s,
        {"cli.import_s": import_seconds(run_dir, spawner),
         "sweep.dedup_ratio": plan.num_deduplicated / len(plan.points)},
    )
    return outcome


# ----------------------------------------------------------------------
# eco_session
# ----------------------------------------------------------------------
#: Deltas per pass of the traced session (each is patched, then re-sent).
ECO_TRACED_DELTAS = 6


def eco_session(seed: int, seconds: float, run_dir: str, spawner: Spawner) -> Outcome:
    from repro.io import load_design

    outcome = Outcome()
    scenario, aux, packed = workloads.setup_eco_design(seed, run_dir)
    outcome.info["scenarios"] = {scenario.name: scenario.fingerprint}
    base = load_design(aux)
    deltas = scenarios.eco_deltas(base, 2 * ECO_TRACED_DELTAS, seed)
    if len(deltas) != 2 * ECO_TRACED_DELTAS:
        outcome.errors.append(f"only {len(deltas)} usable ECO deltas")
        return outcome
    spec = {
        "aux": aux, "packed": packed, "run_dir": run_dir,
        "socket": os.path.relpath(os.path.join(run_dir, "d.sock"), ROOT),
        "deltas": [delta.to_dict() for delta in deltas],
        "result": os.path.join(run_dir, "host.json"),
    }
    spec_path = os.path.join(run_dir, "host-spec.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    host = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--eco-host", spec_path],
        cwd=ROOT, env=child_env(run_dir), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=170,
    )
    outcome.check(host.returncode == 0, f"eco host exited {host.returncode}: {host.stderr[-500:]}")
    if host.returncode != 0:
        return outcome
    with open(spec["result"]) as handle:
        result = json.load(handle)
    outcome.errors.extend(result["errors"])
    outcome.attempted = 1 + 2 * len(result["pairs"])
    workloads.check_eco_pairs(outcome, result["pairs"])
    workloads.check_eco_parity(outcome, base, deltas, result["pairs"], seed)

    traced = result["traced"]
    overheads = [(lat - run) * 1000 for lat, run in zip(traced["latency_s"], traced["runtime_s"])]
    reused = [(p["incremental"]["seeds_total"] - p["incremental"]["seeds_recomputed"],
               p["incremental"]["seeds_total"]) for p, _ in result["pairs"][ECO_TRACED_DELTAS:]]
    layer_metrics(
        outcome, result["ledger"], sum(traced["latency_s"]), sum(result["untraced"]["latency_s"]),
        {
            "incremental.reuse_ratio": sum(r for r, _ in reused) / sum(t for _, t in reused),
            "server.queue_wait_s": sum(traced["wait_s"]),
            "server.overhead_ms": median(overheads),
            "server.shutdown_warnings": float(len(workloads.SHUTDOWN_WARNING.findall(host.stderr))),
        },
    )
    return outcome


def eco_host(spec_path: str) -> int:
    """Host the daemon in this process and drive one traced session."""
    from repro.server import Client, ServerConfig, ServerDaemon

    with open(spec_path) as handle:
        spec = json.load(handle)
    ledger = prepare_ledger()
    daemon = ServerDaemon(ServerConfig(
        socket_path=spec["socket"], cache_dir=os.path.join(spec["run_dir"], "host-cache"),
        workers=workloads.ECO_WORKERS, pack_index=spec["packed"],
    ))
    daemon.start()
    client = Client(spec["socket"])
    config = workloads.eco_config()
    errors: List[str] = []
    pairs: List[Tuple[Dict, Dict]] = []

    def session(payloads) -> Dict[str, List[float]]:
        record = {"latency_s": [], "runtime_s": [], "wait_s": []}

        def on_event(event):
            if event["event"] == "started":
                record["wait_s"].append(event.get("wait_s", 0.0))

        for payload in payloads:
            responses = []
            for _ in range(2):  # the patch, then the re-submit
                began = time.perf_counter()
                response = client.submit(spec["aux"], config=config, delta=payload,
                                         priority="interactive", on_event=on_event)
                record["latency_s"].append(time.perf_counter() - began)
                record["runtime_s"].append(response.get("runtime_seconds", 0.0))
                responses.append(response)
            pairs.append(tuple(responses))
        return record

    try:
        base = client.submit(spec["aux"], config=config, priority="interactive")
        if base.get("cached"):
            errors.append("base detect was answered from a cache")
        untraced = session(spec["deltas"][:ECO_TRACED_DELTAS])
        with traced_pass(ledger):
            traced = session(spec["deltas"][ECO_TRACED_DELTAS:])
        data = collected(ledger)
    finally:
        daemon.shutdown(drain=True)
    if os.path.exists(spec["socket"]):
        errors.append("daemon left its socket behind")
    with open(spec["result"], "w") as handle:
        json.dump({
            "errors": errors, "pairs": pairs, "untraced": untraced, "traced": traced,
            "ledger": data,
        }, handle)
    return 0


TRACED = {
    "cold_detect": cold_detect,
    "eco_session": eco_session,
    "sweep_grid": sweep_grid,
}


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--eco-host":
        sys.exit("usage: traced.py --eco-host SPEC")
    sys.exit(eco_host(sys.argv[2]))
