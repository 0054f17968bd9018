"""The three workloads, their untraced measurements and their output checks.

Every workload reports the same end-to-end metrics (see ``BENCHMARK.json``):

* ``setup_s``     — median of :data:`SETUP_REPEATS` set-ups in the run;
* ``cold_p50_ms`` — median client-observed latency of a request the system
  has not answered before;
* ``warm_p50_ms`` — median latency of re-issuing an already answered one;
* ``peak_rss_mib`` — median peak resident set of the serving process tree's
  largest process.

The three times are medians of host-speed-scaled samples (see
:class:`harness.HostSpeed`); ``info`` also carries the plain medians.

Output checks run outside the timed window.  A failed check marks every
operation of the run as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from harness import (
    ROOT,
    HostSpeed,
    Spawner,
    child_env,
    median,
    repro_cli,
    stop_process,
    tree_peak_rss_mib,
    wait_for,
)
import scenarios

#: Set-ups per run; ``setup_s`` is their median.  The eco_session set-up
#: starts a daemon and runs its base detect, so it repeats fewer times.
SETUP_REPEATS = 5
ECO_SETUP_REPEATS = 3

#: The finder's own ``--seed``, the same in every run.  The workload seed
#: varies the designs; were it also the finder seed, the number of seed
#: cells landing in the large planted blocks (each costing a Phase III
#: regrowth of the block's size) would swing the work of a run by +-30%.
FINDER_SEED = 1

#: cold_detect: ``repro detect`` finder seeds (the CLI's serial default).
DETECT_SEEDS = 16

#: eco_session: daemon workers and the finder config of every request.
ECO_WORKERS = 2
ECO_CONFIG = {"num_seeds": 32, "max_order_length": 384}
#: eco_session: deltas generated per run (the window uses a prefix) and
#: how many patched reports are compared with a cold library run.
ECO_DELTAS = 48
ECO_PARITY_SAMPLE = 2

#: sweep_grid: pool workers, base config and the grid.  ``min_gtl_size``
#: repeats 30 so that the plan deduplicates.
SWEEP_WORKERS = 2
SWEEP_BASE = {"num_seeds": 6}
SWEEP_GRID = {
    "lambda_skip": [0, 20],
    "min_gtl_size": [30, 60, 30],
    "metric": ["gtl_sd", "ngtl_s"],
}
#: sweep_grid: warm invocations after each cold one.
SWEEP_WARM_REPEATS = 3

#: The resource-tracker warning the daemon's workers leave at shutdown.
SHUTDOWN_WARNING = re.compile(r"No such file or directory")


@dataclass
class Outcome:
    """What one run measured and whether its outputs were right."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)

    @property
    def failed(self) -> int:
        return self.attempted if self.errors else 0


def timing_metrics(outcome: Outcome, speed: HostSpeed, peak_rss_mib: float) -> None:
    """The end-to-end metrics of a run whose samples are named ``setup``,
    ``cold`` and ``warm``."""
    outcome.metrics = {
        "setup_s": (speed.median("setup"), "s"),
        "cold_p50_ms": (speed.median("cold") * 1000, "ms"),
        "warm_p50_ms": (speed.median("warm") * 1000, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    outcome.info["samples"] = {name: speed.count(name) for name in ("setup", "cold", "warm")}
    outcome.info["raw_p50_ms"] = {
        name: round(speed.raw_median(name) * 1000, 1) for name in ("setup", "cold", "warm")
    }


def _comparable(report: Dict[str, Any]) -> Dict[str, Any]:
    """A report payload without its one legitimately varying field."""
    return {k: v for k, v in report.items() if k != "runtime_seconds"}


def gtl_rows(stdout: str) -> List[str]:
    """The GTL table rows a ``repro detect`` run printed."""
    return [line.rstrip() for line in stdout.splitlines() if re.match(r"^\d+\s+\d+\s+\d+\s", line)]


def match_truth(gtls: List[frozenset], truth: List[frozenset], threshold: float = 0.8) -> List[str]:
    """Errors for GTLs that match no distinct ground-truth block (Jaccard)."""
    errors = []
    unused = list(truth)
    if not gtls:
        errors.append("no GTL reported")
    for index, cells in enumerate(gtls):
        best, best_score = None, 0.0
        for block in unused:
            score = len(cells & block) / len(cells | block)
            if score > best_score:
                best, best_score = block, score
        if best is None or best_score < threshold:
            errors.append(f"GTL #{index + 1} ({len(cells)} cells) matches no block "
                          f"(best Jaccard {best_score:.2f})")
        else:
            unused.remove(best)
    return errors


# ----------------------------------------------------------------------
# cold_detect
# ----------------------------------------------------------------------
#: cold_detect and sweep_grid build their designs from this workload seed
#: whatever ``--seed`` says.  The finder's work swings with the design (how
#: many seed cells land in the planted blocks): 4.8 s to 8.5 s for the 53K
#: cold detect, 2.7 s to 4.5 s for the cold sweep, past any bound a
#: regression check can use, while what these workloads time does not
#: depend on which design it is.  eco_session's designs follow ``--seed``.
FIXED_DESIGN_SEED = 0


def setup_cold_detect(run_dir: str) -> Tuple[scenarios.Scenario, str]:
    """Build the 53K design and write it as Bookshelf text."""
    from repro.io import write_bookshelf

    scenario = scenarios.build("industrial53k", FIXED_DESIGN_SEED)
    aux = write_bookshelf(scenario.netlist, os.path.join(run_dir, "design"), "industrial53k")
    return scenario, aux


def detect_argv(aux: str) -> List[str]:
    return ["detect", aux, "--seed", str(FINDER_SEED), "--seeds", str(DETECT_SEEDS)]


def check_detect_report(outcome: Outcome, aux: str, cache: str,
                        scenario: scenarios.Scenario, rows: List[str]) -> None:
    """The report the CLI stored must print as ``rows`` and its GTLs must
    be the generator's dissolved-ROM blocks."""
    from repro.finder import FinderConfig
    from repro.io import load_design
    from repro.service.fingerprint import job_fingerprint
    from repro.service.store import ResultStore

    netlist = load_design(aux)
    config = FinderConfig(num_seeds=DETECT_SEEDS, seed=FINDER_SEED)
    with ResultStore(cache) as store:
        report = store.get(job_fingerprint(netlist, config))
    outcome.check(report is not None, "populated cache holds no report")
    if report is None:
        return
    outcome.check(gtl_rows(report.summary()) == rows,
                  "stored report differs from the printed one")
    names = [frozenset(netlist.cell_name(c) for c in gtl.cells) for gtl in report.gtls]
    truth = [frozenset(scenario.netlist.cell_name(c) for c in block) for block in scenario.truth]
    outcome.errors.extend(match_truth(names, truth))


def cold_detect(seed: int, seconds: float, run_dir: str, spawner: Spawner) -> Outcome:
    outcome = Outcome()
    speed = HostSpeed()
    for _ in range(SETUP_REPEATS):
        with speed.sample("setup"):
            scenario, aux = setup_cold_detect(run_dir)
    outcome.info["scenarios"] = {scenario.name: scenario.fingerprint}
    argv = detect_argv(aux)
    cache = os.path.join(run_dir, "cache")

    populate = spawner.run(repro_cli(*argv, "--cache-dir", cache), run_dir, "populate")
    outcome.check(populate.returncode == 0, f"populating detect exited {populate.returncode}")

    colds, warms = [], []
    began = time.perf_counter()
    while time.perf_counter() - began < seconds or not warms:
        with speed.sample("cold"):
            colds.append(spawner.run(repro_cli(*argv, "--no-cache"), run_dir, f"cold{len(colds)}"))
        with speed.sample("warm"):
            warms.append(spawner.run(repro_cli(*argv, "--cache-dir", cache), run_dir, f"warm{len(warms)}"))
    outcome.attempted = 1 + len(colds) + len(warms)

    rows = gtl_rows(populate.stdout)
    digests = set()
    for run in colds + warms:
        outcome.check(run.returncode == 0, f"detect exited {run.returncode}: {run.stderr[-300:]}")
        digests.add(hashlib.sha256("\n".join(gtl_rows(run.stdout)).encode()).hexdigest())
    outcome.check(digests == {hashlib.sha256("\n".join(rows).encode()).hexdigest()},
                  f"report digest differs across runs ({len(digests)} distinct)")
    outcome.check(all("cached: exact fingerprint" in run.stdout for run in warms),
                  "a warm detect was not answered from the cache")
    check_detect_report(outcome, aux, cache, scenario, rows)
    timing_metrics(outcome, speed, median([r.maxrss_mib for r in colds]))
    return outcome


# ----------------------------------------------------------------------
# eco_session
# ----------------------------------------------------------------------
def setup_eco_design(seed: int, run_dir: str) -> Tuple[scenarios.Scenario, str, str]:
    """Build the 53K design, write it as text and pack it with an index."""
    from repro.io import write_bookshelf
    from repro.io.corpus import pack_corpus

    scenario = scenarios.build("industrial53k", seed)
    aux = write_bookshelf(scenario.netlist, os.path.join(run_dir, "design"), "industrial53k")
    packed = os.path.join(run_dir, "packed")
    pack_corpus([aux], packed)
    return scenario, os.path.abspath(aux), packed


def eco_config() -> Dict[str, Any]:
    return {**ECO_CONFIG, "seed": FINDER_SEED}


class DaemonProcess:
    """A ``repro serve`` child process with its own socket and cache."""

    def __init__(self, run_dir: str, packed: str, tag: str) -> None:
        from repro.server import Client

        workdir = os.path.join(run_dir, tag)
        os.makedirs(workdir)
        # Relative to the checkout root (every process's cwd) so the socket
        # path stays short whatever the checkout's location.
        self.socket = os.path.relpath(os.path.join(workdir, "d.sock"), ROOT)
        self.proc = subprocess.Popen(
            repro_cli("serve", "--socket", self.socket, "--workers", str(ECO_WORKERS),
                      "--cache-dir", os.path.join(workdir, "cache"), "--pack-index", packed),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            cwd=ROOT, env=child_env(run_dir),
        )
        # Drained until EOF, which comes only once the daemon's resource
        # tracker (it inherits the pipe) has exited too.
        self._stderr: List[str] = []
        self._reader = threading.Thread(target=self._stderr.extend, args=(self.proc.stderr,))
        self._reader.start()
        self.client = Client(self.socket)
        wait_for(self._ready, 60, "the daemon socket")

    def _ready(self) -> bool:
        if self.proc.poll() is not None:
            raise RuntimeError(f"daemon exited {self.proc.returncode} at start-up")
        try:
            self.client.ping()
        except Exception:  # not listening yet
            return False
        return True

    def stop(self) -> Tuple[int, float, bool, int]:
        """Drain and stop: ``(exit code, peak RSS MiB, socket left, warnings)``."""
        try:
            maxrss = tree_peak_rss_mib(self.proc.pid)
            self.client.shutdown(drain=True)
            self.proc.wait(timeout=60)
        finally:
            stop_process(self.proc)
            self._reader.join(timeout=60)
            self.proc.stderr.close()
        warnings = len(SHUTDOWN_WARNING.findall("".join(self._stderr)))
        return self.proc.returncode, maxrss, os.path.exists(os.path.join(ROOT, self.socket)), warnings


def _check_daemon_stop(outcome: Outcome, stopped: Tuple[int, float, bool, int]) -> None:
    code, _, socket_left, _ = stopped
    outcome.check(code == 0, f"daemon exited {code}")
    outcome.check(not socket_left, "daemon left its socket behind")


def check_eco_pairs(outcome: Outcome, pairs: List[Tuple[Dict, Dict]]) -> None:
    """Each hit repeats its patch; each patch ran incrementally."""
    for index, (patch, hit) in enumerate(pairs):
        info = patch.get("incremental") or {}
        outcome.check(not patch.get("cached") and info.get("mode") == "incremental",
                      f"delta {index}: patch did not run incrementally ({info.get('mode')})")
        outcome.check(info.get("seeds_recomputed", 0) < info.get("seeds_total", 0),
                      f"delta {index}: re-ran {info.get('seeds_recomputed')}/"
                      f"{info.get('seeds_total')} seeds")
        outcome.check(bool(hit.get("cached")), f"delta {index}: re-submit was not a cache hit")
        outcome.check(hit.get("fingerprint") == patch.get("fingerprint"),
                      f"delta {index}: hit fingerprint differs from the patch")
        outcome.check(_comparable(hit["report"]) == _comparable(patch["report"]),
                      f"delta {index}: hit report differs from the patch")


def check_eco_parity(outcome: Outcome, base, deltas, pairs, seed: int) -> None:
    """A seeded sample of patched reports equals cold library runs."""
    import random

    from repro.finder import FinderConfig, find_tangled_logic
    from repro.incremental import apply_delta
    from repro.service.codec import report_to_dict

    config = FinderConfig(**eco_config())
    rng = random.Random(f"parity:{seed}")
    for index in sorted(rng.sample(range(len(pairs)), min(ECO_PARITY_SAMPLE, len(pairs)))):
        cold = report_to_dict(find_tangled_logic(apply_delta(base, deltas[index]), config))
        outcome.check(_comparable(cold) == _comparable(pairs[index][0]["report"]),
                      f"delta {index}: patched report differs from a cold run")


def eco_session(seed: int, seconds: float, run_dir: str, spawner: Spawner) -> Outcome:
    from repro.io import load_design

    outcome = Outcome()
    speed = HostSpeed()
    stops = []
    daemon: Optional[DaemonProcess] = None
    try:
        for attempt in range(ECO_SETUP_REPEATS):
            if daemon is not None:
                stops.append(daemon.stop())
                daemon = None
            with speed.sample("setup"):
                scenario, aux, packed = setup_eco_design(seed, os.path.join(run_dir, f"setup{attempt}"))
                daemon = DaemonProcess(run_dir, packed, f"daemon{attempt}")
                base = daemon.client.submit(aux, config=eco_config(), priority="interactive")
            outcome.check(not base.get("cached"), "base detect was answered from a cache")
        outcome.info["scenarios"] = {scenario.name: scenario.fingerprint}

        base_netlist = load_design(aux)
        deltas = scenarios.eco_deltas(base_netlist, ECO_DELTAS, seed)
        payloads = [delta.to_dict() for delta in deltas]
        pairs = []
        began = time.perf_counter()
        for payload in payloads:
            if time.perf_counter() - began >= seconds and pairs:
                break
            with speed.sample("cold"):
                patch = daemon.client.submit(
                    aux, config=eco_config(), delta=payload, priority="interactive")
            with speed.sample("warm"):
                hit = daemon.client.submit(
                    aux, config=eco_config(), delta=payload, priority="interactive")
            pairs.append((patch, hit))
        outcome.check(time.perf_counter() - began >= seconds,
                      f"only {len(deltas)} deltas for a {seconds:.0f}s window")
    finally:
        if daemon is not None:
            stops.append(daemon.stop())
    for stopped in stops:
        _check_daemon_stop(outcome, stopped)
    outcome.attempted = ECO_SETUP_REPEATS + 2 * len(pairs)

    check_eco_pairs(outcome, pairs)
    check_eco_parity(outcome, base_netlist, deltas, pairs, seed)
    timing_metrics(outcome, speed, median([s[1] for s in stops]))
    outcome.info["shutdown_warnings"] = [s[3] for s in stops]
    return outcome


# ----------------------------------------------------------------------
# sweep_grid
# ----------------------------------------------------------------------
SWEEP_SCENARIOS = ("industrial15k", "ispd_quarter")


def setup_sweep(run_dir: str) -> Tuple[Dict[str, scenarios.Scenario], str]:
    """Build and pack both designs and write the sweep manifest."""
    from repro.io import write_packed

    design_dir = os.path.join(run_dir, "designs")
    os.makedirs(design_dir, exist_ok=True)
    built = {}
    for name in SWEEP_SCENARIOS:
        built[name] = scenarios.build(name, FIXED_DESIGN_SEED)
        write_packed(built[name].netlist, os.path.join(design_dir, f"{name}.nla"))
    manifest = os.path.join(design_dir, "sweep.json")
    with open(manifest, "w") as handle:
        json.dump({
            "designs": [f"{name}.nla" for name in SWEEP_SCENARIOS],
            "base": {**SWEEP_BASE, "seed": FINDER_SEED},
            "grid": SWEEP_GRID,
        }, handle)
    return built, manifest


def sweep_argv(manifest: str, cache: str, jsonl: str) -> List[str]:
    return ["sweep", manifest, "--workers", str(SWEEP_WORKERS), "--cache-dir", cache,
            "--jsonl", jsonl, "--quiet"]


def read_rows(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _row_key(row: Dict[str, Any]) -> Dict[str, Any]:
    report = _comparable(row["report"]) if row.get("report") else None
    return {**{k: v for k, v in row.items() if k not in ("runtime_seconds", "cached")},
            "report": report}


def expected_plan(manifest: str):
    """The plan ``repro sweep`` must execute, computed by the library."""
    from repro.finder import FinderConfig
    from repro.io import load_design
    from repro.service.sweep import plan_sweep

    with open(manifest) as handle:
        data = json.load(handle)
    base_dir = os.path.dirname(manifest)
    designs = [(d, load_design(os.path.join(base_dir, d))) for d in data["designs"]]
    return plan_sweep(designs, FinderConfig(**data["base"]), data["grid"])


def check_sweep(outcome: Outcome, manifest: str, cold_rows, warm_rows, summaries) -> None:
    plan = expected_plan(manifest)
    expected = (f"{len(plan.points)} grid point(s) -> {len(plan.jobs)} distinct job(s) "
                f"({plan.num_deduplicated} deduplicated)")
    outcome.check(plan.num_deduplicated > 0, "the sweep plan deduplicated nothing")
    for summary in summaries:
        outcome.check(expected in summary, f"sweep summary {summary!r} != plan {expected!r}")
    reference = [_row_key(row) for row in cold_rows[0]]
    outcome.check(len(reference) == len(plan.points), "cold sweep rows != grid points")
    for rows in cold_rows:
        outcome.check(all(not r["error"] and r["report"] for r in rows), "a sweep point failed")
        outcome.check(not any(r["cached"] for r in rows), "a cold sweep point was cached")
        outcome.check([_row_key(r) for r in rows] == reference, "cold sweep rows differ")
    for rows in warm_rows:
        outcome.check(all(r["cached"] for r in rows), "a warm sweep point was recomputed")
        outcome.check([_row_key(r) for r in rows] == reference, "warm rows differ from cold rows")


def sweep_grid(seed: int, seconds: float, run_dir: str, spawner: Spawner) -> Outcome:
    outcome = Outcome()
    speed = HostSpeed()
    for _ in range(SETUP_REPEATS):
        with speed.sample("setup"):
            built, manifest = setup_sweep(run_dir)
    outcome.info["scenarios"] = {name: s.fingerprint for name, s in built.items()}

    colds, warms, cold_rows, warm_rows, summaries = [], [], [], [], []
    began = time.perf_counter()
    while time.perf_counter() - began < seconds or not colds:
        cache = os.path.join(run_dir, f"cache{len(colds)}")
        jsonl = os.path.join(run_dir, f"cold{len(colds)}.jsonl")
        with speed.sample("cold"):
            run = spawner.run(repro_cli(*sweep_argv(manifest, cache, jsonl)), run_dir, f"cold{len(colds)}")
        colds.append(run)
        cold_rows.append(read_rows(jsonl) if run.returncode == 0 else [])
        for _ in range(SWEEP_WARM_REPEATS):
            jsonl = os.path.join(run_dir, f"warm{len(warms)}.jsonl")
            with speed.sample("warm"):
                warm = spawner.run(repro_cli(*sweep_argv(manifest, cache, jsonl)), run_dir, f"warm{len(warms)}")
            warms.append(warm)
            warm_rows.append(read_rows(jsonl) if warm.returncode == 0 else [])
    outcome.attempted = len(colds) + len(warms)

    for run in colds + warms:
        outcome.check(run.returncode == 0, f"sweep exited {run.returncode}: {run.stderr[-300:]}")
        summaries.extend(line for line in run.stdout.splitlines() if "grid point(s)" in line)
    if not outcome.errors:
        check_sweep(outcome, manifest, cold_rows, warm_rows, summaries)
    timing_metrics(outcome, speed, median([r.maxrss_mib for r in colds]))
    return outcome


WORKLOADS = {
    "cold_detect": cold_detect,
    "eco_session": eco_session,
    "sweep_grid": sweep_grid,
}
