"""Sweep scaling: wall-clock of one pooled sweep vs worker count.

One deduplicated sweep (2 designs x a 4-point config grid = 8 distinct
deterministic jobs) executed cold through :func:`run_sweep` on a
:class:`BatchRunner` with 1, 2 and 4 workers, each against a fresh cache.
Two claims:

* **Parity** — the point rows are bit-identical at every worker count
  (modulo wall-clock fields). Asserted at every scale; this is the same
  invariant CI's sweep parity smoke checks through the CLI.
* **Scaling** — with 4 workers the cold sweep is **>= 2x** faster than
  one. Worker parallelism is process parallelism, so the floor is only
  asserted at full scale on machines with >= 4 CPUs; on smaller hosts
  the measured ratio is recorded (with ``cpu_count``, so the trajectory
  stays interpretable) but cannot exceed the CPU count and is not an
  acceptance failure.

Results land in ``BENCH_sweep.json`` (headline: ``speedup_4_workers``),
with the 4-worker run's :class:`RunReport` embedded so the record shows
the span breakdown (``pool.task`` with the workers' seeds under it,
``service.job`` reduce/store). ``REPRO_BENCH_SMOKE=1`` shrinks the designs
and skips the floor.
"""

import os
import time

try:
    from benchmarks._record import record
except ImportError:  # invoked outside the repo root: benchmarks/ is on sys.path
    from _record import record
from repro.finder.config import FinderConfig
from repro.generators.random_gtl import planted_gtl_graph
from repro.obs import RunReport, trace
from repro.service.aggregate import aggregate_sweep, point_rows
from repro.service.jobs import BatchRunner
from repro.service.store import ResultStore
from repro.service.sweep import run_sweep

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

if SMOKE:
    DESIGN_CELLS = (400, 500)
    BASE = FinderConfig(num_seeds=4, seed=7)
    GRID = {"lambda_skip": [0, 10], "min_gtl_size": [20, 30]}
else:
    DESIGN_CELLS = (5_000, 6_000)
    BASE = FinderConfig(num_seeds=16, seed=7)
    GRID = {"lambda_skip": [0, 10], "num_seeds": [16, 24]}

WORKER_COUNTS = (1, 2, 4)

#: Full-scale floor: a 4-worker cold sweep on >= 4 CPUs must at least
#: halve the 1-worker wall clock.
SPEEDUP_FLOOR = 2.0


def _designs():
    designs = []
    for index, cells in enumerate(DESIGN_CELLS):
        netlist, _ = planted_gtl_graph(cells, [cells // 12], seed=index)
        designs.append((f"d{index}", netlist))
    return designs


def _comparable_rows(outcome):
    rows = point_rows(outcome)
    for row in rows:
        row.pop("runtime_seconds")
        row.pop("cached")
        if row["report"]:
            row["report"].pop("runtime_seconds")
    return rows


def _run_cold(designs, workers, cache_dir):
    start = time.perf_counter()
    with ResultStore(cache_dir) as store, BatchRunner(
        workers=workers, store=store
    ) as runner:
        outcome = run_sweep(designs, BASE, GRID, runner)
    seconds = time.perf_counter() - start
    assert all(result.ok for result in outcome.job_results)
    return outcome, seconds


def run(tmp_dir):
    reference_rows = None
    seconds_by_count = {}
    run_report = None

    for workers in WORKER_COUNTS:
        # Fresh design objects per count: nothing memoized on them by an
        # earlier count (fingerprints, derived caches) is reused.
        designs = _designs()
        cache_dir = os.path.join(tmp_dir, f"cache-{workers}")
        if workers == max(WORKER_COUNTS):
            trace.enable()
            try:
                outcome, seconds = _run_cold(designs, workers, cache_dir)
                run_report = RunReport.from_tracer()
            finally:
                trace.disable()
        else:
            outcome, seconds = _run_cold(designs, workers, cache_dir)
        seconds_by_count[workers] = seconds

        rows = _comparable_rows(outcome)
        if reference_rows is None:
            reference_rows = rows
        else:
            assert rows == reference_rows, (
                f"{workers}-worker rows diverge from 1-worker rows"
            )
        aggregate = aggregate_sweep(outcome)
        assert aggregate.failed_points == 0
        print(f"workers={workers}: {seconds:.2f}s cold ({aggregate.jobs} job(s))")

    cpu_count = os.cpu_count() or 1
    speedup = round(seconds_by_count[1] / max(seconds_by_count[4], 1e-9), 2)
    results = {
        "jobs": len(reference_rows),
        "cells": list(DESIGN_CELLS),
        "cpu_count": cpu_count,
        "seconds_by_workers": {
            str(count): round(seconds, 4)
            for count, seconds in seconds_by_count.items()
        },
        "speedup_4_workers": speedup,
        "parity": True,  # asserted above at every worker count
        "smoke": SMOKE,
    }
    if not SMOKE and cpu_count >= 4:
        assert speedup >= SPEEDUP_FLOOR, (
            f"4-worker cold sweep only {speedup}x faster than 1 worker "
            f"on {cpu_count} CPUs (floor {SPEEDUP_FLOOR}x)"
        )
    record(
        "sweep",
        results,
        smoke=SMOKE,
        headline="speedup_4_workers",
        higher_is_better=True,
        run_report=run_report.to_dict() if run_report else None,
    )
    print(f"speedup at 4 workers: x{speedup} ({cpu_count} CPU(s))")
    return results


def test_sweep_worker_scaling(tmp_path):
    """Pytest entry point (CI smoke runs this with REPRO_BENCH_SMOKE=1)."""
    run(str(tmp_path))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp_dir:
        run(tmp_dir)
