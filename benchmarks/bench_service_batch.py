"""Batch service vs. sequential one-shot runs (the tentpole's payoff).

Three ways to answer the same 10-job workload:

* ``sequential`` — N independent :func:`find_tangled_logic` calls, the
  pre-service repo idiom.
* ``batch cold``  — one :class:`BatchRunner` pass against an empty result
  store (pays fingerprinting + store inserts on top of the detection work).
* ``batch warm``  — the same pass again: every job must be answered from
  the store (>= 90% hits required) and the pass must beat the cold run by
  a wide margin.
"""

import time

from repro.finder import FinderConfig, find_tangled_logic
from repro.generators.random_gtl import planted_gtl_graph
from repro.service import BatchRunner, DetectionJob, ResultStore

NUM_JOBS = 10
CONFIG = FinderConfig(num_seeds=12, seed=9)


def _make_jobs():
    jobs = []
    for index in range(NUM_JOBS):
        cells = 2_000 + 300 * index
        netlist, _ = planted_gtl_graph(cells, [cells // 12], seed=index)
        jobs.append(DetectionJob(netlist=netlist, config=CONFIG, label=f"d{index}"))
    return jobs


def _sequential(jobs) -> float:
    start = time.perf_counter()
    for job in jobs:
        find_tangled_logic(job.netlist, job.config)
    return time.perf_counter() - start


def _batch(jobs, store) -> float:
    start = time.perf_counter()
    with BatchRunner(workers=1, store=store) as runner:
        results = runner.run(jobs)
    assert all(r.ok for r in results)
    return time.perf_counter() - start


def test_service_batch_cold_vs_warm(benchmark, once, tmp_path):
    jobs = _make_jobs()
    sequential_time = _sequential(jobs)

    with ResultStore(str(tmp_path / "cache")) as store:
        cold_time = _batch(jobs, store)
        cold_hits = store.metrics.counter("store.hits").value

        warm_time = benchmark.pedantic(_batch, args=(jobs, store), **once)
        warm_hits = store.metrics.counter("store.hits").value - cold_hits
        hit_rate = warm_hits / len(jobs)

    print(
        f"\n{NUM_JOBS} jobs: sequential {sequential_time:.2f}s, "
        f"batch cold {cold_time:.2f}s, batch warm {warm_time:.3f}s "
        f"({hit_rate:.0%} warm hits, warm speedup x{cold_time / warm_time:.0f})"
    )
    # Acceptance: warm pass answers >= 90% of jobs from the cache and is
    # measurably faster than the cold pass.
    assert hit_rate >= 0.9
    assert warm_time < 0.5 * cold_time
    # The service layer's bookkeeping (fingerprints, SQLite inserts) must
    # stay a small tax on top of the raw sequential detection work.
    assert cold_time < 1.5 * sequential_time + 1.0
