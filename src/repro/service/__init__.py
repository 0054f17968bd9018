"""Batched, cache-aware detection service layer.

Turns the one-shot in-process finder into a batch service:

* :mod:`repro.service.fingerprint` — stable content hashes of
  ``(Netlist, FinderConfig)`` pairs, the cache key of everything below.
* :mod:`repro.service.codec` — lossless JSON codecs for finder reports.
* :mod:`repro.service.store` — persistent SQLite result store with
  hit/miss accounting in its ``metrics`` registry.
* :mod:`repro.service.pool` — the one owner of worker processes: a
  reusable pool that ships each netlist to the workers once and then
  streams bare seed batches, many detections per call.
* :mod:`repro.service.jobs` — ``DetectionJob``/``JobResult`` records and
  the cache-consulting ``BatchRunner``, which pipelines every missed job
  through one pool call.
* :mod:`repro.service.sweep` — parameter-grid expansion with
  fingerprint-level job deduplication.
* :mod:`repro.service.shard` — stable fingerprint-keyed partitioning of a
  sweep plan into balanced shards.
* :mod:`repro.service.coordinator` — daemon sweep dispatch: shards
  submitted as priority-class-``sweep`` jobs, per-shard accounting.
* :mod:`repro.service.aggregate` — sweep aggregation/publishing: canonical
  per-point rows, per-axis summaries, per-shard wall-clock stats.

The CLI's ``batch`` and ``sweep`` subcommands are thin wrappers over this
package, and :meth:`repro.finder.TangledLogicFinder.run` delegates its
parallel path to the same :class:`WorkerPool`, so single runs and batch
runs share one execution engine.
"""

from repro.service.fingerprint import (
    fingerprint_config,
    fingerprint_netlist,
    job_fingerprint,
)
from repro.service.codec import (
    config_from_dict,
    config_to_dict,
    report_from_dict,
    report_to_dict,
)
from repro.service.store import MergeStats, ResultStore
from repro.service.pool import WorkerPool
from repro.service.jobs import (
    BatchProgress,
    BatchRunner,
    DetectionJob,
    JobResult,
    summarize_results,
)
from repro.service.sweep import (
    SweepOutcome,
    SweepPlan,
    SweepPoint,
    expand_grid,
    plan_sweep,
    run_sweep,
)
from repro.service.shard import SweepShard, partition_plan, shard_sort_key
from repro.service.coordinator import (
    ShardStats,
    ShardedSweepOutcome,
    SweepCoordinator,
)
from repro.service.aggregate import (
    SweepAggregate,
    aggregate_sweep,
    point_rows,
    write_aggregate,
)

__all__ = [
    "fingerprint_netlist",
    "fingerprint_config",
    "job_fingerprint",
    "config_to_dict",
    "config_from_dict",
    "report_to_dict",
    "report_from_dict",
    "ResultStore",
    "MergeStats",
    "WorkerPool",
    "DetectionJob",
    "JobResult",
    "BatchRunner",
    "BatchProgress",
    "summarize_results",
    "SweepPlan",
    "SweepPoint",
    "SweepOutcome",
    "expand_grid",
    "plan_sweep",
    "run_sweep",
    "SweepShard",
    "partition_plan",
    "shard_sort_key",
    "SweepCoordinator",
    "ShardStats",
    "ShardedSweepOutcome",
    "SweepAggregate",
    "aggregate_sweep",
    "point_rows",
    "write_aggregate",
]
