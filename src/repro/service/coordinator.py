"""Sweep dispatch to a running daemon: shards, progress, result splicing.

The :class:`SweepCoordinator` (``repro sweep --via-daemon``) partitions a
deduplicated :class:`~repro.service.sweep.SweepPlan` into
:class:`~repro.service.shard.SweepShard`\\ s and submits every job of every
shard to a running :class:`~repro.server.daemon.ServerDaemon` as a
priority-class-``sweep`` job: one submitting thread per shard, lifecycle
events streamed back as per-shard progress, grouped so ``repro status``
can show the sweep's shards while they queue.  The daemon's worker pool
runs the seeds and its store does the caching.

Local sweeps do not come through here: ``repro sweep --workers N`` runs
the whole plan through one :class:`~repro.service.jobs.BatchRunner` on one
:class:`~repro.service.pool.WorkerPool`.

Failure model: a job whose submit fails reports its error while every
other job stands; a shard whose submitting thread dies (daemon
unreachable) reports the error on all of its points, and the outcome
records the failure for the aggregator.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.finder.config import FinderConfig
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.service.jobs import JobResult
from repro.service.shard import SweepShard, partition_plan
from repro.service.sweep import SweepOutcome, plan_sweep
from repro.utils.timer import Timer


@dataclass
class ShardStats:
    """Dispatch accounting of one shard (one row of the aggregate).

    Attributes:
        shard_id: which shard.
        num_jobs: jobs the shard owned.
        ok: True when the shard's submitting thread returned results.
        error: terminal dispatch error when ``ok`` is False.
        wall_seconds: wall-clock of the shard's submits.
        cache_hits / cache_misses: jobs the daemon answered from its store
            / computed.
    """

    shard_id: int
    num_jobs: int
    ok: bool = False
    error: Optional[str] = None
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ShardProgress:
    """One coordinator progress event: ``kind`` is ``"job"`` (a job is
    being submitted) or ``"shard-done"``."""

    kind: str
    shard_id: int
    num_jobs: int
    done_shards: int
    total_shards: int
    label: str = ""
    error: Optional[str] = None


ShardProgressCallback = Callable[[ShardProgress], None]


@dataclass
class ShardedSweepOutcome(SweepOutcome):
    """A :class:`SweepOutcome` plus per-shard accounting.

    ``job_results`` is in plan order — point results are spliced back to
    exactly the order a local :func:`~repro.service.sweep.run_sweep`
    would produce.
    """

    shard_stats: List[ShardStats] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def failed_shards(self) -> List[ShardStats]:
        return [stats for stats in self.shard_stats if not stats.ok]

    @property
    def cache_hits(self) -> int:
        return sum(stats.cache_hits for stats in self.shard_stats)

    @property
    def cache_misses(self) -> int:
        return sum(stats.cache_misses for stats in self.shard_stats)


class SweepCoordinator:
    """Plan, shard, submit to a daemon and reassemble one sweep.

    Args:
        num_shards: shards to split the plan into (>= 1); each gets one
            submitting thread.
        daemon_socket: Unix socket of the running daemon.
        progress: optional :class:`ShardProgress` callback.
        group: job-group label prefix (visible in ``repro status``);
            defaults to ``sweep``, so shard 3's jobs are ``sweep/shard-3``.
    """

    def __init__(
        self,
        num_shards: int,
        daemon_socket: str,
        progress: Optional[ShardProgressCallback] = None,
        group: str = "",
    ) -> None:
        if num_shards < 1:
            raise ServiceError("SweepCoordinator num_shards must be >= 1")
        self.num_shards = num_shards
        self.daemon_socket = daemon_socket
        self.progress = progress
        self.group = group

    # ------------------------------------------------------------------
    def run(
        self,
        designs: Sequence[Tuple[str, Netlist]],
        base: FinderConfig,
        grid: Mapping[str, Sequence[object]],
        design_paths: Optional[Mapping[str, str]] = None,
    ) -> ShardedSweepOutcome:
        """Execute ``designs x grid`` on the daemon; results in plan point
        order.

        ``design_paths`` (label -> loadable path) is required — the daemon
        loads designs itself, the netlists never cross the socket.
        """
        with Timer() as total:
            with trace.span("sweep.plan", shards=self.num_shards):
                plan = plan_sweep(designs, base, grid)
                shards = partition_plan(plan, self.num_shards)
            self._check_paths(shards, design_paths)
            results, stats = self._dispatch(plan, shards, design_paths)
        return ShardedSweepOutcome(
            plan=plan,
            job_results=results,
            shard_stats=[stats[shard.shard_id] for shard in shards],
            wall_seconds=total.elapsed,
        )

    @staticmethod
    def _check_paths(
        shards: Sequence[SweepShard], design_paths: Optional[Mapping[str, str]]
    ) -> None:
        if design_paths is None:
            raise ServiceError(
                "daemon dispatch needs design_paths (label -> design file)"
            )
        missing = sorted(
            {
                job.label
                for shard in shards
                for job in shard.jobs
                if job.label not in design_paths
            }
        )
        if missing:
            raise ServiceError(
                f"daemon dispatch has no design path for label(s): "
                f"{', '.join(missing)}"
            )

    def _dispatch(
        self,
        plan,
        shards: Sequence[SweepShard],
        design_paths: Mapping[str, str],
    ) -> Tuple[List[JobResult], Dict[int, ShardStats]]:
        """Submit every shard's jobs as priority-``sweep`` work.

        One submitting thread per shard streams its jobs' lifecycles; the
        daemon's queue interleaves shards (FIFO within the ``sweep``
        class).  Jobs of a shard whose thread died get explicit failed
        results — one dead shard degrades its own points, never the sweep.
        """
        stats = {
            # An empty shard (more shards than jobs) never runs; it is
            # vacuously ok, not a failure.
            shard.shard_id: ShardStats(
                shard.shard_id, shard.num_jobs, ok=shard.num_jobs == 0
            )
            for shard in shards
        }
        results: List[Optional[JobResult]] = [None] * len(plan.jobs)
        active = [shard for shard in shards if shard.jobs]
        done = {"count": 0}  # read by the submitting threads' progress

        def submit_shard(shard: SweepShard) -> float:
            from repro.server.client import Client
            from repro.service.codec import config_to_dict, report_from_dict

            client = Client(self.daemon_socket, busy_retries=8)
            group = f"{self.group or 'sweep'}/shard-{shard.shard_id}"
            shard_stats = stats[shard.shard_id]
            with Timer() as timer:
                for index, job in zip(shard.job_indices, shard.jobs):
                    self._emit(
                        "job", shard, done["count"], len(active), label=job.label
                    )
                    try:
                        reply = client.submit(
                            design_paths[job.label],
                            config=config_to_dict(job.config),
                            priority="sweep",
                            label=job.label,
                            group=group,
                        )
                        result = JobResult(
                            job=job,
                            report=report_from_dict(reply["report"]),
                            cached=bool(reply.get("cached")),
                            runtime_seconds=float(reply.get("runtime_seconds", 0.0)),
                            attempts=int(reply.get("attempts", 1)),
                        )
                    except Exception as error:
                        result = JobResult(
                            job=job, report=None, cached=False,
                            runtime_seconds=0.0,
                            error=f"{type(error).__name__}: {error}",
                        )
                    results[index] = result
                    if result.cached:
                        shard_stats.cache_hits += 1
                    else:
                        shard_stats.cache_misses += 1
            return timer.elapsed

        with concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, len(active))
        ) as executor:
            futures = {
                executor.submit(submit_shard, shard): shard for shard in active
            }
            for future, shard in futures.items():
                shard_stats = stats[shard.shard_id]
                try:
                    shard_stats.wall_seconds = future.result()
                    shard_stats.ok = True
                except Exception as error:  # daemon unreachable etc.
                    shard_stats.error = f"{type(error).__name__}: {error}"
                    for index in shard.job_indices:
                        results[index] = JobResult(
                            job=plan.jobs[index], report=None, cached=False,
                            runtime_seconds=0.0,
                            error=f"shard {shard.shard_id} failed: {shard_stats.error}",
                        )
                done["count"] += 1
                self._observe_shard(shard_stats)
                self._emit(
                    "shard-done", shard, done["count"], len(active),
                    error=shard_stats.error,
                )
        return results, stats  # type: ignore[return-value]  # every slot set

    # -- helpers --------------------------------------------------------
    def _observe_shard(self, stats: ShardStats) -> None:
        trace.record(
            "sweep.shard",
            duration=stats.wall_seconds,
            shard=stats.shard_id,
            jobs=stats.num_jobs,
            outcome="ok" if stats.ok else "failed",
        )
        trace.counter("sweep.shards").add(1)
        if not stats.ok:
            trace.counter("sweep.failed_shards").add(1)

    def _emit(
        self,
        kind: str,
        shard: SweepShard,
        done_shards: int,
        total_shards: int,
        label: str = "",
        error: Optional[str] = None,
    ) -> None:
        if self.progress is None:
            return
        self.progress(
            ShardProgress(
                kind=kind,
                shard_id=shard.shard_id,
                num_jobs=shard.num_jobs,
                done_shards=done_shards,
                total_shards=total_shards,
                label=label,
                error=error,
            )
        )


__all__ = [
    "ShardProgress",
    "ShardStats",
    "ShardedSweepOutcome",
    "SweepCoordinator",
]
