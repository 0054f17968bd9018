"""Shard partitioning of deduplicated sweep plans.

A daemon-dispatched sweep (``repro sweep --via-daemon --shards N``, see
:mod:`repro.service.coordinator`) splits the jobs of one
:class:`~repro.service.sweep.SweepPlan` into ``N`` :class:`SweepShard`\\ s,
each submitted by its own thread under its own job group.  The
partitioner is the layer that decides *which* shard owns *which* job, and
it must preserve the planner's invariants:

* **Keyed by fingerprint, stable.**  A job's home shard is derived from its
  content fingerprint (SHA-256, process-restart stable), so the same plan
  partitioned twice — in another process, on another day — lands every job
  on the same shard and in the same job group.
* **Dedup-preserving.**  The planner collapses identical deterministic grid
  points into one job; every point keeps referencing that single job, which
  lives on exactly one shard.  Sharding never re-executes work the planner
  deduplicated, and two shards never compute the same deterministic
  fingerprint.
* **Independent nondeterministic points.**  ``seed=None`` points are
  planned as one job *each* (they are independent random samples even when
  their configs collide).  The partitioner keys them by ``(fingerprint,
  ordinal)`` so colliding samples spread over shards instead of clumping,
  but they remain separate jobs — no shard, store or merge step may ever
  collapse two of them.
* **Balanced.**  Pure hash placement can leave one shard with most of the
  work; a deterministic rebalancing pass moves jobs (highest sort key
  first) from the fullest to the emptiest shard until loads differ by at
  most one.  The pass only looks at fingerprints and shard loads, so it is
  as stable as the hash itself for identical plans.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ServiceError
from repro.service.jobs import DetectionJob
from repro.service.sweep import SweepPlan


@dataclass
class SweepShard:
    """One shard's slice of a sweep plan.

    Attributes:
        shard_id: index of this shard (``0 .. num_shards - 1``).
        num_shards: total shards the plan was split into.
        jobs: the jobs this shard executes, in global plan order.
        job_indices: for each local job, its index in ``plan.jobs`` —
            the coordinator uses this to splice shard results back into
            the plan's job order.
    """

    shard_id: int
    num_shards: int
    jobs: List[DetectionJob] = field(default_factory=list)
    job_indices: List[int] = field(default_factory=list)

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)


def shard_sort_key(fingerprint: str, ordinal: int = 0) -> str:
    """Stable per-job placement key.

    Deterministic jobs use their fingerprint directly (``ordinal`` 0).
    Nondeterministic jobs mix in an ordinal — how many earlier plan jobs
    share the same fingerprint — so independent samples of one config
    spread across shards instead of all hashing to the same one.
    """
    if ordinal == 0:
        return fingerprint
    return hashlib.sha256(
        f"{fingerprint}#{ordinal}".encode("ascii")
    ).hexdigest()


def partition_plan(plan: SweepPlan, num_shards: int) -> List[SweepShard]:
    """Split ``plan.jobs`` into ``num_shards`` balanced, stable shards.

    Every job lands on exactly one shard; shards may be empty when the
    plan has fewer jobs than shards.  See the module docstring for the
    invariants.
    """
    if num_shards < 1:
        raise ServiceError("partition_plan needs num_shards >= 1")
    shards = [SweepShard(shard_id=i, num_shards=num_shards) for i in range(num_shards)]
    # (sort_key, global_index) per job; the ordinal distinguishes repeated
    # fingerprints, which the planner only emits for seed=None jobs.
    seen: Dict[str, int] = {}
    keyed: List[tuple] = []
    for index, job in enumerate(plan.jobs):
        ordinal = seen.get(job.fingerprint, 0)
        seen[job.fingerprint] = ordinal + 1
        keyed.append((shard_sort_key(job.fingerprint, ordinal), index))

    assignment: List[int] = [0] * len(keyed)
    for key, index in keyed:
        assignment[index] = int(key[:16], 16) % num_shards

    # Deterministic rebalance: move the highest-keyed job from the fullest
    # shard to the emptiest until loads differ by at most one.  Ties break
    # toward the lowest shard id so the result is a pure function of the
    # plan's fingerprints.
    loads = [0] * num_shards
    members: List[List[tuple]] = [[] for _ in range(num_shards)]
    for key, index in keyed:
        shard = assignment[index]
        loads[shard] += 1
        members[shard].append((key, index))
    while True:
        donor = max(range(num_shards), key=lambda s: (loads[s], -s))
        receiver = min(range(num_shards), key=lambda s: (loads[s], s))
        if loads[donor] - loads[receiver] <= 1:
            break
        key, index = max(members[donor])
        members[donor].remove((key, index))
        members[receiver].append((key, index))
        assignment[index] = receiver
        loads[donor] -= 1
        loads[receiver] += 1

    for index, job in enumerate(plan.jobs):
        shard = shards[assignment[index]]
        shard.jobs.append(job)
        shard.job_indices.append(index)
    return shards


__all__ = ["SweepShard", "partition_plan", "shard_sort_key"]
