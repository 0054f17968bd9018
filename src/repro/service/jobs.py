"""Batch detection jobs: job/result records and the batch runner.

A :class:`DetectionJob` names one ``(netlist, config)`` detection;
:class:`BatchRunner` executes many of them through one shared
:class:`~repro.service.pool.WorkerPool`.  It consults a
:class:`~repro.service.store.ResultStore` first, so previously computed
(identical-content) jobs are answered from cache, then hands the seed
trials of every remaining job to the pool in one pipelined call: the
workers move straight on to the next job's seeds while the runner reduces
and stores the previous job.  Jobs that call cannot finish are re-run one
at a time with retries, so a job whose workers keep dying fails alone.
``repro batch`` and local ``repro sweep --workers N`` both run here.

Caching is only sound for deterministic runs: a job whose config has
``seed=None`` is executed unconditionally and never stored.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError, ServiceError
from repro.finder.config import FinderConfig
from repro.finder.finder import (
    TangledLogicFinder,
    plan_seed_jobs,
    report_from_outcomes,
)
from repro.finder.result import FinderReport
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.service.fingerprint import job_fingerprint
from repro.service.pool import WorkerPool
from repro.service.store import ResultStore

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DetectionJob:
    """One unit of detection work.

    Attributes:
        netlist: the design to scan.
        config: finder configuration (its ``workers`` field is ignored by
            the batch path — the runner's pool decides parallelism).
        label: caller-facing name (e.g. the design file), carried through to
            the result; not part of the fingerprint.
    """

    netlist: Netlist
    config: FinderConfig = field(default_factory=FinderConfig)
    label: str = ""

    @cached_property
    def fingerprint(self) -> str:
        """Content fingerprint of this job (cached after first computation)."""
        return job_fingerprint(self.netlist, self.config)

    @classmethod
    def with_netlist_fingerprint(
        cls,
        netlist: Netlist,
        config: FinderConfig,
        label: str,
        netlist_fingerprint: str,
    ) -> "DetectionJob":
        """Build a job whose fingerprint reuses a precomputed netlist hash.

        Callers creating many jobs over the same design (batch manifests,
        sweep grids) hash the netlist once and prime each job's cached
        fingerprint with it instead of re-hashing per job.
        """
        job = cls(netlist=netlist, config=config, label=label)
        job.__dict__["fingerprint"] = job_fingerprint(
            netlist, config, netlist_fingerprint=netlist_fingerprint
        )
        return job

    @property
    def deterministic(self) -> bool:
        """True when the job's config pins the RNG seed (cacheable)."""
        return self.config.seed is not None


@dataclass
class JobResult:
    """Outcome of one :class:`DetectionJob`.

    Attributes:
        job: the job this result answers.
        report: the finder report, or ``None`` when the job failed.
        cached: True when the report came from the result store.
        runtime_seconds: wall-clock spent answering this job (lookup or run).
        attempts: execution attempts made (0 for a cache hit).
        error: stringified terminal error when ``report`` is ``None``.
    """

    job: DetectionJob
    report: Optional[FinderReport]
    cached: bool
    runtime_seconds: float
    attempts: int = 1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the job produced a report."""
        return self.report is not None


@dataclass(frozen=True)
class BatchProgress:
    """One progress event, handed to the runner's callback.

    Attributes:
        done: jobs finished so far (including this one).
        total: jobs in the batch.
        result: the finished job's result.
    """

    done: int
    total: int
    result: JobResult


ProgressCallback = Callable[[BatchProgress], None]


class _Batch:
    """Results of one :meth:`BatchRunner.run`, finished in any order and
    reported to the progress callback in job order.

    Each job's ``runtime_seconds`` is its share of the batch's wall clock:
    the time since the previous job finished (or the batch started).
    """

    def __init__(
        self, jobs: Sequence[DetectionJob], progress: Optional[ProgressCallback]
    ) -> None:
        self.jobs = list(jobs)
        self.results: List[Optional[JobResult]] = [None] * len(self.jobs)
        self.mark = trace.clock()
        self._progress = progress
        self._reported = 0

    def since_mark(self) -> float:
        return trace.clock() - self.mark

    def finish(self, index: int, result: JobResult) -> None:
        self.results[index] = result
        self.mark = trace.clock()
        total = len(self.results)
        while self._reported < total and self.results[self._reported] is not None:
            self._reported += 1
            if self._progress is not None:
                self._progress(BatchProgress(
                    done=self._reported,
                    total=total,
                    result=self.results[self._reported - 1],
                ))


class BatchRunner:
    """Execute many detection jobs with shared workers and a shared cache.

    Args:
        workers: worker processes of the pool shared by all jobs.
        store: result store for cache lookup/insert (``None`` = no caching).
        use_cache: master switch; ``False`` bypasses the store entirely —
            no lookups and no inserts (the ``--no-cache`` path).
        max_attempts: tries per job before recording a failure, for jobs
            re-run one at a time (see :meth:`run`).
        progress: callback invoked after every finished job, in job order.
        pool: inject a pre-built :class:`WorkerPool` (owned by the caller);
            otherwise the runner creates and owns one.
    """

    def __init__(
        self,
        workers: int = 1,
        store: Optional[ResultStore] = None,
        use_cache: bool = True,
        max_attempts: int = 2,
        progress: Optional[ProgressCallback] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        if max_attempts < 1:
            raise ServiceError("BatchRunner max_attempts must be >= 1")
        self.store = store
        self.use_cache = use_cache
        self.max_attempts = max_attempts
        self.progress = progress
        self._pool = pool or WorkerPool(workers)
        self._owns_pool = pool is None

    @property
    def pool(self) -> WorkerPool:
        """The worker pool executing seed trials."""
        return self._pool

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[DetectionJob]) -> List[JobResult]:
        """Execute ``jobs`` and return one result per job, in job order.

        Every job is looked up in the store first.  The seed jobs of every
        miss then go to the pool in one call, and each computed job is
        reduced and stored as soon as it and every earlier miss are back,
        while the workers carry on with later jobs.  A repeat of a
        deterministic job waits for its first occurrence and is answered
        from the store.  Jobs the pipelined call could not finish (a
        worker that keeps dying, an error raised in a worker) are re-run
        one job per call, so a failing job fails alone.
        """
        batch = _Batch(jobs, self.progress)
        misses: List[int] = []
        repeats: Dict[int, List[int]] = {}  # first miss -> later repeats
        with trace.span("service.lookup", jobs=len(batch.jobs)) as span:
            first_miss: Dict[str, int] = {}
            for index, job in enumerate(batch.jobs):
                if self._cacheable(job) and job.fingerprint in first_miss:
                    repeats.setdefault(first_miss[job.fingerprint], []).append(index)
                    continue
                if not self._answer_from_store(batch, index):
                    misses.append(index)
                    if self._cacheable(job):
                        first_miss[job.fingerprint] = index
            span.set(hits=sum(result is not None for result in batch.results))

        tasks, owners = [], []
        for index in misses:
            job = batch.jobs[index]
            try:
                TangledLogicFinder(job.netlist, job.config)  # validates the netlist
                seed_jobs = plan_seed_jobs(job.netlist, job.config)
            except ReproError as error:
                batch.finish(index, JobResult(
                    job, None, cached=False, runtime_seconds=batch.since_mark(),
                    error=str(error),
                ))
                continue
            tasks.append((job.netlist, job.config, seed_jobs))
            owners.append(index)

        def done(position: int, outcomes) -> None:
            index = owners[position]
            job = batch.jobs[index]
            with trace.span("service.job", label=self._label(job), cache="run"):
                report = report_from_outcomes(
                    job.netlist, job.config, outcomes, batch.mark
                )
                self._store(job, report)
            batch.finish(index, JobResult(
                job, report, cached=False, runtime_seconds=report.runtime_seconds,
            ))
            for repeat in repeats.pop(index, ()):
                self._answer_from_store(batch, repeat)

        try:
            if tasks:
                self._pool.run_seed_jobs(tasks, on_done=done)
        except Exception as error:  # worker crash, pickling, OS pressure
            logger.warning(
                "pipelined run stopped (%s: %s); re-running unfinished jobs "
                "one at a time", type(error).__name__, error,
            )
        for index, result in enumerate(batch.results):
            if result is None:
                batch.finish(index, self._run_alone(batch.jobs[index], batch))
        return batch.results  # type: ignore[return-value]  # all finished

    def run_one(self, job: DetectionJob) -> JobResult:
        """Execute a single job (cache lookup, run, cache insert)."""
        return self.run([job])[0]

    # ------------------------------------------------------------------
    def _cacheable(self, job: DetectionJob) -> bool:
        return self.use_cache and self.store is not None and job.deterministic

    @staticmethod
    def _label(job: DetectionJob) -> str:
        return job.label or job.fingerprint[:12]

    def _answer_from_store(self, batch: _Batch, index: int) -> bool:
        """Finish job ``index`` from the store; False on a miss."""
        job = batch.jobs[index]
        if not self._cacheable(job):
            return False
        try:
            report = self.store.get(job.fingerprint)
        except ServiceError as store_error:
            # A flaky cache (lock contention, bad disk) degrades to
            # recomputation, never to an aborted batch.
            logger.warning(
                "cache lookup for %s failed, recomputing: %s",
                self._label(job), store_error,
            )
            return False
        if report is None:
            return False
        # The fingerprint ignores execution-only fields (workers), so a hit
        # may have been computed under a different worker count: report the
        # *requesting* job's config, not the producer's.
        if report.config != job.config:
            report = dataclasses.replace(report, config=job.config)
        batch.finish(index, JobResult(
            job, report, cached=True, runtime_seconds=batch.since_mark(),
            attempts=0,
        ))
        return True

    def _store(self, job: DetectionJob, report: FinderReport) -> None:
        if not self._cacheable(job):
            return
        try:
            self.store.put(job.fingerprint, report)
        except ServiceError as store_error:
            # The expensive work is done; a broken cache (full disk, lock
            # contention) must not discard it.
            logger.warning(
                "result for %s computed but not cached: %s",
                self._label(job), store_error,
            )

    def _run_alone(self, job: DetectionJob, batch: _Batch) -> JobResult:
        """Run one job in its own pool call, retrying worker failures."""
        with trace.span("service.job", label=self._label(job), cache="run"):
            report, attempts, error = self._execute(job)
            if report is not None:
                self._store(job, report)
        return JobResult(
            job, report, cached=False, runtime_seconds=batch.since_mark(),
            attempts=attempts, error=error,
        )

    def _execute(self, job: DetectionJob):
        """Run a job through the shared pool with retry-on-worker-failure."""
        last_error: Optional[str] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                report = TangledLogicFinder(job.netlist, job.config).run(
                    pool=self._pool
                )
                return report, attempt, None
            except ReproError as error:
                # Misconfiguration or exhausted pool retries: deterministic,
                # retrying cannot help.
                return None, attempt, str(error)
            except Exception as error:  # worker crash, pickling, OS pressure
                last_error = f"{type(error).__name__}: {error}"
        return None, self.max_attempts, last_error

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the pool if this runner created it."""
        if self._owns_pool:
            self._pool.shutdown()

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def summarize_results(results: Sequence[JobResult]) -> str:
    """One-line batch summary (jobs, hits, failures, total runtime)."""
    hits = sum(1 for r in results if r.cached)
    failed = sum(1 for r in results if not r.ok)
    runtime = sum(r.runtime_seconds for r in results)
    return (
        f"{len(results)} job(s): {hits} cache hit(s), "
        f"{len(results) - hits - failed} computed, {failed} failed, "
        f"{runtime:.2f}s total"
    )
