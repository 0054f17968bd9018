"""Reusable, cache-aware worker pool for seed-parallel detection runs.

The finder's seed trials are embarrassingly parallel, but a fresh
``ProcessPoolExecutor`` per run re-pickles the whole netlist for every chunk
of every run.  :class:`WorkerPool` keeps one executor alive across runs and
ships each ``(netlist, config)`` context to the workers **once**: workers
memoize contexts by key in a process-local cache, and later seed batches for
the same context travel as bare ``(seed_cell, rng_seed)`` pairs.

Context transport (the expensive part of that one shipment) has three
shapes, chosen by :func:`transport_mode` per run:

* **shm** (default on the numpy backend): the parent serializes the design
  once into the pack-blob layout of :mod:`repro.io.binfmt`, places it in a
  ``multiprocessing.shared_memory`` segment and sends workers only a small
  descriptor ``("shm", name, nbytes, config_bytes)``.  Workers map the
  segment and serve the netlist zero-copy from it — N workers share one
  physical copy of the arrays instead of holding N pickled replicas.
* **file**: when the parent's netlist was itself loaded from a pack file
  that still exists with a matching header fingerprint, the descriptor is
  just ``("file", path, fingerprint, config_bytes)`` and workers mmap the
  same file through the page cache — nothing is serialized at all.
* **pickle** (fallback): the classic pickled ``(netlist, config, arrays)``
  tuple, forced by ``REPRO_PICKLE_TRANSPORT=1`` or by the scalar reference
  backend (whose workers want real tuples, not array views), and used
  automatically if shared-memory creation fails.  Results are bit-identical
  across all three transports.

Protocol: a batch submitted without its context to a worker that has not
seen it yet returns a *miss* marker; the pool re-submits that batch with the
context attached, priming the worker for the rest of its lifetime.  A worker
crash (``BrokenProcessPool``) restarts the executor and replays the
unfinished batches, up to ``max_retries`` times.  A worker that died while
the pool was *idle* (between jobs) is detected up front and the executor is
respawned lazily before the next run — without consuming a retry.

Outcomes are returned in the original job order, so results are independent
of both the chunking and the worker count — ``workers=8`` reproduces the
``workers=1`` report exactly.

Metrics: :attr:`WorkerPool.metrics` is the pool's live
:class:`~repro.obs.metrics.MetricRegistry` of ``pool.*`` counters —
``batches`` (including re-submits), ``context_shipments``,
``context_misses`` (batches bounced by an unprimed worker), ``restarts``
(in-task crashes, billed against ``max_retries``), ``respawns`` (idle
deaths, never billed), ``serial_runs``, ``{pickle,shm,file}_contexts``,
``transport_fallbacks``, ``shm_segments``, ``shm_bytes``,
``descriptor_bytes`` and ``context_bytes`` (what actually crossed the
executor's pickle channel for context shipments).  While tracing, the same
counts land in the trace too.
"""

from __future__ import annotations

import concurrent.futures
import gc
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ParseError, ServiceError
from repro.finder.config import FinderConfig
from repro.finder.finder import _process_batch, _process_seed, _SeedOutcome
from repro.netlist.backed import ArrayBackedNetlist
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.obs.metrics import MetricRegistry
from repro.service.fingerprint import FINGERPRINT_CACHE_KEY, job_fingerprint

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

#: Set to ``1`` to force the pickled-context transport (the pre-shm path).
PICKLE_TRANSPORT_ENV = "REPRO_PICKLE_TRANSPORT"


def transport_mode() -> str:
    """``"shared"`` or ``"pickle"`` — how contexts reach the workers.

    Shared-memory transport requires the numpy backend (the scalar
    reference works on Python tuples, which a mapped blob cannot provide
    zero-copy) and can be disabled with ``REPRO_PICKLE_TRANSPORT=1``.
    """
    if os.environ.get(PICKLE_TRANSPORT_ENV, "") == "1":
        return "pickle"
    if resolve_backend() != "numpy":
        return "pickle"
    return "shared"


# Worker-process-local context memo: key -> (netlist, config).  Populated the
# first time a batch arrives with its context attached.  Bounded: only the
# most recently used contexts are retained, so a long batch over many large
# designs holds a few netlists per worker, not all of them; an evicted
# context that comes back later is re-shipped through the miss protocol.
_WORKER_CONTEXTS: Dict[str, Tuple[Netlist, FinderConfig]] = {}
_WORKER_CONTEXT_LIMIT = 4

# key -> the SharedMemory segment backing that context's netlist, closed on
# eviction.  The parent owns the segment name (and unlinks it); workers only
# close their own mapping.
_WORKER_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}
_WORKER_PENDING_CLOSE: List[shared_memory.SharedMemory] = []

#: Sentinel a worker returns when asked to run a batch for a context it has
#: never been shown.
_MISSING_CONTEXT = "__repro-missing-context__"

_IndexedJob = Tuple[int, Tuple[int, int]]

# A shipped context is a transport descriptor: ("pickle", payload),
# ("shm", name, nbytes, config_bytes) or ("file", path, fingerprint,
# config_bytes).
_Context = Tuple[Any, ...]


def _close_segment(segment: shared_memory.SharedMemory) -> bool:
    try:
        segment.close()
        return True
    except BufferError:
        return False


def _evict_worker_context(key: str) -> None:
    """Drop one memoized context and unmap its shared-memory segment.

    The netlist's array views keep the mapping's buffer exported until they
    are garbage; derived caches (``ScoreContext`` et al.) form reference
    cycles through the netlist, so a collection pass runs before the close
    is retried and stubborn segments wait on a pending list.
    """
    _WORKER_CONTEXTS.pop(key, None)
    segment = _WORKER_SEGMENTS.pop(key, None)
    if segment is not None:
        _WORKER_PENDING_CLOSE.append(segment)
    if _WORKER_PENDING_CLOSE:
        gc.collect()
        _WORKER_PENDING_CLOSE[:] = [
            s for s in _WORKER_PENDING_CLOSE if not _close_segment(s)
        ]


def _install_context(key: str, context: _Context) -> Tuple[Netlist, FinderConfig]:
    """Materialize a shipped context inside a worker process."""
    kind = context[0]
    if kind == "pickle":
        netlist, config, arrays = pickle.loads(context[1])
        if arrays is not None:
            # Install the shipped CSR view into the unpickled netlist's lazy
            # cache slot so the array kernel never rebuilds it here.
            netlist._arrays = arrays
        return netlist, config
    if kind == "shm":
        from repro.io.binfmt import netlist_from_buffer

        _, name, nbytes, config_bytes = context
        segment = shared_memory.SharedMemory(name=name)
        # The segment may be page-rounded beyond the blob; view exactly it.
        netlist = netlist_from_buffer(
            segment.buf[:nbytes], source=f"shm:{name}", owner=segment
        )
        _WORKER_SEGMENTS[key] = segment
        return netlist, pickle.loads(config_bytes)
    if kind == "file":
        from repro.io.binfmt import load_packed

        _, path, fingerprint, config_bytes = context
        netlist = load_packed(path)
        loaded = netlist.derived_cache.get(FINGERPRINT_CACHE_KEY)
        if loaded != fingerprint:
            raise ServiceError(
                f"pack file {path} changed under the pool: worker loaded "
                f"fingerprint {loaded}, parent shipped {fingerprint}"
            )
        return netlist, config_bytes and pickle.loads(config_bytes)
    raise ServiceError(f"unknown context transport {kind!r}")


def _worker_memory() -> Dict[str, float]:
    """Peak and current-private memory of this worker, in KiB.

    ``private_kb`` (``smaps_rollup`` Private_Clean + Private_Dirty) is the
    discriminating number under fork: pages inherited copy-on-write or
    mapped from shared memory count as Shared, so a worker serving a design
    out of an shm segment shows a flat private footprint while a pickled
    replica shows up here in full.
    """
    memory = {"maxrss_kb": 0.0, "private_kb": 0.0}
    if resource is not None:
        memory["maxrss_kb"] = float(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
    try:
        with open("/proc/self/smaps_rollup") as handle:
            for line in handle:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    memory["private_kb"] += float(line.split()[1])
    except OSError:  # pragma: no cover - non-Linux
        pass
    return memory


def _worker_run_batch(
    key: str,
    indexed_jobs: Sequence[_IndexedJob],
    context: Optional[_Context] = None,
    traced: bool = False,
):
    """Run ``(index, (seed_cell, rng_seed))`` jobs inside a worker process.

    When ``traced``, the worker captures the spans and metrics its seeds
    produce and returns ``{"rows", "spans", "metrics", "started_at",
    "execute_s", "maxrss_kb", "private_kb"}`` instead of the bare row list;
    the parent re-parents the spans under its own ``pool.task`` span and
    merges the metrics.
    """
    if context is not None:
        _evict_worker_context(key)  # drop any stale mapping before reinstall
        _WORKER_CONTEXTS[key] = _install_context(key, context)
    entry = _WORKER_CONTEXTS.get(key)
    if entry is None:
        return _MISSING_CONTEXT
    # LRU maintenance: dicts iterate in insertion order, so re-inserting the
    # live key and dropping from the front evicts least-recently-used first.
    del _WORKER_CONTEXTS[key]
    _WORKER_CONTEXTS[key] = entry
    while len(_WORKER_CONTEXTS) > _WORKER_CONTEXT_LIMIT:
        _evict_worker_context(next(iter(_WORKER_CONTEXTS)))
    netlist, config = entry
    if not traced:
        return [
            (index, _process_seed(netlist, config, cell, rng))
            for index, (cell, rng) in indexed_jobs
        ]
    started_at = time.time()  # wall clock: comparable with the parent's
    tracer = trace.get_tracer()
    with tracer.capture() as capture:
        began = trace.clock()
        with tracer.span("pool.batch", jobs=len(indexed_jobs)):
            rows = [
                (index, _process_seed(netlist, config, cell, rng))
                for index, (cell, rng) in indexed_jobs
            ]
        execute_s = trace.clock() - began
    return {
        "rows": rows,
        "spans": capture.spans,
        "metrics": capture.metrics,
        "started_at": started_at,
        "execute_s": execute_s,
        **_worker_memory(),
    }


class WorkerPool:
    """Persistent process pool that runs seed batches for many detections.

    Args:
        workers: worker process count; ``<= 1`` executes inline (serial,
            deterministic, zero pickling).
        max_retries: executor restarts tolerated per run before giving up
            with :class:`ServiceError`.
        batches_per_worker: seed batches carved per worker per run; larger
            values smooth load imbalance between easy and hard seeds at the
            cost of more (cheap) submissions.
    """

    def __init__(
        self, workers: int, max_retries: int = 2, batches_per_worker: int = 1
    ) -> None:
        if workers < 1:
            raise ServiceError("WorkerPool workers must be >= 1")
        if max_retries < 0:
            raise ServiceError("WorkerPool max_retries must be >= 0")
        if batches_per_worker < 1:
            raise ServiceError("WorkerPool batches_per_worker must be >= 1")
        self.workers = workers
        self.max_retries = max_retries
        self.batches_per_worker = batches_per_worker
        #: Live ``pool.*`` counters of this instance (see the module doc).
        self.metrics = MetricRegistry()
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._shipped_keys: Set[str] = set()
        # key -> (segment, blob_nbytes).  The parent owns segment lifetime:
        # it unlinks on eviction/shutdown; workers attach by name.  Bounded
        # like the worker memo — an evicted context re-serializes on return.
        self._segments: Dict[str, Tuple[shared_memory.SharedMemory, int]] = {}

    # ------------------------------------------------------------------
    def run_seed_jobs(
        self,
        netlist: Netlist,
        config: FinderConfig,
        jobs: Sequence[Tuple[int, int]],
        key: Optional[str] = None,
    ) -> List[_SeedOutcome]:
        """Run ``(seed_cell, rng_seed)`` jobs; outcomes in job order.

        ``key`` identifies the ``(netlist, config)`` context across calls —
        callers that already computed a job fingerprint should pass it to
        skip re-hashing the netlist.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        if self.workers <= 1 or len(jobs) == 1:
            trace.count(self.metrics, "pool.serial_runs")
            with trace.span("pool.serial", jobs=len(jobs)):
                return _process_batch(netlist, config, jobs)

        if key is None:
            key = job_fingerprint(netlist, config)
        indexed: List[_IndexedJob] = list(enumerate(jobs))
        num_batches = min(
            len(indexed), min(self.workers, len(indexed)) * self.batches_per_worker
        )
        remaining = [indexed[i::num_batches] for i in range(num_batches)]

        outcomes: List[Optional[_SeedOutcome]] = [None] * len(jobs)
        with trace.span(
            "pool.run", jobs=len(jobs), workers=self.workers, batches=num_batches
        ):
            self._run_batches(netlist, config, key, remaining, outcomes)
        return outcomes  # type: ignore[return-value]  # every slot is filled

    # ------------------------------------------------------------------
    def _prepare_context(
        self, netlist: Netlist, config: FinderConfig, key: str
    ) -> Tuple[_Context, int]:
        """Build the transport descriptor for one context shipment.

        Returns ``(context, shipped_bytes)`` where ``shipped_bytes`` is what
        actually crosses the executor's pickle channel per batch — the whole
        payload under pickle transport, just the descriptor under shm/file.
        """
        if transport_mode() == "pickle":
            return self._pickle_context(netlist, config)
        config_bytes = pickle.dumps(config)
        descriptor = self._file_context(netlist, config_bytes)
        if descriptor is None:
            descriptor = self._shm_context(netlist, config_bytes, key)
        if descriptor is None:  # shared memory unavailable: fall back
            trace.count(self.metrics, "pool.transport_fallbacks")
            return self._pickle_context(netlist, config)
        shipped = len(pickle.dumps(descriptor))
        trace.count(self.metrics, f"pool.{descriptor[0]}_contexts")
        trace.count(self.metrics, "pool.descriptor_bytes", shipped)
        return descriptor, shipped

    def _pickle_context(
        self, netlist: Netlist, config: FinderConfig
    ) -> Tuple[_Context, int]:
        # Ship the parent's (cached) CSR view with the context so no worker
        # rebuilds it; under the scalar reference backend the workers never
        # touch it, and an array-backed netlist already carries its arrays
        # inside its own serialized form.
        arrays = None
        if resolve_backend() == "numpy" and not isinstance(
            netlist, ArrayBackedNetlist
        ):
            arrays = netlist.arrays
        payload = pickle.dumps((netlist, config, arrays))
        trace.count(self.metrics, "pool.pickle_contexts")
        return ("pickle", payload), len(payload)

    def _file_context(
        self, netlist: Netlist, config_bytes: bytes
    ) -> Optional[_Context]:
        """Pack-file descriptor, when the design came from a live pack file."""
        if not isinstance(netlist, ArrayBackedNetlist):
            return None
        path = netlist.source
        if not path or not os.path.isfile(path):
            return None
        fingerprint = netlist.derived_cache.get(FINGERPRINT_CACHE_KEY)
        if fingerprint is None:
            return None
        try:
            from repro.io.binfmt import packed_fingerprint

            if packed_fingerprint(path) != fingerprint:
                return None
        except (ParseError, OSError):
            return None
        return ("file", path, fingerprint, config_bytes)

    def _shm_context(
        self, netlist: Netlist, config_bytes: bytes, key: str
    ) -> Optional[_Context]:
        """Shared-memory descriptor, creating/reusing the segment for ``key``."""
        entry = self._segments.get(key)
        if entry is None:
            from repro.io.binfmt import serialize_netlist

            blob = serialize_netlist(netlist)
            try:
                segment = shared_memory.SharedMemory(create=True, size=len(blob))
            except OSError:
                return None
            segment.buf[: len(blob)] = blob
            entry = (segment, len(blob))
            self._segments[key] = entry
            trace.count(self.metrics, "pool.shm_segments")
            trace.count(self.metrics, "pool.shm_bytes", len(blob))
            while len(self._segments) > _WORKER_CONTEXT_LIMIT:
                stale = next(iter(self._segments))
                self._destroy_segment(*self._segments.pop(stale))
        else:  # LRU touch
            del self._segments[key]
            self._segments[key] = entry
        segment, nbytes = entry
        return ("shm", segment.name, nbytes, config_bytes)

    @staticmethod
    def _destroy_segment(segment: shared_memory.SharedMemory, _nbytes: int) -> None:
        _close_segment(segment)
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already removed
            pass

    def _release_segments(self) -> None:
        while self._segments:
            _, entry = self._segments.popitem()
            self._destroy_segment(*entry)

    # ------------------------------------------------------------------
    def _run_batches(
        self,
        netlist: Netlist,
        config: FinderConfig,
        key: str,
        remaining: List[List[_IndexedJob]],
        outcomes: List[Optional[_SeedOutcome]],
    ) -> None:
        """Submit/retry the batch lists until every outcome slot is filled."""
        traced = trace.enabled()
        ship_context = key not in self._shipped_keys
        restarts = 0
        context: Optional[_Context] = None
        context_bytes = 0
        while remaining:
            executor = self._ensure_executor()
            if ship_context and context is None:
                # Serialized exactly once per run; the same prepared payload
                # serves every shipping batch and the byte counters.
                context, context_bytes = self._prepare_context(
                    netlist, config, key
                )
            shipped = context if ship_context else None
            futures = {}
            submitted_at: Dict[Any, float] = {}
            broken = False
            retry: List[List[_IndexedJob]] = []
            for position, chunk in enumerate(remaining):
                try:
                    future = executor.submit(
                        _worker_run_batch, key, chunk, shipped, traced
                    )
                except (BrokenProcessPool, RuntimeError):
                    # The executor died while idle (e.g. a worker was OOM
                    # killed between runs): replay everything not yet
                    # submitted on a fresh executor.
                    broken = True
                    retry.extend(remaining[position:])
                    break
                futures[future] = chunk
                submitted_at[future] = time.time()
                trace.count(self.metrics, "pool.batches")
                if shipped is not None:
                    trace.count(self.metrics, "pool.context_shipments")
                    trace.count(self.metrics, "pool.context_bytes", context_bytes)
            self._shipped_keys.add(key)
            try:
                for future, chunk in futures.items():
                    try:
                        result = future.result()
                    except (BrokenProcessPool, OSError):
                        broken = True
                        retry.append(chunk)
                        continue
                    if result == _MISSING_CONTEXT:
                        trace.count(self.metrics, "pool.context_misses")
                        retry.append(chunk)
                        continue
                    rows = result
                    if isinstance(result, dict):  # a traced worker's capture
                        rows = result["rows"]
                        self._record_task(result, submitted_at[future], len(chunk))
                    for index, outcome in rows:
                        outcomes[index] = outcome
            except BaseException:
                # An application error surfaced from a worker: don't leave
                # this run's other batches computing into a shared pool that
                # the next job will queue behind.
                for future in futures:
                    future.cancel()
                raise

            if broken:
                restarts += 1
                trace.count(self.metrics, "pool.restarts")
                if restarts > self.max_retries:
                    raise ServiceError(
                        f"worker pool crashed {restarts} time(s); giving up "
                        f"after {self.max_retries} restart(s)"
                    )
                self._restart_executor()
            # Any retried batch carries the context: it either bounced off an
            # unprimed worker or is replayed into a fresh executor.
            ship_context = bool(retry)
            remaining = retry

    def _record_task(
        self, result: Dict[str, Any], submitted: float, num_jobs: int
    ) -> None:
        """Emit one ``pool.task`` span from a traced worker result and merge
        the worker's telemetry under it.

        Task duration/queue wait are wall-clock deltas (``time.time``): the
        worker's monotonic clock origin is not comparable with the parent's.
        """
        tracer = trace.get_tracer()
        task_id = tracer.record(
            "pool.task",
            duration=max(0.0, time.time() - submitted),
            queue_wait_s=max(0.0, result["started_at"] - submitted),
            execute_s=result["execute_s"],
            jobs=num_jobs,
            maxrss_kb=result.get("maxrss_kb", 0.0),
            private_kb=result.get("private_kb", 0.0),
        )
        tracer.adopt(result["spans"], parent_id=task_id)
        tracer.merge_metrics(result["metrics"])
        trace.counter("pool.tasks").add(1)
        trace.histogram("pool.worker_maxrss_kb").observe(
            result.get("maxrss_kb", 0.0)
        )
        trace.histogram("pool.worker_private_kb").observe(
            result.get("private_kb", 0.0)
        )

    # ------------------------------------------------------------------
    def _workers_dead(self) -> bool:
        """True when the idle executor has lost a worker (or broke).

        A worker OOM-killed *between* jobs leaves the executor poisoned:
        the next submit would raise ``BrokenProcessPool`` and burn one of
        the run's retries on a failure that predates it.  Checking process
        liveness up front lets :meth:`_ensure_executor` rebuild lazily —
        the next task starts on a healthy pool and retries stay reserved
        for crashes that happen *during* that task.
        """
        executor = self._executor
        if executor is None:
            return False
        if getattr(executor, "_broken", False):
            return True
        processes = getattr(executor, "_processes", None)
        if not processes:
            return False
        return any(not process.is_alive() for process in processes.values())

    def _ensure_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._executor is not None and self._workers_dead():
            trace.count(self.metrics, "pool.respawns")
            self._restart_executor()
        if self._executor is None:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
            self._shipped_keys.clear()
        return self._executor

    def _restart_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._shipped_keys.clear()

    def shutdown(self) -> None:
        """Stop the worker processes and release shared-memory segments
        (idempotent); the pool may be reused — the next run lazily starts a
        fresh executor."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._shipped_keys.clear()
        self._release_segments()

    def __del__(self) -> None:  # best-effort: don't leak named segments
        try:
            self._release_segments()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
