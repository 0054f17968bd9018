"""The worker pool: the one owner of detection worker processes.

The finder's seed trials are embarrassingly parallel, but a fresh
``ProcessPoolExecutor`` per run re-pickles the whole netlist for every chunk
of every run.  :class:`WorkerPool` keeps one executor alive across runs and
ships each netlist to the workers **once**: workers memoize netlists by
context key in a process-local cache, and later seed batches for the same
netlist travel as bare ``(seed_cell, rng_seed)`` pairs plus the small
:class:`~repro.finder.config.FinderConfig` they run under.

:meth:`WorkerPool.run_seed_jobs` takes the seed jobs of many detections in
one call and keeps every worker busy across them: the batches of later
detections are queued while earlier ones compute, and each detection's
outcomes go to an ``on_done`` callback, in task order, as soon as that
detection and every earlier one are complete — the batch runner reduces
and stores a job there while the workers carry on.

Context keys: a netlist's content fingerprint when it is already known
(memoized by :func:`~repro.service.fingerprint.fingerprint_netlist`, or
read from a pack header), so every job over one design shares one
context; otherwise a per-object token.  The pool itself never hashes a
netlist.

Context transport (the expensive part of that one shipment) has three
shapes, chosen by :func:`transport_mode` per call:

* **shm** (default on the numpy backend): the parent serializes the design
  once into the pack-blob layout of :mod:`repro.io.binfmt`, places it in a
  ``multiprocessing.shared_memory`` segment and sends workers only a small
  descriptor ``("shm", name, nbytes)``.  Workers map the segment and serve
  the netlist zero-copy from it — N workers share one physical copy of the
  arrays instead of holding N pickled replicas.
* **file**: when the parent's netlist was itself loaded from a pack file
  that still exists with a matching header fingerprint, the descriptor is
  just ``("file", path, fingerprint)`` and workers mmap the same file
  through the page cache — nothing is serialized at all.
* **pickle** (fallback): the classic pickled ``(netlist, arrays)`` pair,
  forced by ``REPRO_PICKLE_TRANSPORT=1`` or by the scalar reference
  backend (whose workers want real tuples, not array views), and used
  automatically if shared-memory creation fails.  Results are bit-identical
  across all three transports.

Protocol: a batch submitted without its context to a worker that has not
seen it yet returns a *miss* marker; the pool re-submits that batch with the
context attached, priming the worker for the rest of its lifetime.  A worker
crash (``BrokenProcessPool``) restarts the executor and replays the
unfinished batches, up to :data:`MAX_RETRIES` times per call.  A worker
that died while the pool was *idle* (between calls) is detected up front
and the executor is respawned lazily before the next call — without
consuming a retry.

Outcomes are returned in the original job order, so results are independent
of both the chunking and the worker count — ``workers=8`` reproduces the
``workers=1`` report exactly.

Metrics: :attr:`WorkerPool.metrics` is the pool's live
:class:`~repro.obs.metrics.MetricRegistry` of ``pool.*`` counters —
``batches`` (including re-submits), ``context_shipments``,
``context_misses`` (batches bounced by an unprimed worker), ``restarts``
(in-task crashes, billed against :data:`MAX_RETRIES`), ``respawns`` (idle
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
import uuid
from collections import Counter, deque
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import (
    Any,
    Callable,
    Collection,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ParseError, ServiceError
from repro.finder.config import FinderConfig
from repro.finder.finder import _process_batch, _process_seed, _SeedOutcome
from repro.netlist.backed import ArrayBackedNetlist
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.obs.metrics import MetricRegistry
from repro.service.fingerprint import FINGERPRINT_CACHE_KEY

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

#: Set to ``1`` to force the pickled-context transport (the pre-shm path).
PICKLE_TRANSPORT_ENV = "REPRO_PICKLE_TRANSPORT"

#: Seed batches carved per worker from each detection's jobs.
BATCHES_PER_WORKER = 1
#: Executor restarts tolerated per :meth:`WorkerPool.run_seed_jobs` call
#: before it gives up with :class:`ServiceError`.
MAX_RETRIES = 2
#: Batches kept submitted per worker: one computing and one queued behind
#: it, so no worker waits on the parent; the rest wait in the pool's own
#: queue, where a replayed batch can still jump ahead of them.
IN_FLIGHT_PER_WORKER = 2


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


#: ``Netlist.derived_cache`` key of the per-object context token.
_TOKEN_CACHE_KEY = "pool-context-token"


def context_key(netlist: Netlist) -> str:
    """The key a netlist's worker context is memoized under.

    Its content fingerprint when one is already known (so two loads of one
    design share a context), else a token unique to this object.  Never
    hashes the netlist.
    """
    cache = netlist.derived_cache
    known = cache.get(FINGERPRINT_CACHE_KEY)
    if known is not None:
        return known
    if _TOKEN_CACHE_KEY not in cache:
        cache[_TOKEN_CACHE_KEY] = f"object-{uuid.uuid4().hex}"
    return cache[_TOKEN_CACHE_KEY]


# Worker-process-local context memo: key -> netlist.  Populated the first
# time a batch arrives with its context attached.  Bounded: only the most
# recently used netlists are retained, so a long batch over many large
# designs holds a few netlists per worker, not all of them; an evicted
# context that comes back later is re-shipped through the miss protocol.
_WORKER_CONTEXTS: Dict[str, Netlist] = {}
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
# ("shm", name, nbytes) or ("file", path, fingerprint).
_Context = Tuple[Any, ...]

#: One detection's seed work: ``(netlist, config, [(seed_cell, rng_seed)])``.
SeedTask = Tuple[Netlist, FinderConfig, Sequence[Tuple[int, int]]]
#: ``on_done(task_index, outcomes)``.
DoneCallback = Callable[[int, List[_SeedOutcome]], None]


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


def _install_context(key: str, context: _Context) -> Netlist:
    """Materialize a shipped context inside a worker process."""
    kind = context[0]
    if kind == "pickle":
        netlist, arrays = pickle.loads(context[1])
        if arrays is not None:
            # Install the shipped CSR view into the unpickled netlist's lazy
            # cache slot so the array kernel never rebuilds it here.
            netlist._arrays = arrays
        return netlist
    if kind == "shm":
        from repro.io.binfmt import netlist_from_buffer

        _, name, nbytes = context
        segment = shared_memory.SharedMemory(name=name)
        # The segment may be page-rounded beyond the blob; view exactly it.
        netlist = netlist_from_buffer(
            segment.buf[:nbytes], source=f"shm:{name}", owner=segment
        )
        _WORKER_SEGMENTS[key] = segment
        return netlist
    if kind == "file":
        from repro.io.binfmt import load_packed

        _, path, fingerprint = context
        netlist = load_packed(path)
        loaded = netlist.derived_cache.get(FINGERPRINT_CACHE_KEY)
        if loaded != fingerprint:
            raise ServiceError(
                f"pack file {path} changed under the pool: worker loaded "
                f"fingerprint {loaded}, parent shipped {fingerprint}"
            )
        return netlist
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
    config: FinderConfig,
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
    if context is not None and key not in _WORKER_CONTEXTS:
        _evict_worker_context(key)  # drop a stale mapping before install
        _WORKER_CONTEXTS[key] = _install_context(key, context)
    netlist = _WORKER_CONTEXTS.get(key)
    if netlist is None:
        return _MISSING_CONTEXT
    # LRU maintenance: dicts iterate in insertion order, so re-inserting the
    # live key and dropping from the front evicts least-recently-used first.
    del _WORKER_CONTEXTS[key]
    _WORKER_CONTEXTS[key] = netlist
    while len(_WORKER_CONTEXTS) > _WORKER_CONTEXT_LIMIT:
        _evict_worker_context(next(iter(_WORKER_CONTEXTS)))
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
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ServiceError("WorkerPool workers must be >= 1")
        self.workers = workers
        #: Live ``pool.*`` counters of this instance (see the module doc).
        self.metrics = MetricRegistry()
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None
        # key -> (call, task) that first shipped the key's context to the
        # current executor; every batch of that task carries the context,
        # later tasks send bare batches.  Cleared with the executor.
        self._shipped: Dict[str, Tuple[object, int]] = {}
        # key -> (segment, blob_nbytes).  The parent owns segment lifetime:
        # it unlinks on eviction/shutdown; workers attach by name.  Bounded
        # like the worker memo — an evicted context re-serializes on return.
        self._segments: Dict[str, Tuple[shared_memory.SharedMemory, int]] = {}

    # ------------------------------------------------------------------
    def run_seed_jobs(
        self,
        tasks: Sequence[SeedTask],
        on_done: Optional[DoneCallback] = None,
    ) -> List[List[_SeedOutcome]]:
        """Run the seed jobs of several detections in one go.

        Returns one outcome list per task, each in job order.  When
        ``on_done`` is given, each task's outcomes go to ``on_done(index,
        outcomes)`` instead — in task order, as soon as that task and every
        earlier one are complete, while later tasks are still computing —
        and are not kept: the call returns an empty list and holds only the
        unfinished tasks' outcomes.
        """
        results: List[List[_SeedOutcome]] = []
        deliver = on_done or (lambda index, outcomes: results.append(outcomes))
        tasks = [(netlist, config, list(jobs)) for netlist, config, jobs in tasks]
        total = sum(len(jobs) for _, _, jobs in tasks)
        if self.workers <= 1 or total <= 1:
            trace.count(self.metrics, "pool.serial_runs")
            with trace.span("pool.serial", jobs=total):
                for index, (netlist, config, jobs) in enumerate(tasks):
                    deliver(index, _process_batch(netlist, config, jobs))
            return results

        with trace.span(
            "pool.run", tasks=len(tasks), jobs=total, workers=self.workers
        ):
            self._run_batches(tasks, deliver)
        return results

    # ------------------------------------------------------------------
    def _prepare_context(
        self, netlist: Netlist, key: str, in_use: Collection[str]
    ) -> Tuple[_Context, int]:
        """Build the transport descriptor for one context shipment.

        Returns ``(context, shipped_bytes)`` where ``shipped_bytes`` is what
        actually crosses the executor's pickle channel per batch — the whole
        payload under pickle transport, just the descriptor under shm/file.
        """
        if transport_mode() == "pickle":
            return self._pickle_context(netlist)
        descriptor = self._file_context(netlist)
        if descriptor is None:
            descriptor = self._shm_context(netlist, key, in_use)
        if descriptor is None:  # shared memory unavailable: fall back
            trace.count(self.metrics, "pool.transport_fallbacks")
            return self._pickle_context(netlist)
        shipped = len(pickle.dumps(descriptor))
        trace.count(self.metrics, f"pool.{descriptor[0]}_contexts")
        trace.count(self.metrics, "pool.descriptor_bytes", shipped)
        return descriptor, shipped

    def _pickle_context(self, netlist: Netlist) -> Tuple[_Context, int]:
        # Ship the parent's (cached) CSR view with the context so no worker
        # rebuilds it; under the scalar reference backend the workers never
        # touch it, and an array-backed netlist already carries its arrays
        # inside its own serialized form.
        arrays = None
        if resolve_backend() == "numpy" and not isinstance(
            netlist, ArrayBackedNetlist
        ):
            arrays = netlist.arrays
        payload = pickle.dumps((netlist, arrays))
        trace.count(self.metrics, "pool.pickle_contexts")
        return ("pickle", payload), len(payload)

    def _file_context(self, netlist: Netlist) -> Optional[_Context]:
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
        return ("file", path, fingerprint)

    def _shm_context(
        self, netlist: Netlist, key: str, in_use: Collection[str]
    ) -> Optional[_Context]:
        """Shared-memory descriptor, creating/reusing the segment for ``key``.

        A new segment evicts the least recently used ones beyond the
        limit, but never one in ``in_use`` (keys that batches of the
        current call may still ship).
        """
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
            self._trim_segments(in_use)
        else:  # LRU touch
            del self._segments[key]
            self._segments[key] = entry
        segment, nbytes = entry
        return ("shm", segment.name, nbytes)

    def _trim_segments(self, in_use: Collection[str] = ()) -> None:
        """Unlink least recently used segments beyond the limit, skipping
        those in ``in_use``."""
        idle = [key for key in self._segments if key not in in_use]
        excess = len(self._segments) - _WORKER_CONTEXT_LIMIT
        for key in idle[: max(0, excess)]:
            self._destroy_segment(*self._segments.pop(key))

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
    def _run_batches(self, tasks: Sequence[SeedTask], deliver: DoneCallback) -> None:
        """Submit/retry every task's batches until every outcome slot is
        filled, handing finished tasks to ``deliver`` in task order."""
        call = object()  # identifies this call in self._shipped
        keys = [context_key(netlist) for netlist, _, _ in tasks]
        outcomes: List[List[Optional[_SeedOutcome]]] = [
            [None] * len(jobs) for _, _, jobs in tasks
        ]
        unfilled = [len(jobs) for _, _, jobs in tasks]
        # key -> undelivered tasks over it: their contexts (and shm
        # segments) must stay shippable.
        live = Counter(keys)
        # (task, batch, replay): a replayed batch always carries its context.
        queue: Deque[Tuple[int, List[_IndexedJob], bool]] = deque()
        for task, (_, _, jobs) in enumerate(tasks):
            indexed = list(enumerate(jobs))
            num_batches = min(len(indexed), self.workers * BATCHES_PER_WORKER)
            queue.extend(
                (task, indexed[i::num_batches], False) for i in range(num_batches)
            )
        pending: Dict[concurrent.futures.Future, Tuple[int, List[_IndexedJob], float]] = {}
        contexts: Dict[str, Tuple[_Context, int]] = {}
        traced = trace.enabled()
        restarts = 0
        delivered = 0

        def harvest(done) -> bool:
            """Record finished futures; requeue crashed/bounced batches.
            Returns True when the executor broke."""
            broken = False
            for future in done:
                task, chunk, submitted = pending.pop(future)
                try:
                    result = future.result()
                except (BrokenProcessPool, OSError, concurrent.futures.CancelledError):
                    broken = True
                    queue.appendleft((task, chunk, True))
                    continue
                if result == _MISSING_CONTEXT:
                    trace.count(self.metrics, "pool.context_misses")
                    queue.appendleft((task, chunk, True))
                    continue
                rows = result
                if isinstance(result, dict):  # a traced worker's capture
                    rows = result["rows"]
                    self._record_task(result, submitted, len(chunk))
                for index, outcome in rows:
                    outcomes[task][index] = outcome
                unfilled[task] -= len(chunk)
            return broken

        # Liveness is checked only here, while nothing is in flight: a worker
        # dying mid-call surfaces as BrokenProcessPool on its futures.
        self._ensure_executor()
        try:
            while True:
                while delivered < len(tasks) and unfilled[delivered] == 0:
                    deliver(delivered, outcomes[delivered])  # type: ignore[arg-type]
                    outcomes[delivered] = []  # handed over, not kept
                    key = keys[delivered]
                    live[key] -= 1
                    if not live[key]:
                        del live[key]
                        contexts.pop(key, None)
                    delivered += 1
                if not queue and not pending:
                    break
                executor = self._executor or self._ensure_executor()
                broken = False
                while queue and len(pending) < self.workers * IN_FLIGHT_PER_WORKER:
                    task, chunk, replay = queue.popleft()
                    netlist, config, _ = tasks[task]
                    key = keys[task]
                    owner = self._shipped.setdefault(key, (call, task))
                    context: Optional[_Context] = None
                    if replay or owner == (call, task):
                        if key not in contexts:
                            # Serialized once per call; the same prepared
                            # payload serves every shipping batch.
                            contexts[key] = self._prepare_context(netlist, key, live)
                        context = contexts[key][0]
                    try:
                        future = executor.submit(
                            _worker_run_batch, key, config, chunk, context, traced
                        )
                    except (BrokenProcessPool, RuntimeError):
                        # The executor died under us (e.g. a worker was OOM
                        # killed): replay on a fresh one.
                        queue.appendleft((task, chunk, True))
                        broken = True
                        break
                    pending[future] = (task, chunk, time.time())
                    trace.count(self.metrics, "pool.batches")
                    if context is not None:
                        trace.count(self.metrics, "pool.context_shipments")
                        trace.count(
                            self.metrics, "pool.context_bytes", contexts[key][1]
                        )
                if pending and not broken:
                    done, _ = concurrent.futures.wait(
                        pending, return_when=concurrent.futures.FIRST_COMPLETED
                    )
                    broken = harvest(done)
                if broken:
                    # A broken executor fails every pending future promptly;
                    # keep the ones that finished first, replay the rest.
                    harvest(concurrent.futures.wait(pending)[0])
                    restarts += 1
                    trace.count(self.metrics, "pool.restarts")
                    self._restart_executor()
                    if restarts > MAX_RETRIES:
                        raise ServiceError(
                            f"worker pool crashed {restarts} time(s); giving up "
                            f"after {MAX_RETRIES} restart(s)"
                        )
        except BaseException:
            # An application error surfaced from a worker (or from deliver):
            # don't leave this call's other batches computing into a shared
            # pool that the next call will queue behind.
            for future in pending:
                future.cancel()
            raise
        finally:
            self._trim_segments()

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

        A worker OOM-killed *between* calls leaves the executor poisoned:
        the next submit would raise ``BrokenProcessPool`` and burn one of
        the call's retries on a failure that predates it.  Checking process
        liveness up front lets :meth:`_ensure_executor` rebuild lazily —
        the next call starts on a healthy pool and retries stay reserved
        for crashes that happen *during* that call.
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
            self._shipped.clear()
        return self._executor

    def _restart_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._shipped.clear()

    def shutdown(self) -> None:
        """Stop the worker processes and release shared-memory segments
        (idempotent); the pool may be reused — the next run lazily starts a
        fresh executor."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._shipped.clear()
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
