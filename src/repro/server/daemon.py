"""The long-lived detection daemon.

One :class:`ServerDaemon` process owns the expensive state every one-shot
CLI run pays to rebuild — a warm :class:`~repro.service.pool.WorkerPool`,
an open WAL-mode :class:`~repro.service.store.ResultStore` and an LRU of
loaded designs (:class:`DesignCache`, pack-index aware) — and serves
detect and flow jobs over a local Unix socket in the JSON-lines protocol
of :mod:`repro.server.protocol`.

Threading model:

* the **listener thread** accepts connections (``socketserver`` threading
  server; one daemon thread per connection);
* **connection threads** parse requests, answer warm (already-cached)
  submits inline from the store — no queueing, no process spawn — and
  enqueue cold submits into the :class:`~repro.server.queue.JobQueue`;
* one **scheduler thread** dispatches queued jobs priority-first
  (starvation-free) and executes them against the shared pool + store,
  publishing ``started``/``progress``/``result`` events that streaming
  connections relay as JSONL.

Shutdown is graceful by default: on SIGTERM (or a ``shutdown`` request)
the daemon stops accepting work, lets the scheduler finish everything
already admitted, then releases the pool, the store and the socket.

Metrics: the daemon, its queue, pool, store and design cache each keep
their live counts in their own ``metrics`` registry (``server.*``,
``queue.*``, ``pool.*``, ``store.*``, ``designs.*``).  The ``status``
reply carries them as one merged snapshot (:meth:`ServerDaemon.metrics_snapshot`),
queue-wait and warm-answer latency histograms included; see
:mod:`repro.server.protocol` for the payload.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import signal
import socket
import socketserver
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReproError, ServerBusy, ServerError
from repro.flow.flow import Flow
from repro.flow.manifest import stage_from_entry
from repro.io import load_design, load_packed
from repro.io.corpus import load_pack_index
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.obs.metrics import MetricRegistry
from repro.server import protocol
from repro.server.queue import (
    DEFAULT_PRIORITY,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobQueue,
    JobRecord,
)
from repro.service.codec import config_from_dict, report_to_dict
from repro.service.fingerprint import (
    fingerprint_netlist,
    job_fingerprint,
    stage_fingerprint,
)
from repro.service.pool import WorkerPool
from repro.service.store import ResultStore

logger = logging.getLogger(__name__)

#: Default Unix socket path (override with ``--socket``).
DEFAULT_SOCKET = "/tmp/repro-server.sock"


@dataclass(frozen=True)
class ServerConfig:
    """All knobs of one :class:`ServerDaemon`.

    Attributes:
        socket_path: Unix socket the daemon listens on.
        cache_dir: result-store directory (shared, WAL-mode safe).
        workers: worker processes in the shared pool.
        max_queue_depth: queued jobs admitted before backpressure.
        starvation_limit: scheduler dispatches a class may be passed over.
        retry_after_s: base backpressure retry hint.
        max_designs: designs kept loaded in the LRU.
        pack_index: corpus directory (or index file) of pre-packed designs
            to mmap instead of parsing text; empty disables.
        drain_timeout_s: how long shutdown waits for the scheduler to
            finish the backlog before giving up.
    """

    socket_path: str = DEFAULT_SOCKET
    cache_dir: str = ".repro-cache"
    workers: int = 1
    max_queue_depth: int = 64
    starvation_limit: int = 8
    retry_after_s: float = 0.25
    max_designs: int = 8
    pack_index: str = ""
    drain_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServerError("ServerConfig workers must be >= 1")
        if self.max_designs < 1:
            raise ServerError("ServerConfig max_designs must be >= 1")
        if self.drain_timeout_s <= 0:
            raise ServerError("ServerConfig drain_timeout_s must be positive")


class DesignCache:
    """Bounded LRU of loaded designs, keyed by absolute source path.

    Every entry remembers the source file's ``(mtime_ns, size)`` at load
    time; a request for a path whose stat changed reloads instead of
    serving a stale netlist.  When a pack index is supplied, a source
    whose stat still matches its pack-time signature is served by
    mmap-loading the pre-packed ``.nla`` twin — the parse cost is paid
    zero times, not once.
    """

    def __init__(self, max_designs: int = 8, pack_index: str = "") -> None:
        self.max_designs = max_designs
        #: Live ``designs.*`` counters: ``hits``, ``misses``, ``reloads``
        #: (stat changed) and ``pack_loads`` (served from the pack index).
        self.metrics = MetricRegistry()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[Netlist, str, Tuple[int, int]]]" = (
            OrderedDict()
        )
        self._pack_index = load_pack_index(pack_index) if pack_index else {}

    def get(self, path: str) -> Tuple[Netlist, str]:
        """``(netlist, fingerprint)`` for ``path``, loading on first use."""
        path = os.path.abspath(path)
        try:
            stat = os.stat(path)
        except OSError as error:
            raise ServerError(f"cannot stat design {path}: {error}") from error
        signature = (stat.st_mtime_ns, stat.st_size)
        # The lock covers the load too: two connections racing on the same
        # cold design must not parse it twice (and must see one netlist).
        with self._lock:
            entry = self._entries.get(path)
            if entry is not None and entry[2] == signature:
                self._entries.move_to_end(path)
                trace.count(self.metrics, "designs.hits")
                return entry[0], entry[1]
            if entry is not None:
                trace.count(self.metrics, "designs.reloads")
            netlist = self._load(path)
            fingerprint = fingerprint_netlist(netlist)
            self._entries[path] = (netlist, fingerprint, signature)
            self._entries.move_to_end(path)
            while len(self._entries) > self.max_designs:
                self._entries.popitem(last=False)
            trace.count(self.metrics, "designs.misses")
            return netlist, fingerprint

    def _load(self, path: str) -> Netlist:
        packed = self._pack_index.get(path)
        if packed is not None and packed.matches(path):
            trace.count(self.metrics, "designs.pack_loads")
            return load_packed(packed.pack_path)
        return load_design(path)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "loaded": len(self),
            "max_designs": self.max_designs,
            "pack_index_entries": len(self._pack_index),
        }


class _ConnectionHandler(socketserver.StreamRequestHandler):
    """One connection: a sequence of JSONL requests, dispatched in turn."""

    def handle(self) -> None:
        daemon: "ServerDaemon" = self.server.repro_daemon  # type: ignore[attr-defined]
        while True:
            try:
                message = protocol.read_message(self.rfile)
            except ServerError:
                return  # peer sent garbage framing or vanished; drop it
            if message is None:
                return
            try:
                request = protocol.parse_request(message)
                daemon.dispatch(request, self.wfile)
            except ServerBusy as busy:
                self._respond(
                    {
                        "ok": False,
                        "event": "rejected",
                        "error": str(busy),
                        "retry_after_s": busy.retry_after_s,
                        "queue_depth": daemon.queue.depth(),
                    }
                )
            except ReproError as error:
                self._respond(protocol.error_response(error))
            except ServerError:
                return

    def _respond(self, payload: Dict[str, Any]) -> None:
        try:
            protocol.write_message(self.wfile, payload)
        except ServerError:
            pass  # peer already gone


class _SocketServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = False


def _claim_socket(socket_path: str) -> None:
    """Remove a stale socket file; refuse to displace a live daemon."""
    if not os.path.exists(socket_path):
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(0.5)
        probe.connect(socket_path)
    except OSError:
        os.unlink(socket_path)  # dead leftover from an unclean exit
    else:
        raise ServerError(
            f"a daemon is already listening on {socket_path}; "
            f"stop it first or choose another --socket"
        )
    finally:
        probe.close()


class ServerDaemon:
    """The daemon: warm pool + store + design LRU behind a local socket.

    >>> daemon = ServerDaemon(ServerConfig(socket_path=sock))  # doctest: +SKIP
    >>> daemon.start()                                         # doctest: +SKIP
    >>> ... clients connect ...                                # doctest: +SKIP
    >>> daemon.shutdown(drain=True)                            # doctest: +SKIP

    ``serve_forever()`` wraps start/wait/shutdown and installs
    SIGTERM/SIGINT handlers (graceful drain) when running on the main
    thread — the ``repro serve`` entry point.
    """

    def __init__(self, config: ServerConfig, start_scheduler: bool = True) -> None:
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
            raise ServerError("repro.server requires Unix-domain sockets")
        self.config = config
        self.store = ResultStore(config.cache_dir)
        self.pool = WorkerPool(config.workers)
        self.designs = DesignCache(
            max_designs=config.max_designs, pack_index=config.pack_index
        )
        self.queue = JobQueue(
            max_depth=config.max_queue_depth,
            starvation_limit=config.starvation_limit,
            retry_after_s=config.retry_after_s,
        )
        self.started_at = time.time()
        #: Live ``server.*`` metrics: ``requests``, ``warm_hits``,
        #: ``done.<class>``, ``failed`` and the ``wait_s.<class>`` /
        #: ``warm_s`` latency histograms.
        self.metrics = MetricRegistry()
        self._start_scheduler = start_scheduler
        self._scheduler: Optional[threading.Thread] = None
        self._listener: Optional[threading.Thread] = None
        self._server: Optional[_SocketServer] = None
        self._lifecycle = threading.Lock()
        self._started = False
        self._closed = threading.Event()
        self._drain_on_shutdown = True

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Bind the socket and start the listener (and scheduler) threads."""
        with self._lifecycle:
            if self._started:
                raise ServerError("daemon already started")
            self._started = True
        _claim_socket(self.config.socket_path)
        socket_dir = os.path.dirname(os.path.abspath(self.config.socket_path))
        os.makedirs(socket_dir, exist_ok=True)
        self._server = _SocketServer(self.config.socket_path, _ConnectionHandler)
        self._server.repro_daemon = self  # type: ignore[attr-defined]
        self._listener = threading.Thread(
            target=self._server.serve_forever,
            name="repro-server-listener",
            daemon=True,
        )
        self._listener.start()
        if self._start_scheduler:
            self._scheduler = threading.Thread(
                target=self._scheduler_loop, name="repro-server-scheduler"
            )
            self._scheduler.start()
        logger.info(
            "repro daemon listening on %s (workers=%d, cache=%s)",
            self.config.socket_path,
            self.config.workers,
            self.config.cache_dir,
        )

    def serve_forever(self) -> None:
        """``start()``, then block until a shutdown request or signal."""
        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGTERM, self._on_signal)
            signal.signal(signal.SIGINT, self._on_signal)
        self.start()
        self._closed.wait()

    def wait_until_stopped(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon has fully shut down (True when it has)."""
        return self._closed.wait(timeout)

    def _on_signal(self, signum, _frame) -> None:  # pragma: no cover - signals
        logger.info("signal %d: draining and shutting down", signum)
        self.request_shutdown(drain=True)

    def request_shutdown(self, drain: bool = True) -> None:
        """Trigger an asynchronous shutdown (idempotent, non-blocking)."""
        self._drain_on_shutdown = drain
        threading.Thread(
            target=self.shutdown, kwargs={"drain": drain}, daemon=True
        ).start()

    def shutdown(self, drain: bool = True) -> None:
        """Stop the daemon; with ``drain`` finish the admitted backlog first."""
        with self._lifecycle:
            if self._closed.is_set():
                return
            if not self._started:
                self._closed.set()
                self.pool.shutdown()
                self.store.close()
                return
            self._started = False
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        dropped = self.queue.close(drain=drain)
        if dropped:
            logger.info("shutdown cancelled %d queued job(s)", len(dropped))
        if self._scheduler is not None:
            self._scheduler.join(timeout=self.config.drain_timeout_s)
            if self._scheduler.is_alive():  # pragma: no cover - pathological
                logger.warning(
                    "scheduler did not drain within %.0fs; abandoning",
                    self.config.drain_timeout_s,
                )
        self.pool.shutdown()
        self.store.close()
        if os.path.exists(self.config.socket_path):
            try:
                os.unlink(self.config.socket_path)
            except OSError:  # pragma: no cover - racing unlink
                pass
        self._closed.set()
        logger.info("repro daemon stopped")

    # -- request dispatch (connection threads) --------------------------
    def dispatch(self, request: Dict[str, Any], stream) -> None:
        """Handle one parsed request, writing response line(s) to ``stream``."""
        trace.count(self.metrics, "server.requests")
        op = request["op"]
        if op == "ping":
            protocol.write_message(stream, self._pong())
        elif op == "submit":
            self._handle_submit(request, stream)
        elif op == "status":
            protocol.write_message(stream, self._handle_status(request))
        elif op == "result":
            protocol.write_message(stream, self._handle_result(request))
        elif op == "cancel":
            record = self.queue.cancel(self._job_id_of(request))
            protocol.write_message(
                stream,
                {"ok": True, "event": "cancelled", "job_id": record.job_id,
                 "state": record.state},
            )
        elif op == "shutdown":
            drain = bool(request.get("drain", True))
            protocol.write_message(
                stream, {"ok": True, "event": "shutting-down", "drain": drain}
            )
            self.request_shutdown(drain=drain)

    def _pong(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "event": "pong",
            "pid": os.getpid(),
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_s": time.time() - self.started_at,
        }

    @staticmethod
    def _job_id_of(request: Dict[str, Any]) -> str:
        job_id = request.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise ServerError(f'{request["op"]} requires a string "job_id"')
        return job_id

    def _handle_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if "job_id" in request:
            record = self.queue.get(self._job_id_of(request))
            if record is None:
                raise ServerError(f"unknown job id {request['job_id']!r}")
            return {"ok": True, "event": "status", "job": record.to_dict()}
        group = request.get("group", "")
        if not isinstance(group, str):
            raise ServerError('status "group" must be a string')
        return {
            "ok": True,
            "event": "status",
            "pid": os.getpid(),
            "uptime_s": time.time() - self.started_at,
            "workers": self.config.workers,
            "queue": self.queue.snapshot(),
            "metrics": self.metrics_snapshot(),
            "store": {"entries": len(self.store)},
            "designs": self.designs.snapshot(),
            "jobs": self.queue.jobs(limit=100 if group else 20, group=group),
        }

    def metrics_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """One merged snapshot of the daemon's, queue's, pool's, store's
        and design cache's registries (their names are disjoint)."""
        merged = MetricRegistry()
        for owner in (self, self.queue, self.pool, self.store, self.designs):
            merged.merge(owner.metrics.snapshot())
        return merged.snapshot()

    def _handle_result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        record = self.queue.get(self._job_id_of(request))
        if record is None:
            raise ServerError(f"unknown job id {request['job_id']!r}")
        if record.state not in TERMINAL_STATES:
            return {
                "ok": True,
                "event": "status",
                "job_id": record.job_id,
                "state": record.state,
            }
        if record.state == DONE:
            return {
                "ok": True,
                "event": "result",
                "job_id": record.job_id,
                "state": record.state,
                **(record.result or {}),
            }
        return protocol.error_response(
            ServerError(record.error or record.state),
            job_id=record.job_id,
            state=record.state,
        )

    # -- submit path ----------------------------------------------------
    def _handle_submit(self, request: Dict[str, Any], stream) -> None:
        record = self._build_record(request)
        warm = self._warm_probe(record)
        if warm is not None:
            trace.count(self.metrics, "server.warm_hits")
            record.state = DONE
            record.cached = True
            record.finished_at = time.time()
            record.result = warm
            self.queue.remember(record)
            protocol.write_message(stream, record.publish("result", **warm))
            return

        streaming = bool(request.get("stream", True))
        subscriber = record.subscribe() if streaming else None
        try:
            position = self.queue.submit(record)
        except ServerBusy:
            if subscriber is not None:
                record.unsubscribe(subscriber)
            raise
        trace.gauge("server.queue_depth").set(self.queue.depth())
        record.publish(
            "queued",
            position=position,
            priority=record.priority,
            fingerprint=record.fingerprint,
        )
        if subscriber is None:
            protocol.write_message(
                stream,
                {"ok": True, "event": "queued", "job_id": record.job_id,
                 "state": QUEUED, "position": position,
                 "fingerprint": record.fingerprint},
            )
            return
        try:
            while True:
                event = subscriber.get()
                protocol.write_message(stream, event)
                if event["event"] in ("result", "error", "cancelled"):
                    return
        finally:
            record.unsubscribe(subscriber)

    def _build_record(self, request: Dict[str, Any]) -> JobRecord:
        """Validate a submit request and resolve its design + fingerprint."""
        kind = request.get("kind", "detect")
        if kind not in protocol.JOB_KINDS:
            raise ServerError(
                f"unknown job kind {kind!r}; expected one of "
                f"{protocol.JOB_KINDS}"
            )
        design = request.get("design")
        if not isinstance(design, str) or not design:
            raise ServerError('submit requires a string "design" path')
        priority = request.get("priority", DEFAULT_PRIORITY)
        label = request.get("label") or os.path.basename(design)
        group = request.get("group", "")
        if not isinstance(group, str):
            raise ServerError('submit "group" must be a string')
        netlist, design_fp = self.designs.get(design)

        delta_data = request.get("delta")
        if delta_data is not None and kind != "detect":
            raise ServerError('"delta" submits must have kind "detect"')

        if kind == "detect":
            config_data = request.get("config", {})
            if not isinstance(config_data, dict):
                raise ServerError('submit "config" must be a JSON object')
            config = config_from_dict(config_data)
            delta = None
            base_netlist = None
            if delta_data is not None:
                # Delta submit: "design" is the (usually warm) base; the
                # edited netlist is reconstructed daemon-side so the client
                # ships a few KB of JSON instead of the whole design.
                from repro.incremental import NetlistDelta, apply_delta

                if not isinstance(delta_data, dict):
                    raise ServerError('submit "delta" must be a JSON object')
                try:
                    delta = NetlistDelta.from_dict(delta_data)
                except ReproError as error:
                    raise ServerError(f"bad delta payload: {error}") from error
                base_netlist = netlist
                netlist = apply_delta(base_netlist, delta)
                design_fp = fingerprint_netlist(netlist)
            fingerprint = job_fingerprint(
                netlist, config, netlist_fingerprint=design_fp
            )
            record = JobRecord(
                kind=kind,
                priority=priority,
                request=request,
                label=label,
                fingerprint=fingerprint,
                group=group,
            )
            record.context = (netlist, config)  # type: ignore[attr-defined]
            if delta is not None:
                record.delta_context = (base_netlist, delta)  # type: ignore[attr-defined]
            return record

        stages_data = request.get("stages")
        if not isinstance(stages_data, list) or not stages_data:
            raise ServerError('flow submit requires a non-empty "stages" list')
        flow = Flow(
            [stage_from_entry(entry) for entry in stages_data],
            name=request.get("label", "flow"),
        )
        # The flow's identity is the final stage's chained fingerprint.
        chain = [design_fp]
        for stage in flow.stages:
            chain.append(
                stage_fingerprint(stage.name, stage.config_fingerprint(), chain)
            )
        record = JobRecord(
            kind=kind,
            priority=priority,
            request=request,
            label=label,
            fingerprint=chain[-1],
            group=group,
        )
        record.context = (netlist, flow, chain[1:])  # type: ignore[attr-defined]
        return record

    def _warm_probe(self, record: JobRecord) -> Optional[Dict[str, Any]]:
        """Answer a submit straight from the store when every row is warm.

        This is the daemon's fast path: no queueing, no scheduling, no
        process wake-up — a warm repeat request costs one (or, for flows,
        one-per-stage) SQLite primary-key lookup plus JSON decode.
        """
        began = trace.clock()
        if record.kind == "detect":
            netlist, config = record.context  # type: ignore[attr-defined]
            if config.seed is None:
                return None  # nondeterministic: never cached
            if record.fingerprint not in self.store:
                return None
            report = self.store.get(record.fingerprint)
            if report is None:
                return None  # stale row: evicted, take the cold path
            if report.config != config:
                report = dataclasses.replace(report, config=config)
            payload = {
                "report": report_to_dict(report),
                "fingerprint": record.fingerprint,
                "cached": True,
                "runtime_seconds": trace.clock() - began,
                "attempts": 0,
            }
        else:
            netlist, flow, stage_fps = record.context  # type: ignore[attr-defined]
            if not flow.deterministic:
                return None
            if not all(fp in self.store for fp in stage_fps):
                return None
            # No pool: a fully-warm flow computes nothing, and the shared
            # pool is the scheduler thread's — the rare stale-row recompute
            # runs in-process rather than racing on it.
            outcome = flow.run(netlist, store=self.store, use_cache=True)
            if not outcome.all_cached:
                # A row went stale between the probe and the run; the work
                # was recomputed (and re-cached) inline — still a result.
                logger.info("warm flow probe for %s partially recomputed",
                            record.label)
            payload = {
                "stages": [result.to_row() for result in outcome.results],
                "fingerprint": record.fingerprint,
                "cached": outcome.all_cached,
                "runtime_seconds": trace.clock() - began,
            }
        trace.observe(self.metrics, "server.warm_s", payload["runtime_seconds"])
        return payload

    # -- scheduler (one thread) -----------------------------------------
    def _scheduler_loop(self) -> None:
        while True:
            record = self.queue.next_job()
            if record is None:
                return
            if record.state != QUEUED:  # cancelled in the dispatch race
                continue
            record.state = RUNNING
            record.started_at = time.time()
            wait_s = record.started_at - record.created_at
            trace.observe(self.metrics, f"server.wait_s.{record.priority}", wait_s)
            trace.gauge("server.queue_depth").set(self.queue.depth())
            record.publish("started", wait_s=wait_s)
            with trace.span(
                "server.job",
                kind=record.kind,
                priority=record.priority,
                label=record.label,
                fingerprint=record.fingerprint[:12],
            ) as job_span:
                try:
                    payload = self._execute(record)
                except ReproError as error:
                    self._finish_failed(record, str(error))
                    job_span.set(outcome="failed")
                except Exception as error:  # never kill the scheduler
                    logger.exception("job %s crashed", record.job_id)
                    self._finish_failed(
                        record, f"{type(error).__name__}: {error}"
                    )
                    job_span.set(outcome="failed")
                else:
                    record.state = DONE
                    record.finished_at = time.time()
                    record.result = payload
                    trace.count(self.metrics, f"server.done.{record.priority}")
                    job_span.set(outcome="done", cache="hit" if record.cached
                                 else "run")
                    record.publish("result", **payload)

    def _finish_failed(self, record: JobRecord, error: str) -> None:
        record.state = FAILED
        record.finished_at = time.time()
        record.error = error
        trace.count(self.metrics, "server.failed")
        record.publish("error", error=error)

    def _execute(self, record: JobRecord) -> Dict[str, Any]:
        if record.kind == "detect":
            return self._execute_detect(record)
        netlist, flow, _ = record.context  # type: ignore[attr-defined]
        outcome = flow.run(
            netlist,
            store=self.store,
            use_cache=True,
            pool=self.pool,
            progress=lambda result: record.publish(
                "progress",
                stage=result.stage,
                cache=result.cache_label,
                runtime_seconds=result.runtime_seconds,
            ),
        )
        record.cached = outcome.all_cached
        return {
            "stages": [result.to_row() for result in outcome.results],
            "fingerprint": record.fingerprint,
            "cached": outcome.all_cached,
            "runtime_seconds": outcome.runtime_seconds,
        }

    def _execute_detect(self, record: JobRecord) -> Dict[str, Any]:
        """Run one detect job through the incremental engine.

        Every deterministic detection persists its seed trace and advances
        the per-config head pointer, so a later delta submit (or a plain
        submit of an edited design) is answered by patching instead of
        recomputing.  Delta submits carry their base netlist explicitly;
        plain submits fall back to the head pointer.
        """
        from repro.incremental import detect_with_reuse

        netlist, config = record.context  # type: ignore[attr-defined]
        base_netlist, delta = getattr(record, "delta_context", (None, None))
        try:
            result = detect_with_reuse(
                netlist,
                config,
                self.store,
                base=base_netlist,
                delta=delta,
                pool=self.pool,
            )
        except ReproError as error:
            raise ServerError(str(error)) from error
        record.cached = result.mode == "cached"
        payload = {
            "report": report_to_dict(result.report),
            "fingerprint": record.fingerprint,
            "cached": record.cached,
            "runtime_seconds": result.report.runtime_seconds,
            "attempts": 0 if record.cached else 1,
        }
        if result.mode != "cached":
            payload["incremental"] = result.provenance()
        return payload


__all__ = ["DEFAULT_SOCKET", "DesignCache", "ServerConfig", "ServerDaemon"]
