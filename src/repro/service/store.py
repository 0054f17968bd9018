"""Persistent result store: SQLite index with JSON artifact payloads.

One SQLite database (``results.sqlite`` inside the cache directory) holds a
row per fingerprint.  Payloads are stored as JSON, which keeps the store
portable and greppable while SQLite provides atomic upserts, fast
primary-key lookups and simple eviction queries.

The store is artifact-agnostic: every row carries a ``kind`` tag (e.g.
``"finder_report"``, ``"placement"``, ``"congestion"``) and a
``schema_version`` stamp.  Rows written under an older schema version — or
by a database that predates the column entirely — are treated as misses,
evicted and rewritten, never mis-decoded.  The original
:meth:`ResultStore.get`/:meth:`ResultStore.put` detection-report interface
is a thin layer over the generic payload methods.

Each store instance counts its traffic in :attr:`ResultStore.metrics`
(``store.hits``, ``store.misses``, ``store.puts``, ``store.evictions``), so
batch and flow runs can report their cache effectiveness
(:meth:`ResultStore.summary` is the CLI's ``cache:`` line).  A lookup whose
row is stale — version skew, kind collision, corrupt JSON, or a payload the
caller's ``decode`` rejects — counts as one miss and no hit.

Concurrency: the database runs in WAL journal mode with a busy timeout, so
one cache directory can be shared by a long-lived daemon and concurrent
CLI runs (readers never block the writer; a second writer waits instead of
erroring), and each :class:`ResultStore` instance is thread-safe — an
internal lock serializes use of the single SQLite connection.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError, ServiceError
from repro.finder.result import FinderReport
from repro.obs import trace
from repro.obs.metrics import MetricRegistry
from repro.service.codec import report_from_dict, report_to_dict

logger = logging.getLogger(__name__)

#: Row-level schema version.  Bump whenever the payload conventions change
#: (e.g. a codec rewrite) so every previously persisted row reads as a miss
#: and is recomputed under the new scheme instead of being mis-decoded.
#: Version 1 was the PR-1 report-only store; version 2 added generic
#: artifact kinds.  When bumping, skip past ``SCHEMA_VERSION +
#: max(KIND_REVISIONS.values())`` so no old kind-revised row can collide.
SCHEMA_VERSION = 2

#: Per-kind schema revisions layered on :data:`SCHEMA_VERSION`.  Bump a
#: kind's revision when an algorithm fix changes that artifact for
#: identical inputs, so only that kind's cached rows read as misses while
#: unaffected kinds (e.g. expensive detection reports) stay warm.
#: ``partition``/``placement``/``congestion`` were bumped by the PR-5
#: bugfixes (FM start balance, spreading split consistency, legalizer
#: overlap) — congestion derives from placement.
KIND_REVISIONS = {"partition": 1, "placement": 1, "congestion": 1}


def row_schema_version(kind: str) -> int:
    """The schema version stamped on (and expected of) rows of ``kind``."""
    return SCHEMA_VERSION + KIND_REVISIONS.get(kind, 0)


#: ``kind`` tag of detection-report rows (the PR-1 payloads).
KIND_FINDER_REPORT = "finder_report"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint   TEXT PRIMARY KEY,
    payload       TEXT NOT NULL,
    created_at    REAL NOT NULL,
    last_used_at  REAL NOT NULL,
    use_count     INTEGER NOT NULL DEFAULT 0,
    num_gtls      INTEGER NOT NULL,
    runtime_seconds REAL NOT NULL,
    kind          TEXT NOT NULL DEFAULT 'finder_report',
    schema_version INTEGER NOT NULL DEFAULT 0
)
"""


@dataclass
class MergeStats:
    """Outcome of one :meth:`ResultStore.merge_from` call.

    Attributes:
        copied: source rows new to (or replacing a stale row of) this store.
        merged: rows present in both stores with identical payloads — their
            usage counters were combined.
        conflicts: rows present in both stores with *differing* current
            payloads; the more-used (then newer) row won.
        stale_skipped: source rows under an outdated schema version,
            ignored entirely (they would read as misses anyway).
    """

    copied: int = 0
    merged: int = 0
    conflicts: int = 0
    stale_skipped: int = 0

    @property
    def total(self) -> int:
        """Source rows examined (stale ones included)."""
        return self.copied + self.merged + self.conflicts + self.stale_skipped

    def combined(self, other: "MergeStats") -> "MergeStats":
        """Field-wise sum — fold per-shard merges into one total."""
        return MergeStats(
            copied=self.copied + other.copied,
            merged=self.merged + other.merged,
            conflicts=self.conflicts + other.conflicts,
            stale_skipped=self.stale_skipped + other.stale_skipped,
        )

    def summary(self) -> str:
        """One-line human-readable form."""
        return (
            f"{self.copied} copied, {self.merged} merged, "
            f"{self.conflicts} conflict(s), {self.stale_skipped} stale skipped"
        )


class ResultStore:
    """Persistent fingerprint -> JSON-payload store.

    >>> store = ResultStore(cache_dir)          # doctest: +SKIP
    >>> store.put("abc...", report)             # doctest: +SKIP
    >>> store.get("abc...") == report           # doctest: +SKIP
    True

    Usable as a context manager; :meth:`close` is idempotent.
    """

    DB_NAME = "results.sqlite"

    #: How long a writer waits on another connection's lock before failing.
    #: Shared by the SQLite driver timeout and ``PRAGMA busy_timeout``.
    BUSY_TIMEOUT_S = 5.0

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)
        self._db_path = os.path.join(cache_dir, self.DB_NAME)
        # One store instance may be shared across daemon threads (connection
        # threads answer warm lookups while the scheduler thread inserts);
        # SQLite connections are not thread-safe objects, so every operation
        # holds this lock.  Cross-*process* sharing (daemon + concurrent CLI
        # runs on one cache dir) is what WAL mode and the busy timeout are
        # for: readers never block the writer and a second writer waits
        # instead of failing with "database is locked".
        self._lock = threading.RLock()
        try:
            self._conn = sqlite3.connect(
                self._db_path,
                timeout=self.BUSY_TIMEOUT_S,
                check_same_thread=False,
            )
            self._configure_connection()
            self._conn.execute(_SCHEMA)
            self._migrate()
            self._conn.commit()
        except sqlite3.Error as error:
            raise ServiceError(
                f"cannot open result store at {self._db_path}: {error}"
            ) from error
        #: Live ``store.*`` counters of this instance (not persisted).
        self.metrics = MetricRegistry()

    def _configure_connection(self) -> None:
        """Switch the database to WAL journaling with a busy timeout.

        WAL is persistent (stamped into the database file), but the pragma
        is re-issued on every open so stores created by older releases
        upgrade in place.  Filesystems that cannot support WAL (some network
        mounts) keep the default rollback journal — the store still works,
        only multi-writer concurrency degrades.
        """
        self._conn.execute(
            "PRAGMA busy_timeout = %d" % int(self.BUSY_TIMEOUT_S * 1000)
        )
        try:
            row = self._conn.execute("PRAGMA journal_mode = WAL").fetchone()
            self.journal_mode = row[0] if row else "unknown"
        except sqlite3.Error as error:  # pragma: no cover - exotic filesystems
            self.journal_mode = "unknown"
            logger.warning("could not enable WAL on %s: %s", self._db_path, error)
        if self.journal_mode.lower() != "wal":  # pragma: no cover - exotic fs
            logger.warning(
                "result store %s running without WAL (journal_mode=%s); "
                "concurrent writers may contend",
                self._db_path,
                self.journal_mode,
            )

    def _migrate(self) -> None:
        """Bring a database created by an older release up to this schema.

        Added columns default ``schema_version`` to 0, so pre-existing rows
        are recognized as stale on lookup and rewritten.
        """
        columns = {
            row[1] for row in self._conn.execute("PRAGMA table_info(results)")
        }
        if "kind" not in columns:
            self._conn.execute(
                "ALTER TABLE results ADD COLUMN kind TEXT NOT NULL "
                f"DEFAULT '{KIND_FINDER_REPORT}'"
            )
        if "schema_version" not in columns:
            self._conn.execute(
                "ALTER TABLE results ADD COLUMN schema_version INTEGER "
                "NOT NULL DEFAULT 0"
            )

    # ------------------------------------------------------------------
    def get_payload(
        self,
        fingerprint: str,
        kind: Optional[str] = None,
        decode: Optional[Callable[[Dict[str, Any]], Any]] = None,
    ) -> Any:
        """Stored payload dict for ``fingerprint`` — passed through
        ``decode`` when given — or ``None`` (a miss).

        A row whose ``schema_version`` differs from its kind's current
        :func:`row_schema_version`, whose ``kind`` does not match ``kind``
        (when given), whose payload is not valid JSON, or whose payload
        ``decode`` rejects with a :class:`ReproError` (codec skew inside
        the payload) is evicted and reported as a miss so the caller
        recomputes and rewrites it.
        """
        self._require_open()
        began = trace.clock() if trace.enabled() else None
        with self._lock, self._wrap_db("cache lookup"):
            row = self._conn.execute(
                "SELECT payload, kind, schema_version FROM results "
                "WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
        if row is None:
            self._observe_get(began, hit=False)
            return None
        payload_text, row_kind, row_version = row
        data: Any = None
        if row_version == row_schema_version(row_kind) and (
            kind is None or row_kind == kind
        ):
            try:
                data = json.loads(payload_text)
            except json.JSONDecodeError:
                pass
        if not isinstance(data, dict):
            data = None
        elif decode is not None:
            try:
                data = decode(data)
            except ReproError as error:
                logger.warning(
                    "stale %s row %s, recomputing: %s",
                    row_kind, fingerprint[:12], error,
                )
                data = None
        if data is None:
            # Version skew, kind collision, corruption or a payload that no
            # longer decodes: drop the row and treat the lookup as a miss
            # so the entry is recomputed.
            self.evict(fingerprint)
            self._observe_get(began, hit=False)
            return None
        try:
            with self._lock:
                self._conn.execute(
                    "UPDATE results SET last_used_at = ?, use_count = use_count + 1 "
                    "WHERE fingerprint = ?",
                    (time.time(), fingerprint),
                )
                self._conn.commit()
        except sqlite3.Error as error:
            # The payload was already read; LRU bookkeeping must not turn a
            # hit into a failure (e.g. read-only cache dir, lock contention).
            logger.warning("cache hit bookkeeping failed on %s: %s", self._db_path, error)
        self._observe_get(began, hit=True)
        return data

    def _observe_get(self, began: Optional[float], hit: bool) -> None:
        """Count one lookup; time it when tracing (``began`` is ``None``
        otherwise)."""
        trace.count(self.metrics, "store.hits" if hit else "store.misses")
        if began is not None:
            trace.histogram("store.get_s").observe(trace.clock() - began)

    def put_payload(
        self,
        fingerprint: str,
        payload: Dict[str, Any],
        kind: str,
        num_items: int = 0,
        runtime_seconds: float = 0.0,
    ) -> None:
        """Insert or replace the payload stored under ``fingerprint``.

        ``num_items``/``runtime_seconds`` are indexed metadata (listed by
        :meth:`entries`, usable in eviction policies) — the payload itself
        is opaque to the store.
        """
        self._require_open()
        began = trace.clock() if trace.enabled() else None
        text = json.dumps(payload, separators=(",", ":"))
        now = time.time()
        with self._lock, self._wrap_db("cache insert"):
            self._conn.execute(
                "INSERT OR REPLACE INTO results "
                "(fingerprint, payload, created_at, last_used_at, use_count, "
                " num_gtls, runtime_seconds, kind, schema_version) "
                "VALUES (?, ?, ?, ?, 0, ?, ?, ?, ?)",
                (
                    fingerprint,
                    text,
                    now,
                    now,
                    num_items,
                    runtime_seconds,
                    kind,
                    row_schema_version(kind),
                ),
            )
            self._conn.commit()
        trace.count(self.metrics, "store.puts")
        if began is not None:
            trace.histogram("store.put_s").observe(trace.clock() - began)

    def summary(self) -> str:
        """One-line hit/miss/put tally of this instance (the CLI's
        ``cache:`` line)."""
        hits, misses, puts = (
            self.metrics.counter(f"store.{name}").value
            for name in ("hits", "misses", "puts")
        )
        lookups = hits + misses
        rate = hits / lookups if lookups else 0.0
        return (
            f"{hits} hit(s) / {misses} miss(es) "
            f"({rate:.0%} hit rate), {puts} put(s)"
        )

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[FinderReport]:
        """Stored report for ``fingerprint``, or ``None`` (counted as a miss).

        A stale row (codec version skew, a config that no longer validates)
        must not poison the run: it is dropped and the job recomputed.
        """
        return self.get_payload(
            fingerprint, kind=KIND_FINDER_REPORT, decode=report_from_dict
        )

    def put(self, fingerprint: str, report: FinderReport) -> None:
        """Insert or replace the report stored under ``fingerprint``."""
        self.put_payload(
            fingerprint,
            report_to_dict(report),
            kind=KIND_FINDER_REPORT,
            num_items=report.num_gtls,
            runtime_seconds=report.runtime_seconds,
        )

    def evict(self, fingerprint: str) -> bool:
        """Remove one entry; returns True when a row was deleted."""
        self._require_open()
        with self._lock, self._wrap_db("cache eviction"):
            cursor = self._conn.execute(
                "DELETE FROM results WHERE fingerprint = ?", (fingerprint,)
            )
            self._conn.commit()
        evicted = cursor.rowcount > 0
        if evicted:
            trace.count(self.metrics, "store.evictions")
        return evicted

    def evict_lru(self, keep: int) -> int:
        """Keep only the ``keep`` most recently used entries; returns the
        number of evicted rows."""
        self._require_open()
        if keep < 0:
            raise ServiceError("evict_lru keep must be >= 0")
        with self._lock, self._wrap_db("cache eviction"):
            cursor = self._conn.execute(
                "DELETE FROM results WHERE fingerprint NOT IN ("
                "SELECT fingerprint FROM results "
                "ORDER BY last_used_at DESC LIMIT ?)",
                (keep,),
            )
            self._conn.commit()
        trace.count(self.metrics, "store.evictions", cursor.rowcount)
        return cursor.rowcount

    def clear(self) -> int:
        """Drop every entry; returns the number of evicted rows."""
        return self.evict_lru(0)

    def entries(self) -> List[Tuple[str, int, float]]:
        """``(fingerprint, num_items, runtime_seconds)`` of every stored
        row, most recently used first."""
        self._require_open()
        with self._lock:
            return list(
                self._conn.execute(
                    "SELECT fingerprint, num_gtls, runtime_seconds FROM results "
                    "ORDER BY last_used_at DESC"
                )
            )

    def kind_counts(self) -> Dict[str, int]:
        """Row count and saved runtime per artifact kind.

        Returns ``{kind: count}``, descending by count — the ``repro cache
        stats`` maintenance view.
        """
        self._require_open()
        with self._lock:
            rows = self._conn.execute(
                "SELECT kind, COUNT(*) FROM results "
                "GROUP BY kind ORDER BY COUNT(*) DESC"
            ).fetchall()
        return {str(kind): int(count) for kind, count in rows}

    def __len__(self) -> int:
        self._require_open()
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0]

    def __contains__(self, fingerprint: str) -> bool:
        self._require_open()
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return row is not None

    # ------------------------------------------------------------------
    _ROW_COLUMNS = (
        "fingerprint, payload, created_at, last_used_at, use_count, "
        "num_gtls, runtime_seconds, kind, schema_version"
    )

    def merge_from(self, source: "ResultStore | str") -> MergeStats:
        """Fold every row of ``source`` into this store.

        ``source`` is another :class:`ResultStore` or a cache-directory
        path (e.g. one shard's private store after a sharded sweep).  The
        source is only read, never modified.  Reconciliation is row-by-row
        on the fingerprint primary key:

        * a source row under an **outdated schema version** for its kind is
          skipped — it would read as a miss anywhere;
        * a fingerprint **absent** here (or present only as a stale row) is
          copied verbatim, usage history included;
        * present with an **identical payload**: the rows describe the same
          computation, so usage is combined — ``use_count`` summed,
          ``created_at`` the earlier, ``last_used_at`` the later;
        * present with a **different current payload** (two
          nondeterministic writes under one fingerprint cannot happen — the
          runner never stores them — but clock-skewed kind revisions can):
          the row with the higher ``use_count`` wins, ties to the newer
          ``last_used_at``.  Counted as a conflict either way.
        """
        self._require_open()
        stats = MergeStats()
        owns_source = isinstance(source, str)
        src = ResultStore(source) if owns_source else source
        try:
            src._require_open()
            with src._lock, src._wrap_db("merge read"):
                rows = src._conn.execute(
                    f"SELECT {self._ROW_COLUMNS} FROM results"
                ).fetchall()
            with self._lock, self._wrap_db("merge write"):
                for row in rows:
                    self._merge_row(row, stats)
                self._conn.commit()
        finally:
            if owns_source:
                src.close()
        trace.counter("store.merge.copied").add(stats.copied)
        trace.counter("store.merge.merged").add(stats.merged)
        trace.counter("store.merge.conflicts").add(stats.conflicts)
        trace.counter("store.merge.stale_skipped").add(stats.stale_skipped)
        return stats

    def _merge_row(self, row: Tuple, stats: MergeStats) -> None:
        """Reconcile one source row into this store (caller holds the lock
        and commits)."""
        (fingerprint, payload, created_at, last_used_at, use_count,
         num_gtls, runtime_seconds, kind, schema_version) = row
        if schema_version != row_schema_version(kind):
            stats.stale_skipped += 1
            return
        mine = self._conn.execute(
            "SELECT payload, created_at, last_used_at, use_count, "
            "kind, schema_version FROM results WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        if mine is not None and mine[5] == row_schema_version(mine[4]):
            (my_payload, my_created, my_used, my_count, _, _) = mine
            if my_payload == payload:
                self._conn.execute(
                    "UPDATE results SET use_count = ?, created_at = ?, "
                    "last_used_at = ? WHERE fingerprint = ?",
                    (
                        my_count + use_count,
                        min(my_created, created_at),
                        max(my_used, last_used_at),
                        fingerprint,
                    ),
                )
                stats.merged += 1
                return
            stats.conflicts += 1
            if (my_count, my_used) >= (use_count, last_used_at):
                return  # my row wins; the source row is dropped
            # fall through: the source row replaces mine
        elif mine is None:
            stats.copied += 1
        else:
            stats.copied += 1  # replacing my stale row is a copy
        self._conn.execute(
            "INSERT OR REPLACE INTO results "
            f"({self._ROW_COLUMNS}) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (fingerprint, payload, created_at, last_used_at, use_count,
             num_gtls, runtime_seconds, kind, schema_version),
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying database (idempotent)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def _require_open(self) -> None:
        if self._conn is None:
            raise ServiceError("result store is closed")

    @contextlib.contextmanager
    def _wrap_db(self, operation: str):
        """Translate raw SQLite failures (locked db, full disk, corruption)
        into the store's :class:`ServiceError` contract."""
        try:
            yield
        except sqlite3.Error as error:
            raise ServiceError(
                f"{operation} failed on {self._db_path}: {error}"
            ) from error

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
