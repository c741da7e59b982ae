"""SQLite-backed SEV report store.

The production dataset "resides in a MySQL database ... we use SQL
queries to analyze the SEV report dataset" (section 4.2).  The store
keeps that shape: reports live in a relational table (plus a join
table for the multi-valued root-cause field) and the analysis layer
(:mod:`repro.incidents.query`) is written as SQL.
"""

from __future__ import annotations

import hashlib
import sqlite3
import time
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar

from repro.faultline import hooks
from repro.incidents.sev import RootCause, Severity, SEVReport

_T = TypeVar("_T")

#: Bounded-backoff policy for transient SQLite write errors ("database
#: is locked" under a concurrent reader, a busy WAL): each batch is
#: attempted up to this many times, sleeping ``_RETRY_BACKOFF_S * 2**n``
#: between attempts, and the final failure propagates unchanged.
_RETRY_ATTEMPTS = 3
_RETRY_BACKOFF_S = 0.01


def _write_with_retry(attempt: Callable[[], _T]) -> _T:
    """Run a write batch, retrying transient ``OperationalError``.

    Retryable errors are raised *before* any row of the attempt is
    applied (a lock, a busy journal) or inside a transaction that
    rolled back whole, so a retry never double-applies.  Integrity
    errors (duplicate keys, constraint violations) are not transient
    and propagate immediately.  The ``store.insert`` fault site of
    :mod:`repro.faultline` injects the transient error at the top of
    an attempt.
    """
    delay = _RETRY_BACKOFF_S
    for attempts_left in range(_RETRY_ATTEMPTS - 1, -1, -1):
        try:
            if hooks.fire("store.insert"):
                raise sqlite3.OperationalError(
                    "injected transient fault: database is locked"
                )
            return attempt()
        except sqlite3.OperationalError:
            if not attempts_left:
                raise
            time.sleep(delay)
            delay *= 2
    raise AssertionError("unreachable")  # pragma: no cover

#: The tables, created in one transaction when a store opens.
_TABLES = (
    """CREATE TABLE IF NOT EXISTS sevs (
    sev_id        TEXT PRIMARY KEY,
    severity      INTEGER NOT NULL CHECK (severity BETWEEN 1 AND 3),
    device_name   TEXT NOT NULL,
    device_type   TEXT,
    opened_at_h   REAL NOT NULL CHECK (opened_at_h >= 0),
    resolved_at_h REAL NOT NULL,
    opened_year   INTEGER NOT NULL,
    region        TEXT NOT NULL DEFAULT '',
    duration_h    REAL NOT NULL CHECK (duration_h >= 0),
    description   TEXT NOT NULL DEFAULT '',
    service_impact TEXT NOT NULL DEFAULT '',
    reviewed      INTEGER NOT NULL DEFAULT 1
)""",
    """CREATE TABLE IF NOT EXISTS sev_root_causes (
    sev_id     TEXT NOT NULL REFERENCES sevs(sev_id) ON DELETE CASCADE,
    root_cause TEXT NOT NULL,
    PRIMARY KEY (sev_id, root_cause)
)""",
)

#: The query-layer indexes, by name.  ``idx_sevs_year_type`` is a
#: covering index for the hot aggregation path — every per-year,
#: per-type GROUP BY in :mod:`repro.incidents.query` is answered from
#: the index alone, no table walk.
_INDEXES = {
    "idx_sevs_year":
        "CREATE INDEX IF NOT EXISTS idx_sevs_year ON sevs(opened_year)",
    "idx_sevs_type":
        "CREATE INDEX IF NOT EXISTS idx_sevs_type ON sevs(device_type)",
    "idx_sevs_year_type":
        "CREATE INDEX IF NOT EXISTS idx_sevs_year_type "
        "ON sevs(opened_year, device_type)",
    "idx_sevs_device":
        "CREATE INDEX IF NOT EXISTS idx_sevs_device ON sevs(device_name)",
    "idx_sevs_year_region":
        "CREATE INDEX IF NOT EXISTS idx_sevs_year_region "
        "ON sevs(opened_year, region)",
    "idx_rc_cause":
        "CREATE INDEX IF NOT EXISTS idx_rc_cause "
        "ON sev_root_causes(root_cause)",
}
_DROP_INDEXES = tuple(f"DROP INDEX IF EXISTS {name}" for name in _INDEXES)


def _run_in_one_transaction(conn: sqlite3.Connection,
                            statements: Iterable[str]) -> None:
    """Run schema statements as one write transaction.

    ``sqlite3`` commits each DDL statement on its own when no
    transaction is open; an explicit ``BEGIN`` makes the batch one
    commit, and a failure rolls all of it back.
    """
    with conn:
        conn.execute("BEGIN")
        for statement in statements:
            conn.execute(statement)


def ensure_region_column(conn: sqlite3.Connection) -> bool:
    """Migrate a pre-partition database to the current schema.

    Databases written before the tiered store existed have no
    ``region`` column.  Adds it (default ``''``) and backfills it from
    the canonical device names already on disk, so old corpora import
    into partitioned stores cleanly.  Returns True when a migration
    ran, False when the schema was already current.
    """
    columns = {
        row[1] for row in conn.execute("PRAGMA table_info(sevs)")
    }
    if "region" in columns:
        return False
    from repro.topology.naming import parse_device_name

    with conn:
        conn.execute(
            "ALTER TABLE sevs ADD COLUMN region TEXT NOT NULL DEFAULT ''"
        )
        rows = conn.execute(
            "SELECT sev_id, device_name FROM sevs"
        ).fetchall()
        updates = []
        for sev_id, device_name in rows:
            try:
                region = parse_device_name(device_name).region
            except ValueError:
                continue
            updates.append((region, sev_id))
        conn.executemany(
            "UPDATE sevs SET region = ? WHERE sev_id = ?", updates
        )
    return True


class SEVStore:
    """A SEV report database.

    By default the store is in-memory; pass a path to persist.  The
    store owns its connection and is also a context manager.
    """

    def __init__(self, path: str = ":memory:",
                 check_same_thread: bool = True) -> None:
        # ``check_same_thread=False`` lets a long-lived server share
        # one store across handler threads; callers doing so must
        # serialize access themselves (repro.serve holds a lock).
        self._conn = sqlite3.connect(
            path, check_same_thread=check_same_thread
        )
        self._conn.execute("PRAGMA foreign_keys = ON")
        # Tables, then the legacy migration, then the indexes (one of
        # which needs the migrated ``region`` column): a fresh file
        # takes two commits.
        _run_in_one_transaction(self._conn, _TABLES)
        ensure_region_column(self._conn)
        self.create_indexes()
        #: The provenance key of a freshly generated corpus
        #: (:func:`repro.runtime.cache.provenance_fingerprint`), set by
        #: the context builder that generated it; every write below
        #: drops it, so the cache falls back to the row-based key.
        self.provenance: Optional[str] = None

    # -- indexes -----------------------------------------------------

    @staticmethod
    def index_names() -> List[str]:
        """The names of the query-layer indexes, in creation order."""
        return list(_INDEXES)

    def create_indexes(self) -> None:
        """(Re)create every query-layer index in one transaction."""
        _run_in_one_transaction(self._conn, _INDEXES.values())

    def drop_indexes(self) -> None:
        """Drop every query-layer index in one transaction.

        How the index micro-benchmark measures the unindexed baseline;
        call :meth:`create_indexes` afterwards to rebuild.
        """
        _run_in_one_transaction(self._conn, _DROP_INDEXES)

    # -- lifecycle ---------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SEVStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection, for the SQL query layer."""
        return self._conn

    # -- writes ------------------------------------------------------

    _INSERT_SEV = (
        "INSERT INTO sevs (sev_id, severity, device_name, "
        "device_type, opened_at_h, resolved_at_h, opened_year, region, "
        "duration_h, description, service_impact, reviewed) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
    )
    _INSERT_CAUSE = (
        "INSERT INTO sev_root_causes (sev_id, root_cause) VALUES (?, ?)"
    )

    @staticmethod
    def _sev_row(report: SEVReport, default_region: str = "") -> tuple:
        device_type = report.device_type
        return (
            report.sev_id,
            int(report.severity),
            report.device_name,
            device_type.value if device_type else None,
            report.opened_at_h,
            report.resolved_at_h,
            report.opened_year,
            report.region or default_region,
            report.duration_h,
            report.description,
            report.service_impact,
            1 if report.reviewed else 0,
        )

    @staticmethod
    def _cause_rows(report: SEVReport) -> List[tuple]:
        return [(report.sev_id, rc.value) for rc in report.root_causes]

    def _insert_in_tx(self, report: SEVReport,
                      default_region: str = "") -> None:
        """Write one report; the caller owns the transaction."""
        self._conn.execute(
            self._INSERT_SEV, self._sev_row(report, default_region)
        )
        self._conn.executemany(self._INSERT_CAUSE, self._cause_rows(report))

    def insert(self, report: SEVReport) -> None:
        self.provenance = None
        with self._conn:
            self._insert_in_tx(report)

    def insert_many(self, reports: Iterable[SEVReport],
                    default_region: str = "") -> int:
        """Insert reports inside one transaction; returns the count.

        One commit for the whole batch, not one per row — per-row
        commits pay journal churn and fsync for every report, which is
        the difference between thousands and hundreds of thousands of
        rows per second on durable storage.  Atomic: a failure rolls
        the whole batch back.  Transient ``OperationalError`` (a lock
        held by a concurrent reader) retries the rolled-back batch
        with bounded backoff before giving up.

        ``default_region`` fills the region column for reports whose
        device name carries none (pre-partition imports), so foreign
        corpora land in a chosen partition instead of the catch-all.
        """
        self.provenance = None
        iterator = iter(reports)
        consumed: List[SEVReport] = []

        def attempt() -> int:
            # Stream rows straight into the transaction (a generator
            # source is never materialized up front), remembering each
            # consumed row so a retry after a rollback can replay the
            # full batch exactly.
            count = 0
            with self._conn:
                for report in consumed:
                    self._insert_in_tx(report, default_region)
                    count += 1
                for report in iterator:
                    consumed.append(report)
                    self._insert_in_tx(report, default_region)
                    count += 1
            return count

        return _write_with_retry(attempt)

    def bulk_load(
        self, reports: Iterable[SEVReport], batch_size: int = 2000,
        default_region: str = "",
    ) -> int:
        """Ingest-tuned fast path for loading a whole corpus.

        One write transaction drops the query-layer indexes (no per-row
        index maintenance), streams the reports through
        ``executemany`` in ``batch_size`` chunks and rebuilds the
        indexes; the journal is kept in memory for the duration and
        the one commit syncs as the store's ``synchronous`` setting
        says.  Equivalent to :meth:`insert_many` row for row; the only
        difference is speed.

        Failure-safe: a mid-load error rolls back the whole
        transaction, so the rows, the index drop and the rebuild
        vanish together and the store is left exactly as it was.  The
        journal mode is restored either way.  ``default_region`` as in
        :meth:`insert_many`.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.provenance = None
        conn = self._conn
        (journal_mode,) = conn.execute("PRAGMA journal_mode").fetchone()
        conn.execute("PRAGMA journal_mode = MEMORY")
        count = 0

        def flush(sev_rows: List[tuple], cause_rows: List[tuple]) -> None:
            # Retry the chunk on a transient lock; the injected
            # store.insert fault fires before any row is applied, so a
            # retry inside the surrounding transaction stays exact.
            _write_with_retry(lambda: (
                conn.executemany(self._INSERT_SEV, sev_rows),
                conn.executemany(self._INSERT_CAUSE, cause_rows),
            ))

        try:
            with conn:  # one transaction; rolls back on error
                conn.execute("BEGIN")
                for statement in _DROP_INDEXES:
                    conn.execute(statement)
                sev_rows: List[tuple] = []
                cause_rows: List[tuple] = []
                for report in reports:
                    sev_rows.append(self._sev_row(report, default_region))
                    cause_rows.extend(self._cause_rows(report))
                    count += 1
                    if len(sev_rows) >= batch_size:
                        flush(sev_rows, cause_rows)
                        sev_rows.clear()
                        cause_rows.clear()
                if sev_rows:
                    flush(sev_rows, cause_rows)
                for statement in _INDEXES.values():
                    conn.execute(statement)
        finally:
            conn.execute(f"PRAGMA journal_mode = {journal_mode}")
        return count

    # -- reads -------------------------------------------------------

    def __len__(self) -> int:
        (n,) = self._conn.execute("SELECT COUNT(*) FROM sevs").fetchone()
        return n

    def get(self, sev_id: str) -> Optional[SEVReport]:
        row = self._conn.execute(
            "SELECT sev_id, severity, device_name, opened_at_h, "
            "resolved_at_h, description, service_impact, reviewed "
            "FROM sevs WHERE sev_id = ?",
            (sev_id,),
        ).fetchone()
        if row is None:
            return None
        causes = tuple(
            RootCause(value)
            for (value,) in self._conn.execute(
                "SELECT root_cause FROM sev_root_causes "
                "WHERE sev_id = ? ORDER BY root_cause",
                (sev_id,),
            )
        )
        return SEVReport(
            sev_id=row[0],
            severity=Severity(row[1]),
            device_name=row[2],
            opened_at_h=row[3],
            resolved_at_h=row[4],
            root_causes=causes,
            description=row[5],
            service_impact=row[6],
            reviewed=bool(row[7]),
        )

    def all_reports(self) -> Iterator[SEVReport]:
        """Every report, ordered by ``(opened_at_h, sev_id)``.

        Two queries total — the root-cause join table in one pass,
        then the sev rows streamed off a cursor — instead of two *per
        row*.  Rows come back field-identical to :meth:`get` (causes
        sorted by value, as ``ORDER BY root_cause`` returns them).
        """
        causes: dict = {}
        for sev_id, cause in self._conn.execute(
            "SELECT sev_id, root_cause FROM sev_root_causes "
            "ORDER BY sev_id, root_cause"
        ):
            causes.setdefault(sev_id, []).append(RootCause(cause))
        for row in self._conn.execute(
            "SELECT sev_id, severity, device_name, opened_at_h, "
            "resolved_at_h, description, service_impact, reviewed "
            "FROM sevs ORDER BY opened_at_h, sev_id"
        ):
            yield SEVReport(
                sev_id=row[0],
                severity=Severity(row[1]),
                device_name=row[2],
                opened_at_h=row[3],
                resolved_at_h=row[4],
                root_causes=tuple(causes.get(row[0], ())),
                description=row[5],
                service_impact=row[6],
                reviewed=bool(row[7]),
            )

    def years(self) -> List[int]:
        return [
            y
            for (y,) in self._conn.execute(
                "SELECT DISTINCT opened_year FROM sevs ORDER BY opened_year"
            )
        ]

    def regions(self) -> List[str]:
        """Distinct region values in the corpus, sorted."""
        return [
            r
            for (r,) in self._conn.execute(
                "SELECT DISTINCT region FROM sevs ORDER BY region"
            )
        ]

    def schema_hash(self) -> str:
        """Hash of the full SQL schema (tables and indexes), sorted.

        Part of the corpus fingerprint: two stores with the same row
        count and seed but different schemas (a migration landed in
        one) must hash to different cache keys.
        """
        schema = "\n".join(sorted(
            sql for (sql,) in self._conn.execute(
                "SELECT sql FROM sqlite_master WHERE sql IS NOT NULL"
            )
        ))
        return hashlib.sha256(schema.encode()).hexdigest()
