"""The persistent, versioned, content-addressed explanation store.

Completed explanations land here keyed by :func:`~repro.service.request.
request_key`, so a repeat request — today, or from a process started next
week — is served without touching the matcher.  The backing file is a
single SQLite database under ``store_dir`` (stdlib only, safe for
concurrent readers/writers through one connection guarded by a lock),
opened in WAL mode with a busy timeout so a crash mid-write never leaves
a half-applied transaction behind.

Every row carries the store format version and a SHA-256 checksum of its
payload.  Reads verify both: a corrupt, truncated or stale-format entry is
*deleted and reported as a miss* — the service recomputes it — never
served.  Damage is handled at two scales:

* **row-level** — an isolated bad row is dropped and recomputed
  (``corruptions`` counter);
* **file-level** — ``recover_after`` *consecutive* validation failures,
  or a :class:`sqlite3.DatabaseError` (e.g. a truncated or overwritten
  database file, at open time or mid-operation), mark the file
  systemically corrupt: it is quarantined to ``<name>.corrupt-<ts>`` and
  the store rebuilds empty (``recoveries`` counter).  Serving degrades
  to recomputation; it never crashes and never serves garbage.

Capacity is bounded by ``max_entries`` with least-recently-*accessed*
eviction, and entries can expire by age (``ttl_seconds``);
hit/miss/eviction/recovery counters feed the serving layer's run JSON.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path

from repro.config import StoreConfig
from repro.exceptions import ServiceError
from repro.obs.metrics import MetricsRegistry

#: Format version stamped on every stored row; rows written by an
#: incompatible version are treated as misses and recomputed.
STORE_FORMAT_VERSION = 1

#: Database file name inside a store directory.
STORE_DB_NAME = "explanations.sqlite"

#: Subdirectory name pattern of one shard's store partition.
SHARD_DIR_FORMAT = "shard-{:02d}"

#: Milliseconds a connection waits on a locked database before failing.
_BUSY_TIMEOUT_MS = 5_000

#: Exceptions that mean "the database file itself is damaged".  SQLite
#: raises :class:`UnicodeDecodeError` (not a ``DatabaseError``) when a
#: corrupted header or payload mangles the file's text encoding.
_CORRUPTION_ERRORS = (sqlite3.DatabaseError, UnicodeDecodeError)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS explanations (
    key TEXT PRIMARY KEY,
    format_version INTEGER NOT NULL,
    checksum TEXT NOT NULL,
    created REAL NOT NULL,
    accessed REAL NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_explanations_accessed
    ON explanations (accessed);
"""


@dataclass
class StoreStats:
    """Counter snapshot of one :class:`ExplanationStore`.

    The live counters are :mod:`repro.obs.metrics` instruments labeled
    ``component="store"``; ``store.stats`` reads them into this plain
    dataclass atomically.
    """

    #: Lookups answered from a valid stored entry.
    hits: int = 0
    #: Lookups with no servable entry (absent, expired, corrupt or stale).
    misses: int = 0
    #: Entries written (inserts and overwrites).
    puts: int = 0
    #: Entries removed by the LRU capacity bound.
    evictions: int = 0
    #: Entries dropped at read time because their TTL had passed.
    expirations: int = 0
    #: Entries dropped because their checksum / JSON / format failed.
    corruptions: int = 0
    #: Times a systemically-corrupt database file was quarantined and
    #: the store rebuilt empty.
    recoveries: int = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        payload: dict[str, float] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        payload["hit_rate"] = round(self.hit_rate, 4)
        return payload


#: StoreStats counter fields, in instrument order.
_STORE_COUNTERS = (
    "hits", "misses", "puts", "evictions", "expirations", "corruptions",
    "recoveries",
)


class _StoreInstruments:
    """The registry instruments one store records into."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        labels = {
            "component": "store",
            "instance": registry.next_instance("store"),
        }
        helps = {
            "hits": "Lookups answered from a valid stored entry",
            "misses": "Lookups with no servable entry",
            "puts": "Entries written (inserts and overwrites)",
            "evictions": "Entries removed by the LRU capacity bound",
            "expirations": "Entries dropped at read time past their TTL",
            "corruptions": "Entries dropped on checksum/JSON/format failure",
            "recoveries": "Corrupt database files quarantined and rebuilt",
        }
        for field in _STORE_COUNTERS:
            setattr(
                self,
                field,
                registry.counter(
                    f"repro_store_{field}_total", helps[field], **labels
                ),
            )

    def instruments(self) -> list:
        return [getattr(self, field) for field in _STORE_COUNTERS]

    def build(self, values: list) -> StoreStats:
        return StoreStats(
            **{f: int(v) for f, v in zip(_STORE_COUNTERS, values)}
        )

    def snapshot(self) -> StoreStats:
        return self.build(self.registry.read(*self.instruments()))


def shard_store_dir(store_dir: str | Path, shard_id: int) -> Path:
    """The store partition directory of shard *shard_id*.

    Each shard process opens its own SQLite database under the shared
    ``store_dir`` — one writer per file, so shards never contend on a
    database lock and a corrupt partition quarantines without touching
    its siblings.  The router's consistent hashing keeps a given request
    key on the same partition across restarts.
    """
    if shard_id < 0:
        raise ServiceError(f"shard_id must be >= 0, got {shard_id}")
    return Path(store_dir) / SHARD_DIR_FORMAT.format(shard_id)


class ExplanationStore:
    """SQLite-backed LRU/TTL cache of serialized explanation payloads.

    *clock* is injectable (a ``() -> float`` epoch-seconds callable) so
    TTL behaviour is testable without sleeping.
    """

    def __init__(
        self,
        store_dir: str | Path,
        config: StoreConfig | None = None,
        clock=time.time,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.store_dir / STORE_DB_NAME
        self.config = config or StoreConfig()
        # *metrics* is the registry the hit/miss/eviction counters live
        # in — pass the serving layer's registry so store accounting
        # shows up on its /metrics endpoint.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._instruments = _StoreInstruments(self.metrics)
        self._clock = clock
        self._lock = threading.Lock()
        #: Consecutive validation/SQLite failures; resets on any healthy
        #: read or write, triggers quarantine at ``recover_after``.
        self._failure_streak = 0
        try:
            self._conn = self._connect()
        except _CORRUPTION_ERRORS:
            # The file exists but SQLite cannot read it (truncated,
            # overwritten, not a database).  Quarantine and start fresh.
            self._quarantine()
            try:
                self._conn = self._connect()
            except sqlite3.Error as error:
                raise ServiceError(
                    f"cannot open explanation store at {self.path}: {error}"
                ) from error
            self._instruments.recoveries.inc()
        except sqlite3.Error as error:
            raise ServiceError(
                f"cannot open explanation store at {self.path}: {error}"
            ) from error

    def _connect(self) -> sqlite3.Connection:
        """Open + configure a connection; raises on unreadable files.

        WAL journaling makes a crash mid-``put`` recoverable (the torn
        transaction rolls back on the next open) and lets concurrent
        processes read while one writes; the busy timeout turns brief
        cross-process lock contention into a wait instead of an error.
        """
        conn = sqlite3.connect(str(self.path), check_same_thread=False)
        try:
            conn.execute(f"PRAGMA busy_timeout = {_BUSY_TIMEOUT_MS}")
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
            conn.executescript(_SCHEMA)
            # Probe the data pages, not just the header: a file truncated
            # past page one opens fine and explodes on first real query.
            conn.execute("SELECT COUNT(*) FROM explanations").fetchone()
            conn.commit()
        except BaseException:
            conn.close()
            raise
        return conn

    # ------------------------------------------------------------------
    # Lookup / write
    # ------------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The stored payload for *key*, or ``None`` (recompute).

        Validates format version, TTL and checksum; any failure deletes
        the row and reports a miss, so a damaged store degrades to
        recomputation instead of serving garbage.  A systemically corrupt
        file (``recover_after`` consecutive failures, or SQLite unable to
        read its own pages) is quarantined and rebuilt empty.
        """
        with self._lock:
            try:
                payload = self._validated_payload(key, touch=True)
            except _CORRUPTION_ERRORS:
                self._record_failure()
                payload = None
            if payload is None:
                self._instruments.misses.inc()
            else:
                self._instruments.hits.inc()
            return payload

    @property
    def stats(self) -> StoreStats:
        """An atomic :class:`StoreStats` snapshot of this store."""
        return self._instruments.snapshot()

    def contains(self, key: str) -> bool:
        """Whether a *servable* (valid, unexpired) entry exists for *key*.

        Does not count a hit/miss and does not refresh LRU recency — the
        precompute resume path uses this to skip already-warm keys without
        distorting serving metrics.
        """
        with self._lock:
            try:
                return self._validated_payload(key, touch=False) is not None
            except _CORRUPTION_ERRORS:
                self._record_failure()
                return False

    def put(self, key: str, payload: dict) -> None:
        """Insert or overwrite the entry for *key*, then enforce capacity.

        A write that fails because the database file itself is damaged
        triggers quarantine-and-rebuild, then retries once into the fresh
        store, so completed computations are not lost to a corrupt file.
        """
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        checksum = hashlib.sha256(text.encode("utf-8")).hexdigest()
        now = self._clock()
        row = (key, STORE_FORMAT_VERSION, checksum, now, now, text)
        with self._lock:
            try:
                self._put_row(row)
            except _CORRUPTION_ERRORS:
                self._recover()
                try:
                    self._put_row(row)
                except sqlite3.Error as error:
                    raise ServiceError(
                        f"explanation store write failed even after "
                        f"recovery: {error}"
                    ) from error

    def put_many(self, items: list[tuple[str, dict]]) -> int:
        """Write a batch of ``(key, payload)`` entries in ONE transaction.

        The bulk runner calls this once per completed chunk: all inserts
        share a single ``executemany`` + one LRU eviction pass + one
        commit instead of a commit per record.  The final state is the
        same as sequential :meth:`put` calls under the same clock —
        eviction orders purely by the final ``(accessed, key)`` set, and
        the eviction counter advances by the same total excess — it just
        costs one fsync instead of *n*.  Returns the number written.
        """
        now = self._clock()
        rows = []
        for key, payload in items:
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            checksum = hashlib.sha256(text.encode("utf-8")).hexdigest()
            rows.append((key, STORE_FORMAT_VERSION, checksum, now, now, text))
        if not rows:
            return 0
        with self._lock:
            try:
                self._put_rows(rows)
            except _CORRUPTION_ERRORS:
                self._recover()
                try:
                    self._put_rows(rows)
                except sqlite3.Error as error:
                    raise ServiceError(
                        f"explanation store batch write failed even after "
                        f"recovery: {error}"
                    ) from error
        return len(rows)

    def get_many(self, keys: list[str]) -> dict[str, dict]:
        """Servable payloads for *keys*, under one lock hold + one commit.

        Returns ``{key: payload}`` for every servable entry; absent,
        expired, stale-format or corrupt keys are simply missing from the
        result (the caller recomputes them).  Hit/miss counters advance
        exactly as per-key :meth:`get` calls would — this is the bulk
        runner's cross-job dedup probe, so its accounting must match the
        serving path's.
        """
        found: dict[str, dict] = {}
        misses = 0
        with self._lock:
            for key in keys:
                try:
                    payload = self._validated_payload(
                        key, touch=True, commit=False
                    )
                except _CORRUPTION_ERRORS:
                    self._record_failure()
                    payload = None
                if payload is None:
                    misses += 1
                else:
                    found[key] = payload
            try:
                self._conn.commit()
            except sqlite3.Error:
                pass  # recency touches are best-effort; payloads are valid
            if misses:
                self._instruments.misses.inc(misses)
            if found:
                self._instruments.hits.inc(len(found))
        return found

    def _put_row(self, row: tuple) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO explanations "
            "(key, format_version, checksum, created, accessed, payload) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            row,
        )
        self._instruments.puts.inc()
        self._evict_over_capacity()
        self._conn.commit()
        self._failure_streak = 0

    def _put_rows(self, rows: list[tuple]) -> None:
        self._conn.executemany(
            "INSERT OR REPLACE INTO explanations "
            "(key, format_version, checksum, created, accessed, payload) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            rows,
        )
        self._instruments.puts.inc(len(rows))
        self._evict_over_capacity()
        self._conn.commit()
        self._failure_streak = 0

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            try:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM explanations"
                ).fetchone()
            except _CORRUPTION_ERRORS:
                self._record_failure()
                return 0
            return int(row[0])

    def keys(self) -> list[str]:
        """All stored keys, most recently accessed first."""
        with self._lock:
            try:
                rows = self._conn.execute(
                    "SELECT key FROM explanations ORDER BY accessed DESC, key"
                ).fetchall()
            except _CORRUPTION_ERRORS:
                self._record_failure()
                return []
            return [row[0] for row in rows]

    def clear(self) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM explanations")
            self._conn.commit()

    def flush(self) -> None:
        """Commit and checkpoint the WAL into the main database file.

        Called on graceful shutdown so a subsequent process (or a copy of
        the bare ``.sqlite`` file) sees every completed write without the
        ``-wal`` sidecar.
        """
        with self._lock:
            try:
                self._conn.commit()
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass  # flush is best-effort; close() still works

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ExplanationStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals (caller holds self._lock)
    # ------------------------------------------------------------------

    def _validated_payload(
        self, key: str, touch: bool, commit: bool = True
    ) -> dict | None:
        row = self._conn.execute(
            "SELECT format_version, checksum, created, payload "
            "FROM explanations WHERE key = ?",
            (key,),
        ).fetchone()
        if row is None:
            return None
        version, checksum, created, text = row
        now = self._clock()
        if version != STORE_FORMAT_VERSION:
            self._delete(key)
            self._record_failure()
            return None
        ttl = self.config.ttl_seconds
        if ttl is not None and now - created > ttl:
            self._delete(key)
            self._instruments.expirations.inc()
            return None
        if hashlib.sha256(text.encode("utf-8")).hexdigest() != checksum:
            self._delete(key)
            self._record_failure()
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            self._delete(key)
            self._record_failure()
            return None
        if touch:
            self._conn.execute(
                "UPDATE explanations SET accessed = ? WHERE key = ?",
                (now, key),
            )
            if commit:
                self._conn.commit()
        self._failure_streak = 0
        return payload

    def _record_failure(self) -> None:
        """Count one validation/SQLite failure; recover past the streak.

        Isolated bad rows stay row-level events (deleted + recomputed);
        ``recover_after`` failures *in a row* — nothing healthy read in
        between — mean the file itself is suspect, and the whole store is
        quarantined and rebuilt.
        """
        self._instruments.corruptions.inc()
        self._failure_streak += 1
        if self._failure_streak >= self.config.recover_after:
            self._recover()

    def _recover(self) -> None:
        """Quarantine the damaged database file and rebuild empty."""
        try:
            self._conn.close()
        except sqlite3.Error:
            pass
        self._quarantine()
        self._conn = self._connect()
        self._instruments.recoveries.inc()
        self._failure_streak = 0

    def _quarantine(self) -> None:
        """Move the database (and WAL/SHM sidecars) aside for forensics."""
        stamp = int(self._clock())
        target = self.path.with_name(f"{self.path.name}.corrupt-{stamp}")
        suffix = 1
        while target.exists():
            suffix += 1
            target = self.path.with_name(
                f"{self.path.name}.corrupt-{stamp}.{suffix}"
            )
        if self.path.exists():
            self.path.rename(target)
        for sidecar in ("-wal", "-shm"):
            side = self.path.with_name(self.path.name + sidecar)
            if side.exists():
                side.rename(target.with_name(target.name + sidecar))

    def _delete(self, key: str) -> None:
        self._conn.execute("DELETE FROM explanations WHERE key = ?", (key,))
        self._conn.commit()

    def _evict_over_capacity(self) -> None:
        count = int(
            self._conn.execute("SELECT COUNT(*) FROM explanations").fetchone()[0]
        )
        excess = count - self.config.max_entries
        if excess <= 0:
            return
        self._conn.execute(
            "DELETE FROM explanations WHERE key IN ("
            "  SELECT key FROM explanations "
            "  ORDER BY accessed ASC, key ASC LIMIT ?"
            ")",
            (excess,),
        )
        self._instruments.evictions.inc(excess)
