"""Byte-level storage backends behind one small protocol.

A backend maps hex keys to opaque record bytes; everything above it
(keying, envelope validation, statistics) lives in
:class:`repro.store.core.ArtifactStore`.  Two implementations ship:

* :class:`SqliteBackend` — one ``artifacts.sqlite`` file, WAL journal,
  ``INSERT OR REPLACE`` upserts inside implicit transactions so
  concurrent writers (engine worker pools, a serve daemon and a warm
  run side by side) serialise instead of corrupting each other.  The
  connection is re-opened after a ``fork`` (sqlite handles must not
  cross processes), which is exactly what the engine's fork-based
  worker pools need.
* :class:`MemoryBackend` — a dict; tests and ephemeral daemons.

LMDB / RocksDB / DuckDB backends can be added behind the same four
methods without touching any caller.
"""

from __future__ import annotations

import os
import sqlite3
import time
from pathlib import Path
from typing import Iterable, Protocol

__all__ = [
    "MemoryBackend",
    "SqliteBackend",
    "StoreBackend",
    "open_backend",
]


class StoreBackend(Protocol):
    """The pluggable storage contract."""

    def get(self, key: str) -> bytes | None:
        """Record bytes for ``key``, or ``None`` when absent."""

    def put(self, key: str, record: bytes) -> None:
        """Persist ``record`` under ``key`` (last writer wins)."""

    def keys(self) -> list[str]:
        """Every stored key, sorted (introspection and tests)."""

    def describe(self) -> dict:
        """Backend name and location for reports."""


class MemoryBackend:
    """Process-local dict backend (nothing survives the process)."""

    def __init__(self) -> None:
        self._records: dict[str, bytes] = {}

    def get(self, key: str) -> bytes | None:
        return self._records.get(key)

    def put(self, key: str, record: bytes) -> None:
        self._records[key] = bytes(record)

    def keys(self) -> list[str]:
        return sorted(self._records)

    def describe(self) -> dict:
        return {"backend": "memory", "path": None}


class SqliteBackend:
    """Single-file sqlite backend, safe under concurrent writers.

    ``busy_timeout`` makes lock contention block-and-retry instead of
    raising; WAL keeps readers unblocked while a writer commits.  The
    store is a cache — a crash may lose the most recent records but can
    never serve a torn one (sqlite pages are atomic), and the envelope
    validation above treats anything unreadable as a miss anyway.
    """

    def __init__(self, path: str | Path, timeout_s: float = 30.0) -> None:
        self.path = Path(path)
        self._timeout_s = timeout_s
        self._conn: sqlite3.Connection | None = None
        self._pid = -1

    def __getstate__(self) -> dict:
        # Spawn-based worker pools pickle the backend to re-open it in
        # the child; the live sqlite handle must never travel.
        state = self.__dict__.copy()
        state["_conn"] = None
        state["_pid"] = -1
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def _connection(self) -> sqlite3.Connection:
        # A connection must never cross a fork: worker pools inherit the
        # object but open their own handle on first use.
        pid = os.getpid()
        if self._conn is None or self._pid != pid:
            if self._conn is not None and self._pid == pid:
                self._conn.close()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                str(self.path),
                timeout=self._timeout_s,
                isolation_level=None,  # autocommit: one upsert, one txn
                check_same_thread=False,  # the serve daemon is threaded
            )
            self._switch_to_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS artifacts ("
                "key TEXT PRIMARY KEY, record BLOB NOT NULL)"
            )
            self._conn = conn
            self._pid = pid
        return self._conn

    def _switch_to_wal(self, conn: sqlite3.Connection) -> None:
        # While another connection holds a write lock on a fresh file,
        # sqlite refuses the switch to WAL at once ("database is
        # locked") without calling the busy handler, so ``timeout``
        # alone does not cover it: retry that error until the timeout
        # runs out.  Any other error raises at once.
        deadline = time.monotonic() + self._timeout_s
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() > deadline:
                    raise
            time.sleep(0.005)

    def get(self, key: str) -> bytes | None:
        row = self._connection().execute(
            "SELECT record FROM artifacts WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else bytes(row[0])

    def put(self, key: str, record: bytes) -> None:
        self._connection().execute(
            "INSERT OR REPLACE INTO artifacts (key, record) VALUES (?, ?)",
            (key, sqlite3.Binary(bytes(record))),
        )

    def keys(self) -> list[str]:
        rows = self._connection().execute(
            "SELECT key FROM artifacts ORDER BY key"
        ).fetchall()
        return [row[0] for row in rows]

    def describe(self) -> dict:
        return {"backend": "sqlite", "path": str(self.path)}

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._pid = -1


def open_backend(spec: str | Path) -> "StoreBackend":
    """Resolve a backend from a spec string or path.

    ``"memory"`` / ``":memory:"`` → :class:`MemoryBackend`;
    ``"sqlite:PATH"`` → :class:`SqliteBackend` at PATH; a bare path →
    sqlite at ``PATH/artifacts.sqlite`` when PATH is (or will be) a
    directory, else sqlite at PATH itself.
    """
    text = str(spec)
    if text in ("memory", ":memory:"):
        return MemoryBackend()
    if text.startswith("sqlite:"):
        return SqliteBackend(text[len("sqlite:"):])
    path = Path(text)
    if path.suffix in (".sqlite", ".db", ".sqlite3"):
        return SqliteBackend(path)
    return SqliteBackend(path / "artifacts.sqlite")


def backend_names() -> Iterable[str]:
    """The backend specs ``open_backend`` understands (docs/CLI help)."""
    return ("memory", "sqlite:PATH", "DIR (→ DIR/artifacts.sqlite)")
