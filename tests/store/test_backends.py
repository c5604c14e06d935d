"""Backend contract tests: memory, sqlite, spec resolution, concurrency."""

import multiprocessing
import sqlite3
import threading

import pytest

from repro.store.backends import (
    MemoryBackend,
    SqliteBackend,
    open_backend,
)

KEY_A = "aa" * 32
KEY_B = "bb" * 32


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryBackend()
    else:
        made = SqliteBackend(tmp_path / "artifacts.sqlite")
        yield made
        made.close()


class TestContract:
    def test_get_absent_is_none(self, backend):
        assert backend.get(KEY_A) is None

    def test_put_get_roundtrip(self, backend):
        backend.put(KEY_A, b"\x00binary\xff")
        assert backend.get(KEY_A) == b"\x00binary\xff"

    def test_last_writer_wins(self, backend):
        backend.put(KEY_A, b"first")
        backend.put(KEY_A, b"second")
        assert backend.get(KEY_A) == b"second"

    def test_keys_sorted(self, backend):
        backend.put(KEY_B, b"b")
        backend.put(KEY_A, b"a")
        assert backend.keys() == [KEY_A, KEY_B]

    def test_describe_has_backend_and_path(self, backend):
        info = backend.describe()
        assert set(info) >= {"backend", "path"}


class TestSqlite:
    def test_records_survive_close_and_reopen(self, tmp_path):
        path = tmp_path / "artifacts.sqlite"
        first = SqliteBackend(path)
        first.put(KEY_A, b"persisted")
        first.close()
        second = SqliteBackend(path)
        assert second.get(KEY_A) == b"persisted"
        second.close()

    def test_fork_inherited_backend_reopens_its_handle(self, tmp_path):
        backend = SqliteBackend(tmp_path / "artifacts.sqlite")
        backend.put(KEY_A, b"parent")

        def child() -> None:
            backend.put(KEY_B, b"child")

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(timeout=30)
        assert process.exitcode == 0
        assert backend.get(KEY_A) == b"parent"
        assert backend.get(KEY_B) == b"child"
        backend.close()


def _hammer(task) -> None:
    path, worker = task
    backend = SqliteBackend(path)
    for i in range(25):
        backend.put(f"{worker:02d}{i:02d}" + "0" * 60, f"w{worker}r{i}".encode())
        backend.put("ff" * 32, f"shared from {worker}".encode())
    backend.close()


def test_concurrent_writers_do_not_corrupt(tmp_path):
    path = tmp_path / "artifacts.sqlite"
    workers = 4
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        pool.map(_hammer, [(path, worker) for worker in range(workers)])
    backend = SqliteBackend(path)
    try:
        keys = backend.keys()
        assert len(keys) == workers * 25 + 1
        for worker in range(workers):
            for i in range(25):
                key = f"{worker:02d}{i:02d}" + "0" * 60
                assert backend.get(key) == f"w{worker}r{i}".encode()
        assert backend.get("ff" * 32) in {
            f"shared from {worker}".encode() for worker in range(workers)
        }
    finally:
        backend.close()


def test_wal_switch_waits_for_a_writer_on_a_fresh_file(tmp_path):
    # sqlite answers the WAL switch with "database is locked" at once
    # while another connection holds a write lock on a fresh file.
    path = tmp_path / "artifacts.sqlite"
    holder = sqlite3.connect(
        path, isolation_level=None, check_same_thread=False
    )
    holder.execute("BEGIN IMMEDIATE")
    release = threading.Timer(0.3, holder.execute, args=("COMMIT",))
    release.start()
    backend = SqliteBackend(path)
    try:
        backend.put(KEY_A, b"after the writer")
        assert backend.get(KEY_A) == b"after the writer"
    finally:
        release.join()
        holder.close()
        backend.close()


class TestOpenBackend:
    def test_memory_specs(self):
        assert isinstance(open_backend("memory"), MemoryBackend)
        assert isinstance(open_backend(":memory:"), MemoryBackend)

    def test_sqlite_prefix(self, tmp_path):
        backend = open_backend(f"sqlite:{tmp_path}/store.sqlite")
        assert isinstance(backend, SqliteBackend)
        assert backend.path == tmp_path / "store.sqlite"

    def test_file_suffixes_go_direct(self, tmp_path):
        for suffix in (".sqlite", ".db", ".sqlite3"):
            backend = open_backend(tmp_path / f"s{suffix}")
            assert backend.path == tmp_path / f"s{suffix}"

    def test_directory_gets_default_filename(self, tmp_path):
        backend = open_backend(tmp_path)
        assert backend.path == tmp_path / "artifacts.sqlite"
