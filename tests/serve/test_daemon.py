"""End-to-end daemon tests: real sockets, real threads, one process
(plus one fresh interpreter for the first-request import test)."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.serve import service
from repro.serve.client import ServeClient, ServeError, query
from repro.serve.daemon import ReproServer
from repro.store import runtime as store_runtime
from repro.store.backends import MemoryBackend
from repro.store.core import ArtifactStore


@pytest.fixture
def server():
    with ReproServer(("127.0.0.1", 0)) as srv:
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            yield srv
        finally:
            srv.shutdown()
            thread.join(timeout=10)


class TestQueries:
    def test_ping_and_membership_over_one_connection(self, server):
        with ServeClient(port=server.port) as client:
            assert client.call("ping")["protocol"] == 1
            assert client.call("membership", word="abab", formula="ww")[
                "member"
            ]
            assert client.call("equiv", w="aaa", v="aaaa", k=1)["equivalent"]

    def test_one_shot_query_helper(self, server):
        result = query("rank", port=server.port, w="aa", v="aaa", max_k=3)
        assert result["rank"] == 1

    def test_error_envelope_keeps_the_connection_usable(self, server):
        with ServeClient(port=server.port) as client:
            response = client.request("membership", word="ab")
            assert response["ok"] is False
            assert "exactly one" in response["error"]
            with pytest.raises(ServeError):
                client.call("equiv", w="a", v="a", k=-1)
            # The daemon answered both errors without dropping us.
            assert client.call("ping")["protocol"] == 1

    def test_malformed_line_gets_an_error_response(self, server):
        with ServeClient(port=server.port) as client:
            client._sock.sendall(b"this is not json\n")
            line = client._file.readline()
            assert b'"ok": false' in line

    def test_concurrent_connections(self, server):
        results = []

        def hit() -> None:
            results.append(
                query("equiv", port=server.port, w="aaa", v="aaaa", k=1)
            )

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == 4
        assert all(r["equivalent"] for r in results)


class TestLifecycle:
    def test_concurrent_shutdown_requests_race_cleanly(self):
        # Regression for the begin_shutdown check-then-set on _stopping:
        # without the lifecycle lock, concurrent shutdown requests all
        # passed the guard.  Every caller must return promptly (the loser
        # never waits on the winner's join) and the loop must stop once.
        srv = ReproServer(("127.0.0.1", 0))
        serving = threading.Thread(target=srv.serve_forever, daemon=True)
        serving.start()
        try:
            barrier = threading.Barrier(4)

            def stop() -> None:
                barrier.wait()
                srv.begin_shutdown()

            callers = [threading.Thread(target=stop) for _ in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in callers)
            serving.join(timeout=10)
            assert not serving.is_alive()
        finally:
            srv.server_close()

    def test_shutdown_request_stops_the_loop(self):
        srv = ReproServer(("127.0.0.1", 0))
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            result = query("shutdown", port=srv.port)
            assert result == {"stopping": True}
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            srv.server_close()

    def test_store_activation_is_scoped_to_the_server(self):
        sentinel = ArtifactStore(MemoryBackend())
        previous = store_runtime.activate(sentinel)
        try:
            store = ArtifactStore(MemoryBackend())
            srv = ReproServer(("127.0.0.1", 0), store=store)
            assert store_runtime.active() is store
            srv.server_close()
            assert store_runtime.active() is sentinel
        finally:
            store_runtime.deactivate(previous)


#: A fresh daemon that fails its exit status if importing the serve layer
#: loads an op module, or if answering requests imports anything of repro:
#: lazy imports in handler threads are what raced.
FRESH_DAEMON = """
import sys
from repro.serve.daemon import serve_forever
from repro.serve.service import _OP_MODULES
assert not any(m in sys.modules for m in _OP_MODULES)
loaded = set()
def announce(line):
    loaded.update(sys.modules)
    print(line, flush=True)
serve_forever("127.0.0.1", 0, announce=announce)
late = sorted(m for m in set(sys.modules) - loaded if m.startswith("repro"))
assert not late, late
"""


def test_first_requests_of_every_op_at_once():
    # Regression: op handlers import lazily, and the first requests of
    # two ops arriving together raced in the import system (ImportError
    # "partially initialized module").  The daemon preloads every op's
    # modules before it serves; it must be a fresh interpreter, since
    # this one has imported everything already.
    src = str(Path(service.__file__).parents[2])
    daemon = subprocess.Popen(
        [sys.executable, "-c", FRESH_DAEMON],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    try:
        port = int(daemon.stdout.readline().rsplit(":", 1)[1])
        first = (
            {"op": "membership", "formula": "ww", "word": "abab"},
            {"op": "equiv", "w": "aaa", "v": "aaaa", "k": 1},
            {"op": "rank", "w": "aa", "v": "aaa", "max_k": 3},
            {"op": "spanner", "pattern": ".*x{a+}.*", "document": "aab"},
        )
        clients = [ServeClient(port=port) for _ in first]
        barrier = threading.Barrier(len(first))

        def send(client, request):
            barrier.wait(timeout=30)
            with client:
                return client.request(**request)

        with ThreadPoolExecutor(len(first)) as pool:
            answers = list(pool.map(send, clients, first))
        assert all(answer["ok"] for answer in answers), answers
        assert query("shutdown", port=port) == {"stopping": True}
        assert daemon.wait(timeout=30) == 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
