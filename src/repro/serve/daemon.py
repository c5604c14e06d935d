"""The long-lived query daemon behind ``python -m repro serve``.

A stdlib :class:`socketserver.ThreadingTCPServer` speaking the JSON-lines
protocol of :mod:`repro.serve.protocol`.  The point of the daemon is
amortisation: the process activates the artifact store once, hydrates
kernel tables on first touch, and then every subsequent query — from any
connection — hits warm ``lru_cache``s and warm store records instead of
forking a fresh Python.

Connections are thread-per-client; queries from one connection are
answered in order.  The kernel stack is safe under this model for the
query mix the protocol admits: solver memo tables are only grown with
idempotent entries, counter bumps land in each handler thread's own
``repro.metrics`` cell, and the store backend is concurrent-reader/writer
safe (sqlite WAL or a lock-free in-memory dict).  This claim is
machine-checked, not asserted: the ``concurrency.*`` lint rules walk the
call graph from this module's handler entry points and flag any
unsynchronized write to thread-shared state — every surviving site is
either guarded or carries a reasoned ``allow`` pin at the write.

``shutdown`` stops the accept loop after the acknowledging response has
been flushed to the requesting client.
"""

from __future__ import annotations

import socketserver
import threading
from typing import Any, Callable

from repro.serve import protocol
from repro.serve.service import QueryService
from repro.store import runtime as store_runtime
from repro.store.core import ArtifactStore

__all__ = ["ReproServer", "serve_forever"]


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read request lines, write response lines."""

    def handle(self) -> None:
        server: "ReproServer" = self.server  # type: ignore[assignment]
        for line in self.rfile:
            if not line.strip():
                continue
            response = server.answer(line)
            self.wfile.write(protocol.encode(response))
            self.wfile.flush()
            if response.get("op") == "shutdown" and response.get("ok"):
                server.begin_shutdown()
                return


class ReproServer(socketserver.ThreadingTCPServer):
    """The serving loop; owns the service and the (optional) store."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        store: ArtifactStore | None = None,
        service: QueryService | None = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service if service is not None else QueryService()
        self.service.preload()  # before any handler thread can race
        self.store = store
        self._previous_store: ArtifactStore | None = None
        self._stopping = False
        # Guards the shutdown/teardown lifecycle state (_stopping, store):
        # two handler threads can deliver `shutdown` concurrently, and
        # server_close races against a late begin_shutdown.
        self._lifecycle_lock = threading.Lock()
        if store is not None:
            self._previous_store = store_runtime.activate(store)

    @property
    def port(self) -> int:
        """The bound port (useful with an ephemeral ``port=0`` bind)."""
        return self.server_address[1]

    def answer(self, line: bytes) -> dict[str, Any]:
        """One wire line → one response envelope (never raises)."""
        op: str | None = None
        try:
            request = protocol.decode_line(line)
            op = request.get("op") if isinstance(request.get("op"), str) else None
            protocol.validate_request(request)
            return protocol.ok_response(
                request["op"], self.service.dispatch(request)
            )
        except protocol.ProtocolError as error:
            return protocol.error_response(str(error), op)
        except Exception as error:  # noqa: BLE001 — daemon must not die
            return protocol.error_response(
                f"{type(error).__name__}: {error}", op
            )

    def begin_shutdown(self) -> None:
        """Stop the accept loop (idempotent; safe from handler threads).

        The check-then-set on ``_stopping`` holds the lifecycle lock:
        without it, two concurrent ``shutdown`` requests both pass the
        guard and spawn two ``shutdown()`` threads (the dogfood finding
        of ``concurrency.shared-state-race``).
        """
        with self._lifecycle_lock:
            if self._stopping:
                return
            self._stopping = True
        # shutdown() blocks until serve_forever() returns, so it must run
        # off the handler thread only if the handler IS the serving
        # thread; under ThreadingTCPServer handlers are always separate
        # threads, but a plain thread keeps this safe for direct calls
        # from the serving thread in tests.  Started outside the lock:
        # the loser of the race must not wait on the winner's join.
        threading.Thread(target=self.shutdown, daemon=True).start()

    def server_close(self) -> None:
        super().server_close()
        with self._lifecycle_lock:
            if self.store is not None:
                store_runtime.deactivate(self._previous_store)
                self.store = None


def _announce(message: str) -> None:
    # Explicit flush: under a pipe (CI smoke, subprocess tests) stdout is
    # block-buffered and the "serving on" line must reach the parent
    # before the first connection attempt.
    print(message, flush=True)


def serve_forever(
    host: str,
    port: int,
    store: ArtifactStore | None = None,
    announce: Callable[[str], None] = _announce,
) -> int:
    """Bind, announce ``serving on HOST:PORT``, and serve until shutdown."""
    with ReproServer((host, port), store=store) as server:
        announce(f"serving on {host}:{server.port}")
        server.serve_forever(poll_interval=0.1)
    return 0
