"""Conservation, retirement and fork re-arm of the metrics registry.

A bump is a plain ``+=`` on the calling thread's own cell, so these
tests pin the conservation law exactly (delta == T * N) across threads
that bump at once and across threads that come and go, check that a
finished thread's cell is folded away, that a ``shard_overhead()``
scope reroutes only its own thread, and that the registry lock re-arms
after a ``fork`` so a worker never inherits a held lock.
"""

import os
import signal
import sys
import threading
from contextlib import contextmanager

from repro import metrics

N_THREADS = 8
N_INCREMENTS = 2000


@contextmanager
def fast_switching():
    """Switch threads every microsecond, so bumps interleave densely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def run_all(threads: list) -> None:
    with fast_switching():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)


def hammer(name: str) -> None:
    barrier = threading.Barrier(N_THREADS)

    def work() -> None:
        barrier.wait()  # maximise interleaving: everyone starts at once
        for _ in range(N_INCREMENTS):
            metrics.record(name)

    run_all([threading.Thread(target=work) for _ in range(N_THREADS)])


def counter(name: str) -> int:
    snap = metrics.snapshot()
    return snap["store" if name.startswith("store_") else "solver"][name]


def test_kernel_counter_increments_are_conserved():
    before = counter("table_hits")
    hammer("table_hits")
    assert counter("table_hits") - before == N_THREADS * N_INCREMENTS


def test_store_counter_increments_are_conserved():
    before = counter("store_hits")
    hammer("store_hits")
    assert counter("store_hits") - before == N_THREADS * N_INCREMENTS


def test_short_lived_threads_are_conserved_and_retired():
    # A daemon starts one thread per connection: many threads, each
    # bumping for a while and exiting, some while others start.
    before = counter("table_hits")

    def work() -> None:
        for _ in range(500):
            metrics.record("table_hits")

    threads = [threading.Thread(target=work) for _ in range(64)]
    run_all(threads)
    assert counter("table_hits") - before == 64 * 500
    # The snapshot folded every finished thread's cell into the total.
    assert not set(threads) & set(metrics._CELLS)


def test_overhead_scope_reroutes_only_its_own_thread():
    scoped = threading.Event()
    bumped = threading.Event()

    def other() -> None:
        scoped.wait(timeout=60)
        for _ in range(100):
            metrics.record("table_hits")
        bumped.set()

    thread = threading.Thread(target=other)
    thread.start()
    before = metrics.snapshot()
    with metrics.shard_overhead():
        scoped.set()
        assert bumped.wait(timeout=60)
        metrics.record("table_hits")
    thread.join(timeout=60)
    assert not thread.is_alive()
    delta = metrics.diff(before, metrics.snapshot())["solver"]
    assert delta["table_hits"] == 100
    assert delta["shard_overhead_ops"] == 1


def test_bump_takes_no_lock_and_no_system_call(monkeypatch):
    metrics.record("table_hits")  # this thread's cell exists from here on

    class Unusable:
        def __enter__(self):
            raise AssertionError("a bump took the registry lock")

    def no_getpid():
        raise AssertionError("a bump called os.getpid()")

    before = counter("table_hits")
    monkeypatch.setattr(metrics, "_LOCK", Unusable())
    monkeypatch.setattr(metrics.os, "getpid", no_getpid)
    metrics.record("table_hits")
    monkeypatch.undo()
    assert counter("table_hits") - before == 1


def test_lock_is_rearmed_after_fork(monkeypatch):
    # Simulate the child side of a fork by shifting the observed pid:
    # _lock() must hand back a *fresh* lock (the inherited one may be
    # held by a parent thread that no longer exists in the child).
    inherited = metrics._lock()
    monkeypatch.setattr(metrics.os, "getpid", lambda: -1)
    fresh = metrics._lock()
    assert fresh is not inherited
    assert metrics._lock() is fresh  # stable until the next fork
    monkeypatch.undo()
    # Back in the parent pid the module re-arms once more; counters
    # keep working either way.
    metrics.record("table_hits")
    metrics.record("store_hits")


def test_forked_child_snapshots_while_a_parent_thread_holds_the_lock():
    holding = threading.Event()
    release = threading.Event()

    def holder() -> None:
        metrics.record("table_hits")
        with metrics._lock():
            holding.set()
            release.wait(timeout=60)

    thread = threading.Thread(target=holder)
    thread.start()
    assert holding.wait(timeout=60)
    pid = os.fork()
    if pid == 0:  # child: the holder thread does not exist here
        code = 1
        signal.alarm(20)  # a deadlocked child dies instead of hanging
        try:
            metrics.snapshot()
            metrics.record("table_hits")
            if thread not in metrics._CELLS:
                code = 0
        finally:
            os._exit(code)
    release.set()
    thread.join(timeout=60)
    assert not thread.is_alive()
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
