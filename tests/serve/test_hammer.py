"""Threaded hammer: N client threads × M mixed queries against one daemon.

The daemon gives every connection its own handler thread, so this drives
real concurrency through the kernel solver, the compiled-FC projection
caches, and the metrics registry.  Two properties are checked:

* every threaded response is bit-identical to the serial baseline (the
  query ops are pure functions of the request; shared caches must never
  leak a wrong answer across threads);
* the per-thread counter cells lose no increments and the daemon's own
  ``stats`` op agrees with an in-process snapshot once the hammer is
  quiescent.
"""

import json
import threading

import pytest

from repro import metrics
from repro.serve.client import ServeClient
from repro.serve.daemon import ReproServer
from repro.store.backends import MemoryBackend
from repro.store.core import ArtifactStore

N_THREADS = 6

#: Mixed workload spanning every pure query op.  Kept small enough that
#: the whole hammer (serial pass + N_THREADS threaded passes) stays in
#: the tier-1 budget, but wide enough to hit the EF kernel, the FC
#: evaluator, and the rank sweep concurrently.
WORKLOAD = [
    ("ping", {}),
    ("membership", {"word": "abab", "formula": "ww"}),
    ("membership", {"word": "abaab", "formula": "ww"}),
    ("membership", {"word": "aa", "formula": "ww"}),
    # Word pairs unique to this module: solver_for is an lru cache
    # shared across the whole pytest process, and a cold first solve is
    # what guarantees the counter-delta assertions below see real work.
    ("equiv", {"w": "abba", "v": "abab", "k": 2}),
    ("equiv", {"w": "aabb", "v": "abab", "k": 1}),
    ("equiv", {"w": "bb", "v": "bbb", "k": 1}),
    ("rank", {"w": "ab", "v": "abab", "max_k": 2}),
]


@pytest.fixture
def server():
    store = ArtifactStore(MemoryBackend())
    with ReproServer(("127.0.0.1", 0), store=store) as srv:
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            yield srv
        finally:
            srv.shutdown()
            thread.join(timeout=10)


def run_workload(port: int, rotation: int) -> list:
    """One client, the full workload, starting ``rotation`` entries in.

    Rotating per thread staggers which ops collide at any instant, so
    the hammer exercises cross-op interleavings instead of N threads
    marching through identical queries in lockstep.
    """
    responses = [None] * len(WORKLOAD)
    with ServeClient(port=port) as client:
        for step in range(len(WORKLOAD)):
            index = (step + rotation) % len(WORKLOAD)
            op, params = WORKLOAD[index]
            responses[index] = client.call(op, **params)
    return responses


def test_threaded_responses_are_bit_identical_to_serial(server):
    before = metrics.snapshot()

    with ServeClient(port=server.port) as client:
        baseline = [client.call(op, **params) for op, params in WORKLOAD]

    results = [None] * N_THREADS
    errors = []

    def hit(slot: int) -> None:
        try:
            results[slot] = run_workload(server.port, slot)
        except Exception as error:  # surfaced below; threads must not die
            errors.append(error)

    threads = [
        threading.Thread(target=hit, args=(slot,))
        for slot in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    assert all(result is not None for result in results)

    canonical = json.dumps(baseline, sort_keys=True)
    for result in results:
        assert json.dumps(result, sort_keys=True) == canonical

    # Counters stay monotone under contention (exact conservation is
    # pinned down in tests/kernel/test_stats_threading.py) and the cold
    # solves above left real solver and store traffic behind.
    deltas = metrics.diff(before, metrics.snapshot())
    kernel_delta, store_delta = deltas["solver"], deltas["store"]
    assert all(delta > 0 for delta in kernel_delta.values())
    assert kernel_delta.get("consistency_checks", 0) > 0
    assert all(delta > 0 for delta in store_delta.values())
    assert (
        store_delta.get("store_hits", 0) + store_delta.get("store_misses", 0)
        > 0
    )


def test_quiescent_stats_op_agrees_with_process_snapshot(server):
    with ServeClient(port=server.port) as client:
        client.call("equiv", w="aa", v="aaa", k=1)
        reported = client.call("stats")
    # The daemon runs in this process; once no query is in flight its
    # reported counters are exactly the module snapshot, and its store
    # is the fixture's MemoryBackend.
    assert reported["counters"] == metrics.snapshot()["store"]
    assert reported["store"] is not None
