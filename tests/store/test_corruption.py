"""Store-corruption demotion: damaged records are misses, never poison.

Three corruption shapes the wild actually produces — a byte-truncated
sqlite record (torn copy, interrupted rsync), a wrong-salt envelope
under the right key (hand-edited or foreign store file), and a
version-mismatch envelope (stale artifact after a kind-version bump) —
must each demote to a counted miss and fall back to the cold build.
The hydrated-after-corruption structures must stay bit-identical to a
cold build: the store is an accelerator, never an oracle.
"""

import json
import sqlite3

import pytest

from repro import metrics
from repro.ef.equivalence import solver_for
from repro.kernel.automorphisms import automorphism_group
from repro.kernel.interning import intern_table
from repro.store import runtime as store_runtime
from repro.store.backends import SqliteBackend
from repro.store.core import ArtifactStore

ARGS = {"word": "abab", "alphabet": "ab"}

#: Long enough to cross the interning hydration threshold
#: (``_STORE_MIN_WORD = 12``), same as tests/store/test_hydration.py.
WORD = "aabbab" * 2
ALPHABET = ("a", "b")


def _clear_kernel_caches() -> None:
    intern_table.cache_clear()
    automorphism_group.cache_clear()
    solver_for.cache_clear()


def _sqlite_store(tmp_path) -> ArtifactStore:
    return ArtifactStore(SqliteBackend(tmp_path / "store.sqlite"))


def _expect_error_miss(store: ArtifactStore) -> None:
    before = metrics.snapshot()
    assert store.load("kind", "1", ARGS) is None
    delta = metrics.diff(before, metrics.snapshot())["store"]
    assert delta.get("store_misses") == 1
    assert delta.get("store_errors") == 1


# -- the three corruption shapes, at the record level ------------------------


def test_truncated_sqlite_record_is_a_miss(tmp_path):
    store = _sqlite_store(tmp_path)
    key = store.store("kind", "1", ARGS, [1, 2, 3])
    # Tear the record behind the backend's back, as a torn file copy
    # would: the row survives but holds half an envelope.
    with sqlite3.connect(store.backend.path) as conn:
        raw = conn.execute(
            "SELECT record FROM artifacts WHERE key = ?", (key,)
        ).fetchone()[0]
        conn.execute(
            "UPDATE artifacts SET record = ? WHERE key = ?",
            (sqlite3.Binary(bytes(raw)[: len(raw) // 2]), key),
        )
    _expect_error_miss(store)
    # A rebuild repairs the record in place; the next load hydrates.
    store.store("kind", "1", ARGS, [1, 2, 3])
    assert store.load("kind", "1", ARGS) == [1, 2, 3]


def test_wrong_salt_record_under_the_right_key_is_a_miss(tmp_path):
    # Unlike a salt *bump* (different key, plain miss), this is a record
    # whose envelope lies about its salt under our exact key.
    store = _sqlite_store(tmp_path)
    key = store.store("kind", "1", ARGS, [1, 2, 3])
    record = json.loads(store.backend.get(key).decode("utf-8"))
    record["salt"] = "not-this-store's-salt"
    store.backend.put(key, json.dumps(record, sort_keys=True).encode())
    _expect_error_miss(store)


def test_version_mismatch_record_is_a_miss(tmp_path):
    store = _sqlite_store(tmp_path)
    key = store.store("kind", "1", ARGS, [1, 2, 3])
    record = json.loads(store.backend.get(key).decode("utf-8"))
    record["version"] = "999"
    store.backend.put(key, json.dumps(record, sort_keys=True).encode())
    _expect_error_miss(store)


# -- corruption never poisons hydration --------------------------------------


def _truncate(backend) -> None:
    for key in backend.keys():
        raw = backend.get(key)
        backend.put(key, raw[: len(raw) // 2])


def _resalt(backend) -> None:
    for key in backend.keys():
        record = json.loads(backend.get(key).decode("utf-8"))
        record["salt"] = "evil"
        backend.put(key, json.dumps(record, sort_keys=True).encode())


def _reversion(backend) -> None:
    for key in backend.keys():
        record = json.loads(backend.get(key).decode("utf-8"))
        record["version"] = "999"
        backend.put(key, json.dumps(record, sort_keys=True).encode())


def _assert_tables_identical(left, right) -> None:
    assert left.word == right.word
    assert left.alphabet == right.alphabet
    assert left.elements == right.elements
    assert left.id_of == right.id_of
    assert left.lengths == right.lengths
    assert left.const_ids == right.const_ids
    assert left.n_factors == right.n_factors


@pytest.mark.parametrize(
    "corrupt", [_truncate, _resalt, _reversion],
    ids=["truncated", "wrong-salt", "version-mismatch"],
)
def test_corrupted_records_never_poison_hydration(tmp_path, corrupt):
    # Cold reference, no store in sight.
    previous = store_runtime.activate(None)
    _clear_kernel_caches()
    try:
        cold = intern_table(WORD, ALPHABET)
    finally:
        store_runtime.deactivate(previous)
        _clear_kernel_caches()

    store = _sqlite_store(tmp_path)
    previous = store_runtime.activate(store)
    try:
        published = intern_table(WORD, ALPHABET)  # cold build + publish
        _assert_tables_identical(published, cold)
        assert store.backend.keys(), "publish wrote no records"
        corrupt(store.backend)
        intern_table.cache_clear()
        before = metrics.snapshot()
        rebuilt = intern_table(WORD, ALPHABET)
        delta = metrics.diff(before, metrics.snapshot())["store"]
        # The damaged record served nothing: a counted miss, then the
        # cold path rebuilt the exact same structure.
        assert delta.get("store_hits", 0) == 0
        assert delta.get("store_misses", 0) >= 1
        assert delta.get("store_errors", 0) >= 1
        _assert_tables_identical(rebuilt, cold)
    finally:
        store_runtime.deactivate(previous)
        _clear_kernel_caches()
