"""Envelope semantics: keying, round-trips, and corruption-as-miss."""

import json

from repro import metrics
from repro.store.backends import MemoryBackend
from repro.store.core import STORE_SALT, ArtifactStore, canonical_args

ARGS = {"word": "abab", "alphabet": "ab"}


def _store() -> ArtifactStore:
    return ArtifactStore(MemoryBackend())


class TestKeying:
    def test_key_ignores_args_insertion_order(self):
        store = _store()
        flipped = {"alphabet": "ab", "word": "abab"}
        assert store.key_for("k", "1", ARGS) == store.key_for("k", "1", flipped)

    def test_key_separates_all_parts(self):
        store = _store()
        base = store.key_for("kind", "1", ARGS)
        assert store.key_for("kine", "1", ARGS) != base
        assert store.key_for("kind", "2", ARGS) != base
        assert store.key_for("kind", "1", {**ARGS, "word": "abba"}) != base
        assert ArtifactStore(MemoryBackend(), salt="s2").key_for(
            "kind", "1", ARGS
        ) != base

    def test_canonical_args_sorts_keys(self):
        assert canonical_args({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'


class TestRoundTrip:
    def test_payload_survives_bit_identically(self):
        store = _store()
        payload = ["", "a", "ab", ["nested", {"deep": True}], 17]
        key = store.store("kind", "1", ARGS, payload)
        assert store.load("kind", "1", ARGS) == payload
        # The backend bytes are a deterministic envelope.
        record = json.loads(store.backend.get(key).decode("utf-8"))
        assert record == {
            "key": key,
            "salt": STORE_SALT,
            "kind": "kind",
            "version": "1",
            "args": ARGS,
            "payload": payload,
        }

    def test_absent_is_a_miss(self):
        store = _store()
        before = metrics.snapshot()
        assert store.load("kind", "1", ARGS) is None
        delta = metrics.diff(before, metrics.snapshot())["store"]
        assert delta.get("store_misses") == 1
        assert "store_errors" not in delta


class TestCorruption:
    def _stored(self) -> tuple[ArtifactStore, str]:
        store = _store()
        key = store.store("kind", "1", ARGS, [1, 2, 3])
        return store, key

    def _expect_error_miss(self, store: ArtifactStore):
        before = metrics.snapshot()
        assert store.load("kind", "1", ARGS) is None
        delta = metrics.diff(before, metrics.snapshot())["store"]
        assert delta.get("store_misses") == 1
        assert delta.get("store_errors") == 1

    def test_undecodable_bytes_are_a_miss(self):
        store, key = self._stored()
        store.backend.put(key, b"\xff\xfe not json")
        self._expect_error_miss(store)

    def test_non_object_record_is_a_miss(self):
        store, key = self._stored()
        store.backend.put(key, b'["not", "an", "envelope"]')
        self._expect_error_miss(store)

    def test_truncated_envelope_is_a_miss(self):
        store, key = self._stored()
        raw = json.loads(store.backend.get(key))
        del raw["payload"]
        store.backend.put(key, json.dumps(raw).encode())
        self._expect_error_miss(store)

    def test_stale_salt_is_a_miss(self):
        backend = MemoryBackend()
        old = ArtifactStore(backend, salt="repro-store-v0")
        old.store("kind", "1", ARGS, [1])
        fresh = ArtifactStore(backend)
        before = metrics.snapshot()
        assert fresh.load("kind", "1", ARGS) is None
        delta = metrics.diff(before, metrics.snapshot())["store"]
        # Different salt → different key → a plain miss, no error.
        assert delta.get("store_misses") == 1

    def test_foreign_record_under_the_right_key_is_a_miss(self):
        # A hand-edited backend serving someone else's envelope under our
        # key must not hydrate.
        store, key = self._stored()
        raw = json.loads(store.backend.get(key))
        raw["kind"] = "other-kind"
        store.backend.put(key, json.dumps(raw).encode())
        self._expect_error_miss(store)


class _ExplodingBackend(MemoryBackend):
    def get(self, key):
        raise OSError("disk gone")

    def put(self, key, record):
        raise OSError("disk full")


class TestBackendFailures:
    def test_get_failure_is_an_error_miss(self):
        store = ArtifactStore(_ExplodingBackend())
        before = metrics.snapshot()
        assert store.load("kind", "1", ARGS) is None
        delta = metrics.diff(before, metrics.snapshot())["store"]
        assert delta.get("store_errors") == 1
        assert delta.get("store_misses") == 1

    def test_put_failure_is_swallowed(self):
        store = ArtifactStore(_ExplodingBackend())
        before = metrics.snapshot()
        key = store.store("kind", "1", ARGS, [1])
        assert isinstance(key, str) and len(key) == 64
        delta = metrics.diff(before, metrics.snapshot())["store"]
        assert delta.get("store_errors") == 1
        assert "store_stores" not in delta


def test_describe_includes_salt():
    store = _store()
    info = store.describe()
    assert info["salt"] == STORE_SALT
    assert info["backend"] == "memory"
