"""Content-addressed artifact records over a pluggable backend.

The keying mirrors :mod:`repro.engine.cache` exactly:

    SHA-256(store salt ‖ artifact kind ‖ kind version ‖ canonical args)

with ``\\x00`` separators between parts.  Invalidation is purely by
salt/version — bump :data:`STORE_SALT` to drop every artifact at once,
or a single kind's version constant (in :mod:`repro.store.artifacts`)
to drop just that kind.  There is no TTL and no eviction: the store is
a cache of deterministic computations, so a stale, torn or corrupted
record is simply treated as a miss and rebuilt.

Records are JSON envelopes ``{key, salt, kind, version, args, payload}``
encoded with ``sort_keys=True`` so the same payload always produces the
same bytes (the differential tests assert store round-trips are
bit-identical to cold builds at the decoded-payload level, and the
envelope determinism makes backend-level byte comparisons meaningful
too).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from repro import metrics
from repro.store.backends import StoreBackend

__all__ = ["STORE_SALT", "ArtifactStore", "canonical_args"]

#: Global artifact-store salt.  Independent of ``ENGINE_SALT`` on
#: purpose: task-result keying and kernel-artifact keying version
#: independently (a solver-internals change invalidates artifacts but
#: not task results, and vice versa).
STORE_SALT = "repro-store-v1"


def canonical_args(args: Mapping[str, Any]) -> str:
    """Deterministic text form of an artifact's identifying arguments."""
    return json.dumps(args, sort_keys=True, ensure_ascii=False)


class ArtifactStore:
    """Validated get/put of artifact payloads over a :class:`StoreBackend`.

    Every method carries the declared ``store`` effect: a
    :meth:`load` either returns exactly the payload that was stored for
    this (salt, kind, version, args) — which the hydration layer
    guarantees equals the cold-built value — or reports a miss.
    """

    def __init__(self, backend: StoreBackend, salt: str = STORE_SALT) -> None:
        self.backend = backend
        self.salt = salt

    # -- keys ----------------------------------------------------------

    def key_for(self, kind: str, version: str, args: Mapping[str, Any]) -> str:
        hasher = hashlib.sha256()
        for part in (self.salt, kind, version, canonical_args(args)):
            hasher.update(part.encode("utf-8"))
            hasher.update(b"\x00")
        return hasher.hexdigest()

    # -- record IO -----------------------------------------------------

    def load(
        self, kind: str, version: str, args: Mapping[str, Any]
    ) -> Any | None:
        """Payload stored for this artifact, or ``None`` on miss.

        Anything unreadable — undecodable bytes, a foreign or truncated
        envelope, a salt/kind/version mismatch after a key collision in
        a hand-edited backend — counts as both an error and a miss.
        """
        key = self.key_for(kind, version, args)
        try:
            raw = self.backend.get(key)
        except Exception:
            metrics.record("store_errors")
            metrics.record("store_misses")
            return None
        if raw is None:
            metrics.record("store_misses")
            return None
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            metrics.record("store_errors")
            metrics.record("store_misses")
            return None
        if (
            not isinstance(record, dict)
            or record.get("key") != key
            or record.get("salt") != self.salt
            or record.get("kind") != kind
            or record.get("version") != version
            or "payload" not in record
        ):
            metrics.record("store_errors")
            metrics.record("store_misses")
            return None
        metrics.record("store_hits")
        metrics.record("store_bytes_read", len(raw))
        return record["payload"]

    def store(
        self, kind: str, version: str, args: Mapping[str, Any], payload: Any
    ) -> str:
        """Persist ``payload`` for this artifact; return its key.

        Write failures are swallowed (counted as errors): the store is
        an accelerator, and a solver that computed a value must not die
        because persisting it failed.
        """
        key = self.key_for(kind, version, args)
        record = {
            "key": key,
            "salt": self.salt,
            "kind": kind,
            "version": version,
            "args": dict(args),
            "payload": payload,
        }
        encoded = json.dumps(record, sort_keys=True, ensure_ascii=False)
        raw = encoded.encode("utf-8")
        try:
            self.backend.put(key, raw)
        except Exception:
            metrics.record("store_errors")
            return key
        metrics.record("store_stores")
        metrics.record("store_bytes_written", len(raw))
        return key

    # -- reporting -----------------------------------------------------

    def describe(self) -> dict[str, Any]:
        info = dict(self.backend.describe())
        info["salt"] = self.salt
        return info

    def close(self) -> None:
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()
