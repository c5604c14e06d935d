"""The serve daemon's wire protocol: JSON lines over a TCP stream.

One request per line, one response per line, UTF-8, ``\\n``-terminated.
Every request is an object with an ``op`` field plus op-specific
arguments; every response is an object with ``ok`` (bool) and either
``result`` (on success) or ``error`` (a message string).  The protocol
version is negotiated implicitly: ``ping`` reports it and clients are
expected to check.

Ops (see :data:`OPS` for the argument schemas):

* ``ping``        — liveness + protocol version
* ``stats``       — the serving process's metrics registry: the store
  description, ``counters`` (the store section), ``solver`` and ``lru``
  (every registered cache's hits, misses and residency)
* ``membership``  — ``word ⊨ φ`` for a named paper formula or FC text
* ``equiv``       — ``w ≡_k v`` (exact EF game)
* ``rank``        — least separating rank ≤ ``max_k``
* ``spanner``     — evaluate a regex-formula spanner on a document
* ``shutdown``    — drain and stop the daemon

This module is pure encode/decode/validate; the daemon and client share
it so a schema change cannot silently fork the two sides.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "ProtocolError",
    "decode_line",
    "encode",
    "error_response",
    "ok_response",
    "validate_request",
]

PROTOCOL_VERSION = 1

#: op → (required args, optional args); values are (name, type) pairs.
OPS: dict[str, tuple[tuple[tuple[str, type], ...], tuple[tuple[str, type], ...]]] = {
    "ping": ((), ()),
    "stats": ((), ()),
    "membership": (
        (("word", str),),
        (("formula", str), ("text", str), ("alphabet", str)),
    ),
    "equiv": ((("w", str), ("v", str), ("k", int)), (("alphabet", str),)),
    "rank": ((("w", str), ("v", str)), (("max_k", int), ("alphabet", str))),
    "spanner": ((("pattern", str), ("document", str)), ()),
    "shutdown": ((), ()),
}


class ProtocolError(ValueError):
    """A malformed request line or an invalid request object."""


def encode(payload: dict[str, Any]) -> bytes:
    """One wire line for ``payload`` (newline-terminated UTF-8 JSON)."""
    return (
        json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into an object, raising :class:`ProtocolError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"not UTF-8: {error}") from None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"not JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(payload).__name__}"
        )
    return payload


def _well_typed(value: Any, kind: type) -> bool:
    if kind is int:
        # bool is a subclass of int but is never a valid count/rank.
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


def validate_request(payload: dict[str, Any]) -> dict[str, Any]:
    """Check ``payload`` against :data:`OPS`; return it unchanged.

    Raises :class:`ProtocolError` on an unknown op, a missing or
    mistyped argument, or an argument no schema mentions.
    """
    op = payload.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; valid ops: {sorted(OPS)}"
        )
    required, optional = OPS[op]
    known = {"op"}
    for name, kind in required:
        known.add(name)
        if name not in payload:
            raise ProtocolError(f"{op}: missing required argument {name!r}")
        if not _well_typed(payload[name], kind):
            raise ProtocolError(
                f"{op}: argument {name!r} must be {kind.__name__}"
            )
    for name, kind in optional:
        known.add(name)
        if name in payload and not _well_typed(payload[name], kind):
            raise ProtocolError(
                f"{op}: argument {name!r} must be {kind.__name__}"
            )
    extra = sorted(set(payload) - known)
    if extra:
        raise ProtocolError(f"{op}: unexpected argument(s) {extra}")
    return payload


def ok_response(op: str, result: Any) -> dict[str, Any]:
    """A success envelope for ``op``."""
    return {"ok": True, "op": op, "result": result}


def error_response(message: str, op: str | None = None) -> dict[str, Any]:
    """A failure envelope (``op`` included when it was recognisable)."""
    payload: dict[str, Any] = {"ok": False, "error": message}
    if op is not None:
        payload["op"] = op
    return payload
